"""Clique-cover instances and their derived combinatorial structure.

An instance is a union of n complete graphs (cliques), each on exactly n
vertices, such that any two cliques share at most one vertex.  This is the
graph form of a linear hypergraph with n edges of cardinality n, the object
of the Erdos-Faber-Lovasz conjecture.  Vertices are identified by string
tokens; clique indices are 1-based everywhere, including file formats and
reports.

The clique degree of a vertex is the number of cliques containing it.
Vertices of clique degree 1 are "private", the rest are "core"; the core
vertices induce the core graph, which is all that matters for n-coloring.
Each instance splits its vertices into these two kinds once, and every layer
that looks only at the core reads that split.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import chain, combinations, repeat
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import InvalidInstanceError, ParseError, UnknownVertexError

VertexId = str


class Instance:
    """n cliques of order n; clique i keeps its vertex tokens in input order.

    Construction is permissive about clique contents (wrong sizes, duplicate
    tokens, oversized intersections) so that :func:`validate` can report the
    violations; only the clique count itself must match ``n``.  A cover with
    a clique of the wrong size or a repeated token validates as invalid, and
    :func:`efl.export.serialize_instance` refuses it.  Instances are
    immutable and hashable, and all derived views are cached: the vertex
    tuple, the incidence map, its split into ``core_incidence`` and
    ``private_members``, the validation report and the degree table of the
    paper's two conditions.  No call writes anything else to an instance.
    A copy or a pickle carries the views cached so far.
    """

    def __init__(self, n: int, cliques: Iterable[Iterable[VertexId]]):
        if n < 1:
            raise ValueError(f"clique count must be positive, got {n}")
        normalized = tuple(tuple(c) for c in cliques)
        if len(normalized) != n:
            raise ValueError(f"expected {n} cliques, got {len(normalized)}")
        self.n = n
        self.cliques = normalized

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Instance)
            and self.n == other.n
            and self.cliques == other.cliques
        )

    def __hash__(self) -> int:
        return hash((self.n, self.cliques))

    def __repr__(self) -> str:
        return f"Instance(n={self.n}, vertices={len(self.vertices)})"

    def clique(self, i: int) -> tuple[VertexId, ...]:
        """Vertex tokens of clique i (1-based)."""
        if not 1 <= i <= self.n:
            raise IndexError(f"clique index {i} out of range 1..{self.n}")
        return self.cliques[i - 1]

    @cached_property
    def vertices(self) -> tuple[VertexId, ...]:
        """The vertex universe, the keys of :attr:`incidence_map`, in token order."""
        return tuple(sorted(self.incidence_map))

    @cached_property
    def incidence_map(self) -> dict[VertexId, tuple[int, ...]]:
        """For every vertex, the ascending 1-based indices of its cliques.

        Vertices appear in input order (first clique, then position), so
        iterating the map does not depend on string hashing.
        """
        found: dict[VertexId, tuple[int, ...]] = {}
        for i, members in enumerate(self.cliques, start=1):
            one = (i,)
            for token in members:
                if token not in found:
                    found[token] = one
                elif found[token][-1] != i:  # a token repeated in clique i counts once
                    found[token] += one
        return found

    @cached_property
    def core_incidence(self) -> dict[VertexId, tuple[int, ...]]:
        """The entries of :attr:`incidence_map` with two or more cliques, in its order."""
        return {v: ix for v, ix in self.incidence_map.items() if len(ix) > 1}

    @cached_property
    def private_members(self) -> tuple[tuple[VertexId, ...], ...]:
        """For each clique (0-based), its vertices of clique degree 1 in token order.

        A token repeated inside one clique is one vertex and is listed once.
        """
        private: list[list[VertexId]] = [[] for _ in range(self.n)]
        for v, ix in self.incidence_map.items():
            if len(ix) == 1:
                private[ix[0] - 1].append(v)
        return tuple(tuple(sorted(p)) for p in private)

    @cached_property
    def _degree_table(self) -> tuple[tuple[int, ...], ...]:
        """Per clique (0-based), the count of its vertices of clique degree >= d at index d.

        The table behind the paper's two per-clique conditions in
        :mod:`efl.greedy`.  One pass over the core's incidence lists counts
        each clique's core vertices by clique degree, and suffix sums over
        the degree give the count for every d from 2 up.  Each row ends at
        index top + 1, top the largest clique degree (1 for a cover without
        core vertices), and that last entry is 0: no vertex has a larger
        degree.  Entries below 2 are not summed.
        """
        inc = self.core_incidence
        top = max(map(len, inc.values()), default=1)
        at_least = [[0] * (top + 2) for _ in range(self.n)]
        for ix in inc.values():
            for i in ix:
                at_least[i - 1][len(ix)] += 1
        for row in at_least:
            for d in range(top - 1, 1, -1):
                row[d] += row[d + 1]
        return tuple(map(tuple, at_least))

    @cached_property
    def validation(self) -> "ValidationReport":
        return validate(self)

    @property
    def is_valid(self) -> bool:
        return self.validation.ok


class Violation(NamedTuple):
    """One structured validation finding."""

    kind: str  # "clique-size" | "duplicate-vertex" | "shared-pair"
    cliques: tuple[int, ...]
    tokens: tuple[VertexId, ...] = ()
    message: str = ""


class ValidationReport(NamedTuple):
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


class DegreeProfile(NamedTuple):
    """Clique degrees of every vertex, aggregated."""

    degree_of: dict[VertexId, int]
    histogram: dict[int, int]
    max_degree: int


class CoreGraph(NamedTuple):
    """Subgraph induced by the vertices of clique degree greater than one.

    Two core vertices are adjacent exactly when their incidence lists meet,
    i.e. when some clique contains both.  Only the vertices and their
    incidence lists are stored; the edge list is derived on each read of
    ``edges``, which the exact search never reads, so a core that is refused
    for its size never builds it.
    """

    vertices: tuple[VertexId, ...]
    incidence: dict[VertexId, tuple[int, ...]]

    @property
    def edges(self) -> tuple[tuple[VertexId, VertexId], ...]:
        """Sorted pairs (u, v), u < v, of core vertices sharing a clique."""
        rows: dict[int, list[VertexId]] = {}
        for v in self.vertices:
            for c in self.incidence[v]:
                rows.setdefault(c, []).append(v)
        # core vertices inside one clique are pairwise adjacent; the union
        # over cliques is exactly the pairs with intersecting incidence lists
        return tuple(
            sorted(
                {
                    (group[a], group[b])
                    for group in rows.values()
                    for a in range(len(group))
                    for b in range(a + 1, len(group))
                }
            )
        )

    def adjacency(self) -> dict[VertexId, set[VertexId]]:
        adj: dict[VertexId, set[VertexId]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


def validate(inst: Instance) -> ValidationReport:
    """Check the clique-cover invariants, reporting every violation.

    Findings cover wrong clique sizes, tokens repeated inside a clique, and
    clique pairs sharing two or more vertices.  All offenders are listed, not
    just the first, so generator bugs surface completely.

    Sizes are decided without a set per clique: the incidence lists hold
    each clique's distinct tokens once, so when every clique lists n tokens
    their lengths sum to n*n exactly when none repeats.  Only on failure are
    the tokens of each clique counted.  Linearity reads the core's incidence
    lists (:attr:`Instance.core_incidence`): every shared vertex contributes
    the clique pairs of its list, and a pair listed twice shares two
    vertices.  So the cover is linear exactly when the list of all these
    pairs is as long as its set, which C-level calls decide.  Only when it
    is not does a ``Counter`` name the pairs listed more than once, and only
    those pairs are intersected, to name their shared tokens.
    """
    violations: list[Violation] = []
    n = inst.n
    cliques = inst.cliques
    places = sum(map(len, inst.incidence_map.values()))  # each clique's distinct tokens, summed
    shared = inst.core_incidence.values()
    pairs = list(chain.from_iterable(map(combinations, shared, repeat(2))))
    offending: list[tuple[int, int]] = []
    if len(pairs) != len(set(pairs)):
        offending = [pair for pair, count in Counter(pairs).items() if count > 1]
    if places != n * n or any(len(members) != n for members in cliques):
        for i, members in enumerate(cliques, start=1):
            seen: dict[VertexId, int] = {}
            for t in members:
                seen[t] = seen.get(t, 0) + 1
            if len(seen) != n:
                violations.append(
                    Violation(
                        kind="clique-size",
                        cliques=(i,),
                        message=f"clique {i} has {len(seen)} distinct vertices, expected {n}",
                    )
                )
            for t, count in seen.items():
                if count > 1:
                    violations.append(
                        Violation(
                            kind="duplicate-vertex",
                            cliques=(i,),
                            tokens=(t,),
                            message=f"clique {i} lists vertex '{t}' {count} times",
                        )
                    )
    for i, j in sorted(offending):
        toks = tuple(sorted(set(cliques[i - 1]).intersection(cliques[j - 1])))
        violations.append(
            Violation(
                kind="shared-pair",
                cliques=(i, j),
                tokens=toks,
                message=f"cliques {i},{j} share {len(toks)} vertices ({', '.join(toks)})",
            )
        )
    return ValidationReport(violations=tuple(violations))


def require_valid(inst: Instance) -> None:
    """Raise :class:`InvalidInstanceError` unless the instance validates."""
    report = inst.validation
    if not report.ok:
        summary = "; ".join(v.message for v in report.violations)
        raise InvalidInstanceError(summary)


# the ASCII control characters, each as ascii() writes it
_CONTROLS = {c: ascii(chr(c))[1:-1] for c in (*range(0x20), 0x7F)}


def _shown(text: str) -> str:
    """``text`` as an error message quotes it: each character outside
    printable ASCII (0x20..0x7e) escaped as ``ascii()`` writes it (``\\t``,
    ``\\x1b``, ``\\xe9``), so no control character reaches the terminal,
    and printable ASCII as it is.  The ASCII controls go through a table and
    the rest through the ``backslashreplace`` handler, which writes what
    ``ascii()`` writes."""
    return text.translate(_CONTROLS).encode("ascii", "backslashreplace").decode("ascii")


def _clique_error(tokens: Sequence[str], n: int, idx: int) -> Optional[str]:
    """Why ``tokens`` cannot be clique ``idx`` of ``.efl`` text of order n,
    or None when they can.

    The one clique-line rule of the format: exactly n tokens, each visible
    ASCII with no space, pairwise distinct, and a first token that does not
    start with ``#``, which would make the line a comment.  Checked in that
    order, the first token breaking a rule is named: an invalid one through
    :func:`_shown`, while one breaking a later rule is visible ASCII already.
    :func:`parse_instance` reports the rule on the line it read, and
    :func:`efl.export.serialize_instance` refuses a cover whose text would
    break it.
    """
    if len(tokens) != n:
        return f"clique {idx} has {len(tokens)} tokens, expected {n}"
    seen: set[str] = set()
    for t in tokens:
        if not t or " " in t or not (t.isascii() and t.isprintable()):
            return f"invalid token '{_shown(t)}' in clique {idx}"
        if t in seen:
            return f"duplicate token '{t}' in clique {idx}"
        seen.add(t)
    if tokens[0].startswith("#"):
        return f"first token '{tokens[0]}' in clique {idx} starts a comment"
    return None


def parse_instance(text: str, *, require_validity: bool = True) -> Instance:
    """Parse ``.efl`` text: a clique count line, then one clique per line.

    Blank lines and ``#`` comment lines are ignored; CRLF input is accepted.
    Grammar errors (a bad header, a wrong count of clique lines, or a clique
    line breaking the rule of :func:`_clique_error`) raise
    :class:`ParseError` naming the line; a refused header or token is quoted
    through :func:`_shown`, so no message carries a control character.  With
    ``require_validity`` the parsed cover must also satisfy the
    at-most-one-shared-vertex invariant.
    Each clique line is checked at once, by ``isascii`` and ``isprintable``
    on its joined tokens and the count of its distinct tokens; only a line
    failing that check is handed to the rule, to name its first bad token.
    """
    content: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()  # strip() also takes the "\r" of CRLF input
        if not line or line.startswith("#"):
            continue
        content.append((lineno, line))

    if not content:
        raise ParseError("empty input: expected a clique count line")
    header_line, header = content[0]
    # ASCII digits only: int() would also take a sign, '_' separators and
    # non-ASCII digits, none of which serialize_instance writes back
    if not (header.isascii() and header.isdigit()):
        raise ParseError(
            f"line {header_line}: expected a decimal clique count, got '{_shown(header)}'"
        )
    n = int(header)
    if n < 1:
        raise ParseError(f"line {header_line}: clique count must be positive, got {n}")

    body = content[1:]
    if len(body) != n:
        raise ParseError(f"expected {n} clique lines, found {len(body)}")

    cliques: list[tuple[str, ...]] = []
    for idx, (lineno, line) in enumerate(body, start=1):
        tokens = line.split()
        # str.split() leaves no empty or whitespace token and a kept line
        # does not start with "#", so the line keeps the rule when it holds n
        # distinct tokens of visible ASCII; both predicates hold for a string
        # iff for each character
        joined = "".join(tokens)
        if not (
            n == len(tokens) == len(set(tokens)) and joined.isascii() and joined.isprintable()
        ):
            raise ParseError(f"line {lineno}: {_clique_error(tokens, n, idx)}")
        cliques.append(tuple(tokens))

    inst = Instance(n, cliques)
    if require_validity:
        report = inst.validation
        if not report.ok:
            raise ParseError("; ".join(v.message for v in report.violations))
    return inst


def clique_degree(inst: Instance, v: VertexId) -> int:
    """Number of cliques containing v: the length of :func:`incidence`, whose
    :class:`UnknownVertexError` it raises for a token not in the cover."""
    return len(incidence(inst, v))


def incidence(inst: Instance, v: VertexId) -> list[int]:
    """Ascending 1-based indices of the cliques containing v."""
    try:
        return list(inst.incidence_map[v])
    except KeyError:
        raise UnknownVertexError(f"vertex '{v}' does not occur in the instance") from None


def shared_vertex(inst: Instance, i: int, j: int) -> Optional[VertexId]:
    """The unique vertex shared by cliques i and j, or None when disjoint.

    Read off the two clique tuples; no per-clique set is cached.
    """
    if i == j:
        raise ValueError("clique indices must differ")
    for k in (i, j):
        if not 1 <= k <= inst.n:
            raise IndexError(f"clique index {k} out of range 1..{inst.n}")
    shared = set(inst.cliques[i - 1]).intersection(inst.cliques[j - 1])
    if not shared:
        return None
    if len(shared) > 1:
        raise InvalidInstanceError(
            f"cliques {i},{j} share {len(shared)} vertices; instance is not a legal cover"
        )
    return next(iter(shared))


def core_subgraph(inst: Instance) -> CoreGraph:
    """The core graph: vertices of clique degree > 1, adjacency via shared cliques."""
    require_valid(inst)
    inc = inst.core_incidence
    return CoreGraph(vertices=tuple(sorted(inc)), incidence=inc)


def degree_profile(inst: Instance) -> DegreeProfile:
    """Clique degree of every vertex plus the degree histogram.

    The histogram counts the core's degrees; every other vertex has degree 1.
    """
    require_valid(inst)
    inc = inst.incidence_map
    core = inst.core_incidence
    histogram = Counter(map(len, core.values()))
    if len(inc) > len(core):
        histogram[1] = len(inc) - len(core)
    return DegreeProfile(
        degree_of=dict(zip(inc, map(len, inc.values()))),
        histogram=dict(sorted(histogram.items())),
        max_degree=max(histogram),
    )


def intersecting_pair_count(inst: Instance) -> int:
    """Count clique pairs (i < j) with a nonempty intersection.

    Two cliques meet exactly when some vertex lies in both, so the pairs are
    read off the core's incidence lists, each distinct pair counted once.
    """
    require_valid(inst)
    shared = inst.core_incidence.values()
    return len(set(chain.from_iterable(map(combinations, shared, repeat(2)))))
