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
from typing import Collection, Iterable, NamedTuple, Optional, Sequence

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
    ``private_members``, the validation report, the degree table of the
    paper's two conditions and the core's processing order
    (``_core_order``), which the greedy and the matrix engine share.  No
    call writes anything else to an instance.
    A copy or a pickle carries the views cached so far.
    """

    def __init__(self, n: int, cliques: Iterable[Iterable[VertexId]]):
        if n < 1:
            raise ValueError(f"clique count must be positive, got {n}")
        normalized = tuple(map(tuple, cliques))
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
        iterating the map does not depend on string hashing.  The map makes
        one ``setdefault`` call per token and builds a new tuple only when a
        token turns up in a new clique; a token repeated in one clique
        counts once.
        """
        found: dict[VertexId, tuple[int, ...]] = {}
        setdefault = found.setdefault
        for i, members in enumerate(self.cliques, start=1):
            one = (i,)
            for token in members:
                ix = setdefault(token, one)
                # a token new in clique i was given ``one``; one repeated
                # in clique i already ends with i
                if ix is not one and ix[-1] != i:
                    found[token] = ix + one
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
    def _core_order(self) -> tuple[tuple, ...]:
        """The core in the coloring loop's order: ``(by_rank, rank_ix, split, order)``.

        ``by_rank`` is the core (:attr:`core_incidence`) sorted by incidence
        tuple, a vertex's rank its position there; ``rank_ix[r]`` is rank
        r's incidence tuple, the very tuple of :attr:`core_incidence`, and
        ``split[r]`` that tuple split into ``(a, b, rest)``, ``rest`` empty
        for a vertex in two cliques.  ``order`` is the ranks in placement
        order, a stable sort by descending clique degree, so ties keep
        incidence order.  Read by :func:`efl.matrix_engine.color_cover`, so
        the greedy and the engine on one instance sort and split once.
        """
        inc = self.core_incidence
        by_rank = tuple(sorted(inc, key=inc.__getitem__))
        rank_ix = tuple(map(inc.__getitem__, by_rank))
        # every core vertex meets at least two rows
        split = tuple([(ix[0], ix[1], ix[2:]) for ix in rank_ix])
        degrees = list(map(len, rank_ix))
        order = tuple(sorted(range(len(degrees)), key=degrees.__getitem__, reverse=True))
        return by_rank, rank_ix, split, order

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

    Two core vertices are adjacent exactly when some clique contains both.
    Only the vertices and their incidence lists are stored; ``edges`` and
    :meth:`adjacency` are read off the rows on each call, from the core
    vertices of each clique (:meth:`_rows`).  The exact search reads
    neither, so a core that is refused for its size never builds them.

    Both assume a linear cover, as :func:`core_subgraph` builds it: two
    vertices then share at most one row, so each adjacent pair is listed
    once, with no set.  A hand-built ``CoreGraph`` whose vertices share two
    rows lists their pair once for each.
    """

    vertices: tuple[VertexId, ...]
    incidence: dict[VertexId, tuple[int, ...]]

    def _rows(self) -> dict[int, list[VertexId]]:
        """For each clique holding a core vertex, its core vertices in token order."""
        rows: dict[int, list[VertexId]] = {}
        for v in self.vertices:
            for c in self.incidence[v]:
                rows.setdefault(c, []).append(v)
        return rows

    @property
    def edges(self) -> tuple[tuple[VertexId, VertexId], ...]:
        """Sorted pairs (u, v), u < v, of core vertices sharing a clique."""
        groups = self._rows().values()
        return tuple(sorted(chain.from_iterable(map(combinations, groups, repeat(2)))))

    def adjacency(self) -> dict[VertexId, set[VertexId]]:
        """Each core vertex's neighbours: the other core vertices of its rows."""
        rows = self._rows()
        return {
            v: set().union(*map(rows.__getitem__, self.incidence[v])) - {v}
            for v in self.vertices
        }


def _clique_pairs(shared: Collection[tuple[int, ...]]) -> list[tuple[int, int]]:
    """The clique pairs (i < j) of every incidence tuple in ``shared``, with
    repeats, each tuple holding two cliques or more in ascending order.

    A tuple of two cliques is already its one pair, so only the tuples of
    three cliques or more go through ``combinations``, and none does when
    every vertex lies in two cliques, as in a dense cover.
    """
    pairs = [ix for ix in shared if len(ix) == 2]
    if len(pairs) < len(shared):
        larger = [ix for ix in shared if len(ix) > 2]
        pairs.extend(chain.from_iterable(map(combinations, larger, repeat(2))))
    return pairs


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
    the clique pairs of its list, a vertex in two cliques its tuple as it
    is and only a longer list through ``combinations``
    (:func:`_clique_pairs`), and a pair listed twice shares two vertices.
    So the cover is linear exactly when the list of all these pairs is as
    long as its set.  Only when it is not does a ``Counter`` name the pairs
    listed more than once, and only those pairs are intersected, to name
    their shared tokens.
    """
    violations: list[Violation] = []
    n = inst.n
    cliques = inst.cliques
    places = sum(map(len, inst.incidence_map.values()))  # each clique's distinct tokens, summed
    pairs = _clique_pairs(inst.core_incidence.values())
    offending: list[tuple[int, int]] = []
    if len(pairs) != len(set(pairs)):
        offending = [pair for pair, count in Counter(pairs).items() if count > 1]
    if places != n * n or set(map(len, cliques)) != {n}:
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


# the bytes of canonical text: visible ASCII, and the space, tab, CR and LF
# that are the only whitespace both strip() and split() drop there
_CANON = bytes(range(0x21, 0x7F)) + b" \t\r\n"


def parse_instance(text: str, *, require_validity: bool = True) -> Instance:
    """Parse ``.efl`` text: a clique count line, then one clique per line.

    Blank lines and ``#`` comment lines are ignored; CRLF input is accepted.
    Grammar errors (a bad header, a wrong count of clique lines, or a clique
    line breaking the rule of :func:`_clique_error`) raise
    :class:`ParseError` naming the line; a refused header or token is quoted
    through :func:`_shown`, so no message carries a control character.  A
    count that differs from the number of clique lines is named as a fault
    of the header's line.  The count is never read by ``int()``, so its
    length meets no digit limit.  With ``require_validity`` the parsed cover
    must also satisfy the at-most-one-shared-vertex invariant.

    Two paths read the text and build the same cover with the same
    messages.  Canonical text, as :func:`efl.export.serialize_instance`
    writes it, is read by whole-text checks: it is visible ASCII, spaces,
    tabs and line ends with no ``#``, every non-blank line is split at
    once, and it is taken when its first line is a single count, without
    leading zeros, equal to the number of the other lines, each of which
    holds that many distinct tokens.  Any other text, and every text
    breaking a rule, goes through the per-line reader
    (:func:`_checked_cliques`), which writes every error message.
    """
    canonical = text.isascii() and "#" not in text and not text.encode().translate(None, _CANON)
    rows = list(filter(None, map(str.split, text.split("\n")))) if canonical else []
    cliques = rows[1:]
    n = len(cliques)
    if not (
        cliques
        and rows[0] == [str(n)]
        and set(map(len, cliques)) == {n} == set(map(len, map(set, cliques)))
    ):
        cliques = _checked_cliques(text)
    inst = Instance(len(cliques), cliques)
    if require_validity:
        report = inst.validation
        if not report.ok:
            raise ParseError("; ".join(v.message for v in report.violations))
    return inst


def _checked_cliques(text: str) -> list[list[str]]:
    """The cliques of ``.efl`` text, each line checked on its own, or the
    :class:`ParseError` of the first fault.

    Each clique line is checked at once, by ``isascii`` and ``isprintable``
    on its joined tokens and the count of its distinct tokens; only a line
    failing that check is handed to the rule, to name its first bad token.
    The count is compared as a digit string with its leading zeros dropped,
    which is how ``str(int(...))`` writes it.
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
    count = header.lstrip("0")
    if not count:
        raise ParseError(f"line {header_line}: clique count must be positive, got 0")

    body = content[1:]
    n = len(body)
    if count != str(n):
        raise ParseError(f"line {header_line}: expected {count} clique lines, found {n}")

    cliques: list[list[str]] = []
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
        cliques.append(tokens)
    return cliques


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
    read off the core's incidence lists by the pair rule of :func:`validate`
    (:func:`_clique_pairs`), each distinct pair counted once.
    """
    require_valid(inst)
    return len(set(_clique_pairs(inst.core_incidence.values())))
