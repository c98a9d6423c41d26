"""Ground truth: proper-coloring verification, exact core chromatic number,
and the combinatorial identity and bound that every legal cover must satisfy.

The exact solver is deliberately independent of both coloring engines so that
their successes can be cross-checked against it.  It works on int bitmasks
over the core vertices (bit i for ``core.vertices[i]``) and starts its search
at the best of three lower bounds: a greedy clique, the largest clique row and
the packing bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, NamedTuple

from .errors import CoreSizeLimitError, IncompleteColoringError
from .instance import (
    CoreGraph,
    Instance,
    core_subgraph,
    degree_profile,
    intersecting_pair_count,
    require_valid,
)

Coloring = Dict[str, int]


@dataclass(frozen=True)
class VerifyReport:
    conflicts: tuple[tuple[int, str, str, int], ...]
    colors_used: int
    max_color: int

    @property
    def proper(self) -> bool:
        return not self.conflicts


def verify_proper(inst: Instance, coloring: Coloring) -> VerifyReport:
    """Check that every clique carries pairwise distinct colors.

    The coloring must be total on the instance's vertex universe, the keys
    of its incidence map; only for a coloring that is not are the missing
    vertices listed, to name the lexicographically first.  Conflicts list every
    same-colored pair within a clique as (clique, u, v, color), clique by
    clique, by ascending color and then token.  Only a clique whose colors
    repeat is de-duplicated, sorted and grouped, so a token listed twice in
    one clique is one vertex and never conflicts with itself.
    """
    inc = inst.incidence_map
    if not all(map(coloring.__contains__, inc)):
        missing = [v for v in inc if v not in coloring]
        raise IncompleteColoringError(
            f"coloring is missing {len(missing)} vertices, e.g. '{min(missing)}'"
        )
    color_of = coloring.__getitem__
    conflicts: list[tuple[int, str, str, int]] = []
    for i, members in enumerate(inst.cliques, start=1):
        if len(set(map(color_of, members))) == len(members):
            continue
        by_color: dict[int, list[str]] = {}
        for v in sorted(set(members)):
            by_color.setdefault(coloring[v], []).append(v)
        for color, group in sorted(by_color.items()):
            for a in range(len(group)):
                for b in range(a + 1, len(group)):
                    conflicts.append((i, group[a], group[b], color))
    used = set(map(color_of, inc))
    return VerifyReport(
        conflicts=tuple(conflicts),
        colors_used=len(used),
        max_color=max(used),
    )


def _core_masks(core: CoreGraph) -> tuple[list[int], list[int]]:
    """Row masks and adjacency masks, bit i for ``core.vertices[i]``.

    A row mask holds the core vertices of one clique, which are pairwise
    adjacent; a vertex's adjacency mask is the OR of its rows minus itself.
    """
    rows: dict[int, int] = {}
    for i, v in enumerate(core.vertices):
        for c in core.incidence[v]:
            rows[c] = rows.get(c, 0) | 1 << i
    adj = []
    for i, v in enumerate(core.vertices):
        mask = 0
        for c in core.incidence[v]:
            mask |= rows[c]
        adj.append(mask & ~(1 << i))
    return list(rows.values()), adj


def _greedy_clique_size(adj: list[int], by_degree: list[int]) -> int:
    clique = 0
    for v in by_degree:
        if adj[v] & clique == clique:
            clique |= 1 << v
    return clique.bit_count()


def _packing_bound(core: CoreGraph, row_count: int) -> int:
    """⌈|core| / α⌉, α the most core vertices whose clique lists fit in the rows.

    A color class holds pairwise non-adjacent core vertices, whose clique
    lists are pairwise disjoint, so its degrees sum to at most ``row_count``;
    the largest such class takes the smallest degrees first.
    """
    alpha = total = 0
    for d in sorted(len(core.incidence[v]) for v in core.vertices):
        total += d
        if total > row_count:
            break
        alpha += 1
    return -(-len(core.vertices) // alpha)


def _k_colorable(adj: list[int], by_degree: list[int], k: int) -> bool:
    """Exhaustive saturation-ordered search for a proper k-coloring.

    The next vertex has the most distinct colors among its neighbours, then
    the highest degree, then the least token (``by_degree`` lists vertices by
    degree, then token).  Colors are tried least first, and color symmetry is
    broken by never opening more than one fresh color at a time; the search
    is complete, so a False answer proves infeasibility.  Bit c of ``seen[u]``
    marks color c at a colored neighbour of u.  The search nests one call per
    colored vertex; a core too large for the interpreter's recursion limit
    raises :class:`CoreSizeLimitError`.
    """
    seen = [0] * len(adj)
    saturation = [0] * len(adj)

    def step(uncolored: int, used: int) -> bool:
        if not uncolored:
            return True
        best = -1
        v = 0
        for u in by_degree:
            if uncolored >> u & 1 and saturation[u] > best:
                v, best = u, saturation[u]
        uncolored ^= 1 << v
        free = ~seen[v] & ((2 << min(k, used + 1)) - 2)
        while free:
            bit = free & -free
            free ^= bit
            touched = []
            rest = adj[v] & uncolored
            while rest:
                low = rest & -rest
                rest ^= low
                u = low.bit_length() - 1
                if not seen[u] & bit:
                    seen[u] |= bit
                    saturation[u] += 1
                    touched.append(u)
            if step(uncolored, max(used, bit.bit_length() - 1)):
                return True
            for u in touched:
                seen[u] ^= bit
                saturation[u] -= 1
        return False

    try:
        return step((1 << len(adj)) - 1, 0)
    except RecursionError:
        raise CoreSizeLimitError(
            f"core has {len(adj)} vertices, too many to search within the "
            "interpreter's recursion limit"
        ) from None


def _search_setup(
    core: CoreGraph, vertex_limit: int
) -> tuple[list[int], list[int], tuple[int, ...]]:
    """Adjacency masks, the search order and lower bounds on χ, after the limit check.

    A negative ``vertex_limit`` is an input error, raised as ``ValueError``
    before the size check.  The bounds are a greedy clique, the largest row
    (the core vertices of one clique) and the packing bound; an empty core has
    none.
    """
    if vertex_limit < 0:
        raise ValueError("vertex_limit must be at least 0")
    count = len(core.vertices)
    if count > vertex_limit:
        raise CoreSizeLimitError(
            f"core has {count} vertices, above the limit {vertex_limit}"
        )
    if not count:
        return [], [], ()
    rows, adj = _core_masks(core)
    by_degree = sorted(range(count), key=lambda v: -adj[v].bit_count())
    bounds = (
        _greedy_clique_size(adj, by_degree),
        max(row.bit_count() for row in rows),
        _packing_bound(core, len(rows)),
    )
    return adj, by_degree, bounds


def chromatic_number_exact(core: CoreGraph, vertex_limit: int = 40) -> int:
    """Exact chromatic number of a core graph by branch and bound.

    Adjacency and search state are int bitmasks over the core vertices.
    Starting at the best of three lower bounds (greedy clique, largest row,
    packing), each candidate count k is closed by complete saturation-ordered
    search until one succeeds.  Once k reaches the DSATUR color count the
    search's first descent is DSATUR itself and succeeds without
    backtracking, so no separate upper bound is computed.  Deterministic, and
    refuses cores above ``vertex_limit`` vertices before any edge is built;
    a core within the limit but too deep to search also raises
    :class:`CoreSizeLimitError`.
    """
    adj, by_degree, bounds = _search_setup(core, vertex_limit)
    k = max(bounds, default=0)
    while not _k_colorable(adj, by_degree, k):
        k += 1
    return k


def is_n_colorable(inst: Instance, vertex_limit: int = 40) -> bool:
    """Whether the whole cover admits a proper n-coloring.

    Equivalent to the core being n-colorable: a proper n-coloring of the core
    leaves every clique with enough unused colors for its private vertices.
    A lower bound above n answers no; otherwise one search with k = n decides.
    """
    require_valid(inst)
    adj, by_degree, bounds = _search_setup(core_subgraph(inst), vertex_limit)
    if max(bounds, default=0) > inst.n:
        return False
    return _k_colorable(adj, by_degree, inst.n)


class IdentityResult(NamedTuple):
    lhs: int
    rhs: int
    all_pairs_intersect: bool


def theorem_identity(inst: Instance) -> IdentityResult:
    """Sum of C(d,2) over core vertices versus the intersecting-pair count.

    The two sides count the same objects, so they agree on every legal cover;
    when every clique pair intersects the common value is n(n-1)/2.  The sum
    runs over all vertices, as a private vertex adds C(1,2) = 0.  The right
    side counts distinct clique pairs, not the C(d,2) terms, so the check is
    not circular.
    """
    require_valid(inst)
    lhs = sum(math.comb(len(ix), 2) for ix in inst.incidence_map.values())
    rhs = intersecting_pair_count(inst)
    n = inst.n
    return IdentityResult(lhs=lhs, rhs=rhs, all_pairs_intersect=rhs == n * (n - 1) // 2)


@dataclass(frozen=True)
class CheckRow:
    m: int
    count: int
    bound: int  # C(n,2)

    @property
    def weighted(self) -> int:
        return self.count * math.comb(self.m, 2)

    @property
    def ok(self) -> bool:
        return self.weighted <= self.bound


@dataclass(frozen=True)
class CheckReport:
    rows: tuple[CheckRow, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)


def corollary_bound_check(inst: Instance) -> CheckReport:
    """At most C(n,2)/C(m,2) vertices of clique degree m, for every m >= 2.

    Checked in integer arithmetic as count * C(m,2) <= C(n,2).
    """
    require_valid(inst)
    profile = degree_profile(inst)
    n_pairs = math.comb(inst.n, 2)
    return CheckReport(
        rows=tuple(
            CheckRow(m=m, count=profile.histogram.get(m, 0), bound=n_pairs)
            for m in range(2, profile.max_degree + 1)
        )
    )
