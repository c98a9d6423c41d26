"""Ground truth: proper-coloring verification, exact core chromatic number,
and the combinatorial identity and bound that every legal cover must satisfy.

The exact solver is deliberately independent of both coloring engines so that
their successes can be cross-checked against it.  It works on int bitmasks
over the core vertices (bit i for ``core.vertices[i]``).  Three lower bounds (a
greedy clique, the largest clique row and the packing bound) and the color
count of a certified DSATUR coloring bracket χ; search runs only in the gap
between them.
"""

from __future__ import annotations

import math
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


class VerifyReport(NamedTuple):
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
        max_color=max(used, default=0),
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


def _dsatur(adj: list[int], by_degree: list[int]) -> list[int]:
    """One DSATUR pass: the color (1, 2, ...) of each core vertex.

    The rules are the search's: the next vertex has the most distinct colors
    among its neighbours, ties going to the first in ``by_degree``, and takes
    the least color none of them has.  So its color count equals that of the
    search's first descent at any k at or above it.  ``level[s]`` masks the
    uncolored vertices with s neighbour colors and ``near[c]`` the vertices
    with a neighbour of color c.  The last entry of ``near`` is always empty,
    so the scan for the least free color stops there.
    """
    colors = [0] * len(adj)
    near = [0, 0]
    level = [0] * (len(adj) + 1)
    level[0] = uncolored = (1 << len(adj)) - 1
    order = list(by_degree)
    top = 0
    while order:
        while not level[top]:
            top -= 1
        for v in order:
            if level[top] >> v & 1:
                break
        order.remove(v)
        level[top] ^= 1 << v
        uncolored ^= 1 << v
        c = 1
        while near[c] >> v & 1:
            c += 1
        if c == len(near) - 1:
            near.append(0)
        colors[v] = c
        newly = adj[v] & uncolored & ~near[c]
        near[c] |= adj[v]
        s = top
        while newly:
            moved = level[s] & newly
            level[s] ^= moved
            level[s + 1] |= moved
            newly ^= moved
            s -= 1
        if level[top + 1]:
            top += 1
    return colors


def _certified_count(adj: list[int], colors: list[int]) -> int:
    """The number of colors of a proper coloring, checked before it is trusted.

    Every vertex must have a color from 1 up, and the mask of its color class
    must miss its adjacency mask.  A coloring that fails raises
    ``RuntimeError``; no uncertified bound is returned.
    """
    classes = [0] * (max(colors, default=0) + 1)
    for v, c in enumerate(colors):
        classes[c] |= 1 << v
    if classes[0]:
        raise RuntimeError("DSATUR coloring leaves a core vertex uncolored")
    for v, c in enumerate(colors):
        if classes[c] & adj[v]:
            raise RuntimeError(f"DSATUR coloring is not proper at core vertex {v}")
    return len(classes) - 1


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

    Adjacency and search state are int bitmasks over the core vertices.  The
    best of three lower bounds (greedy clique, largest row, packing) is L; the
    color count of a DSATUR coloring, certified proper, is U.  When L = U, χ
    is decided with no search.  Otherwise each k from L to U - 1 is closed by
    complete saturation-ordered search, and the first that succeeds is χ; if
    none does, χ = U.  Deterministic, and refuses cores above
    ``vertex_limit`` vertices before any edge is built; a core within the
    limit but too deep to search also raises :class:`CoreSizeLimitError`.
    """
    adj, by_degree, bounds = _search_setup(core, vertex_limit)
    upper = _certified_count(adj, _dsatur(adj, by_degree))
    for k in range(max(bounds, default=0), upper):
        if _k_colorable(adj, by_degree, k):
            return k
    return upper


def is_n_colorable(inst: Instance, vertex_limit: int = 40) -> bool:
    """Whether the whole cover admits a proper n-coloring.

    Equivalent to the core being n-colorable: a proper n-coloring of the core
    leaves every clique with enough unused colors for its private vertices.
    A lower bound above n answers no, and a certified DSATUR coloring with at
    most n colors answers yes; only in between does one search with k = n
    decide.
    """
    require_valid(inst)
    adj, by_degree, bounds = _search_setup(core_subgraph(inst), vertex_limit)
    if max(bounds, default=0) > inst.n:
        return False
    if _certified_count(adj, _dsatur(adj, by_degree)) <= inst.n:
        return True
    return _k_colorable(adj, by_degree, inst.n)


class IdentityResult(NamedTuple):
    lhs: int
    rhs: int
    all_pairs_intersect: bool


def theorem_identity(inst: Instance) -> IdentityResult:
    """Sum of C(d,2) over core vertices versus the intersecting-pair count.

    The two sides count the same objects, so they agree on every legal cover;
    when every clique pair intersects the common value is n(n-1)/2.  The sum
    runs over the core only, as a private vertex adds C(1,2) = 0.  The right
    side counts distinct clique pairs through a set, not the C(d,2) terms, so
    the check is not circular.
    """
    require_valid(inst)
    lhs = sum(math.comb(len(ix), 2) for ix in inst.core_incidence.values())
    rhs = intersecting_pair_count(inst)
    n = inst.n
    return IdentityResult(lhs=lhs, rhs=rhs, all_pairs_intersect=rhs == n * (n - 1) // 2)


class CheckRow(NamedTuple):
    m: int
    count: int
    bound: int  # C(n,2)

    @property
    def weighted(self) -> int:
        return self.count * math.comb(self.m, 2)

    @property
    def ok(self) -> bool:
        return self.weighted <= self.bound


class CheckReport(NamedTuple):
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
