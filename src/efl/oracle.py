"""Ground truth: proper-coloring verification, exact core chromatic number,
and the combinatorial identity and bound that every legal cover must satisfy.

The exact solver is deliberately independent of both coloring engines so that
their successes can be cross-checked against it.  It works on int bitmasks
over the core vertices, relabelled once so that bit p is the p-th vertex in
search order (degree descending, then token); the first vertex of a mask in
that order is its lowest set bit.  Three lower bounds (a greedy clique, the
largest clique row and the packing bound) and the color count of a certified
DSATUR coloring bracket χ; search runs only in the gap between them.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, NamedTuple

from .errors import CoreSizeLimitError, IncompleteColoringError
from .instance import (
    CoreGraph,
    Instance,
    core_subgraph,
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
    of its incidence map.  One pass reads the colors with ``coloring.get``
    into the set of colors used, so a ``defaultdict`` gains no key; only when
    that set holds None and some vertex is really absent are the missing
    vertices listed, to name the lexicographically first.  A vertex colored
    None is present, and the color check below raises ``TypeError`` for it.
    Colors start at 1: a color below 1 raises ``ValueError`` naming the
    least vertex that has one, so a proper report with ``max_color`` at most
    n certifies an n-coloring.  Conflicts list every same-colored pair
    within a clique as (clique, u, v, color), clique by clique, by ascending
    color and then token.  Only a clique whose colors repeat is
    de-duplicated, sorted and grouped, so a token listed twice in one clique
    is one vertex and never conflicts with itself.  The cover need not be
    valid: one whose cliques are all empty gets no conflicts,
    ``colors_used`` 0 and ``max_color`` 0.
    """
    inc = inst.incidence_map
    # .get reads an absent vertex as None, and never calls __missing__
    used = set(map(coloring.get, inc))
    if None in used and not all(map(coloring.__contains__, inc)):
        missing = [v for v in inc if v not in coloring]
        raise IncompleteColoringError(
            f"coloring is missing {len(missing)} vertices, e.g. '{min(missing)}'"
        )
    color_of = coloring.__getitem__
    if min(used, default=1) < 1:
        v = min(v for v in inc if coloring[v] < 1)
        raise ValueError(f"vertex '{v}' has color {coloring[v]}, below 1")
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
    return VerifyReport(
        conflicts=tuple(conflicts),
        colors_used=len(used),
        max_color=max(used, default=0),
    )


def _packing_bound(lists: list[tuple[int, ...]], row_count: int) -> int:
    """⌈|core| / α⌉, α the most core vertices whose clique lists fit in the rows.

    ``lists`` holds the clique list of every core vertex.  A color class
    holds pairwise non-adjacent core vertices, whose clique lists are
    pairwise disjoint, so its clique degrees sum to at most ``row_count``;
    the largest such class takes the smallest degrees first.
    """
    alpha = total = 0
    for d in sorted(map(len, lists)):
        total += d
        if total > row_count:
            break
        alpha += 1
    return -(-len(lists) // alpha)


def _k_colorable(adj: list[int], k: int) -> bool:
    """Exhaustive saturation-ordered search for a proper k-coloring.

    Bit p of a mask is the core vertex at search position p (see
    :func:`_search_setup`).  The next vertex has the most distinct colors
    among its neighbours, then the lowest position: the lowest set bit of the
    highest non-empty ``level[s]``, the mask of uncolored vertices with s
    neighbour colors.  ``near[c]`` masks the uncolored vertices with a
    neighbour of color c.  Colors are tried least first, and color symmetry
    is broken by never opening more than one fresh color at a time; the
    search is complete, so a False answer proves infeasibility.  Giving a
    vertex color c moves its uncolored neighbours outside ``near[c]`` up one
    level, and a failed branch moves them back.  A branch that leaves a
    vertex seeing all k colors fails without a call, as that vertex would be
    picked next and find no color.  The search nests one call per colored
    vertex; a core too large for the interpreter's recursion limit raises
    :class:`CoreSizeLimitError`.
    """
    level = [0] * (len(adj) + 1)
    level[0] = (1 << len(adj)) - 1
    near = [0] * (k + 1)

    def step(uncolored: int, used: int, top: int) -> bool:
        if not uncolored:
            return True
        while not level[top]:
            top -= 1
        bit = level[top] & -level[top]
        level[top] ^= bit
        uncolored ^= bit
        rest = adj[bit.bit_length() - 1] & uncolored
        for c in range(1, used + 2 if used < k else k + 1):
            seen = near[c]
            if seen & bit:
                continue
            newly = rest & ~seen
            near[c] = seen | rest
            s = top
            left = newly
            while left:
                moved = level[s] & left
                level[s] ^= moved
                level[s + 1] |= moved
                left ^= moved
                s -= 1
            if not level[top + 1]:
                if step(uncolored, c if c > used else used, top):
                    return True
            elif top + 1 < k and step(uncolored, c if c > used else used, top + 1):
                return True
            s = top
            left = newly
            while left:
                moved = level[s + 1] & left
                level[s + 1] ^= moved
                level[s] |= moved
                left ^= moved
                s -= 1
            near[c] = seen
        level[top] |= bit
        return False

    try:
        return step((1 << len(adj)) - 1, 0, 0)
    except RecursionError:
        raise CoreSizeLimitError(
            f"core has {len(adj)} vertices, too many to search within the "
            "interpreter's recursion limit"
        ) from None


def _dsatur(adj: list[int]) -> list[int]:
    """One DSATUR pass: the color (1, 2, ...) of each core vertex, by position.

    The rules are the search's: the next vertex has the most distinct colors
    among its neighbours, ties going to the lowest position, and takes the
    least color none of them has.  So its color count equals that of the
    search's first descent at any k at or above it.  ``level[s]`` masks the
    uncolored vertices with s neighbour colors, and the next vertex is the
    lowest set bit of the highest non-empty level; ``near[c]`` masks the
    vertices with a neighbour of color c.  The last entry of ``near`` is
    always empty, so the scan for the least free color stops there.
    """
    colors = [0] * len(adj)
    near = [0, 0]
    level = [0] * (len(adj) + 1)
    level[0] = uncolored = (1 << len(adj)) - 1
    top = 0
    while uncolored:
        while not level[top]:
            top -= 1
        bit = level[top] & -level[top]
        level[top] ^= bit
        uncolored ^= bit
        c = 1
        while near[c] & bit:
            c += 1
        if c == len(near) - 1:
            near.append(0)
        v = bit.bit_length() - 1
        colors[v] = c
        a = adj[v]
        newly = a & uncolored & ~near[c]
        near[c] |= a
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

    ``colors[p]`` is the color of the core vertex at search position p.
    Every vertex must have a color from 1 up, and the mask of its color
    class must miss its adjacency mask.  A coloring that fails raises
    ``RuntimeError``, naming the first position at fault; no uncertified
    bound is returned.
    """
    classes = [0] * (max(colors, default=0) + 1)
    for p, c in enumerate(colors):
        classes[c] |= 1 << p
    if classes[0]:
        raise RuntimeError("DSATUR coloring leaves a core vertex uncolored")
    for p, c in enumerate(colors):
        if classes[c] & adj[p]:
            raise RuntimeError(f"DSATUR coloring is not proper at search position {p}")
    return len(classes) - 1


def _search_setup(
    core: CoreGraph, vertex_limit: int
) -> tuple[list[int], list[int], tuple[int, ...]]:
    """The search order, adjacency masks in its labels and lower bounds on χ.

    A negative ``vertex_limit`` is an input error, raised as ``ValueError``
    before the size check, which comes before any mask is built.  The search
    order lists indices into ``core.vertices`` by degree descending, then
    token, and bit p of every mask is the p-th vertex in it, so "first in
    search order" is the lowest set bit.  The cover is linear, so a vertex's
    rows meet only at it and its degree is the sum over its rows of the other
    core vertices there.  A row mask holds the core vertices of one clique,
    which are pairwise adjacent, and a vertex's adjacency mask is the OR of
    its rows minus itself.  The bounds are a greedy clique taken in search
    order, the largest row and the packing bound; an empty core has none.
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
    lists = list(map(core.incidence.__getitem__, core.vertices))
    others: dict[int, int] = {}  # per clique, its core vertices but one
    for ix in lists:
        for c in ix:
            others[c] = others.get(c, -1) + 1
    get = others.__getitem__
    degree = [sum(map(get, ix)) for ix in lists]
    # a stable sort, so equal degrees keep token order
    order = sorted(range(count), key=degree.__getitem__, reverse=True)
    lists = list(map(lists.__getitem__, order))
    rows = dict.fromkeys(others, 0)
    bit = 1
    for ix in lists:
        for c in ix:
            rows[c] |= bit
        bit <<= 1
    adj = []
    clique = 0
    bit = 1
    for ix in lists:
        mask = 0
        for c in ix:
            mask |= rows[c]
        mask ^= bit
        if mask & clique == clique:
            clique |= bit
        adj.append(mask)
        bit <<= 1
    bounds = (clique.bit_count(), max(others.values()) + 1, _packing_bound(lists, len(rows)))
    return order, adj, bounds


def _bracket(core: CoreGraph, vertex_limit: int) -> tuple[list[int], int, int]:
    """The adjacency masks in search order and the bracket L <= χ <= U.

    L is the best of the lower bounds of :func:`_search_setup` (0 for an
    empty core), and U the color count of a DSATUR coloring, certified by
    :func:`_certified_count`.  Both exact decisions start here, so they
    refuse the same cores with the same errors.
    """
    _, adj, bounds = _search_setup(core, vertex_limit)
    return adj, max(bounds, default=0), _certified_count(adj, _dsatur(adj))


def chromatic_number_exact(core: CoreGraph, vertex_limit: int = 40) -> int:
    """Exact chromatic number of a core graph by branch and bound.

    Adjacency and search state are int bitmasks over the core vertices in
    search order.  The best of three lower bounds (greedy clique, largest
    row, packing) is L; the color count of a DSATUR coloring, certified
    proper, is U.  When L = U, χ is decided with no search.  Otherwise each k
    from L to U - 1 is closed by complete saturation-ordered search, and the
    first that succeeds is χ; if none does, χ = U.  Deterministic, and refuses
    cores above ``vertex_limit`` vertices before any edge is built; a core
    within the limit but too deep to search also raises
    :class:`CoreSizeLimitError`.
    """
    adj, lower, upper = _bracket(core, vertex_limit)
    for k in range(lower, upper):
        if _k_colorable(adj, k):
            return k
    return upper


def is_n_colorable(inst: Instance, vertex_limit: int = 40) -> bool:
    """Whether the whole cover admits a proper n-coloring.

    Equivalent to the core being n-colorable: a proper n-coloring of the core
    leaves every clique with enough unused colors for its private vertices.
    It reads the same bracket L <= χ <= U as :func:`chromatic_number_exact`:
    L above n answers no, U at most n answers yes, and only in between does
    one search with k = n decide.
    """
    require_valid(inst)
    adj, lower, upper = _bracket(core_subgraph(inst), vertex_limit)
    n = inst.n
    return lower <= n and (upper <= n or _k_colorable(adj, n))


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

    Checked in integer arithmetic as count * C(m,2) <= C(n,2).  The counts
    are a histogram of the core's clique degrees, read off its incidence
    lists; there is one row per m from 2 up to the top degree, and none for
    a cover without core vertices.
    """
    require_valid(inst)
    histogram = Counter(map(len, inst.core_incidence.values()))
    n_pairs = math.comb(inst.n, 2)
    return CheckReport(
        rows=tuple(
            CheckRow(m=m, count=histogram[m], bound=n_pairs)
            for m in range(2, max(histogram, default=1) + 1)
        )
    )
