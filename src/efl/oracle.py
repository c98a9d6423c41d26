"""Ground truth: proper-coloring verification, exact core chromatic number,
and the combinatorial identity and bound that every legal cover must satisfy.

The exact solver is deliberately independent of both coloring engines so that
their successes can be cross-checked against it.
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
    proper: bool
    conflicts: tuple[tuple[int, str, str, int], ...]
    colors_used: int
    max_color: int


def verify_proper(inst: Instance, coloring: Coloring) -> VerifyReport:
    """Check that every clique carries pairwise distinct colors.

    The coloring must be total on the instance's vertex universe.  Conflicts
    list every same-colored pair within a clique as (clique, u, v, color).
    """
    missing = [v for v in inst.vertices if v not in coloring]
    if missing:
        raise IncompleteColoringError(
            f"coloring is missing {len(missing)} vertices, e.g. '{missing[0]}'"
        )
    conflicts: list[tuple[int, str, str, int]] = []
    for i, members in enumerate(inst.clique_sets, start=1):
        by_color: dict[int, list[str]] = {}
        for v in sorted(members):
            by_color.setdefault(coloring[v], []).append(v)
        for color, group in sorted(by_color.items()):
            for a in range(len(group)):
                for b in range(a + 1, len(group)):
                    conflicts.append((i, group[a], group[b], color))
    used = {coloring[v] for v in inst.vertices}
    return VerifyReport(
        proper=not conflicts,
        conflicts=tuple(conflicts),
        colors_used=len(used),
        max_color=max(used),
    )


def _greedy_clique_size(order: list[str], adj: dict[str, set[str]]) -> int:
    by_degree = sorted(order, key=lambda v: (-len(adj[v]), v))
    clique: list[str] = []
    for v in by_degree:
        if all(v in adj[u] for u in clique):
            clique.append(v)
    return len(clique)


def _k_colorable(order: list[str], adj: dict[str, set[str]], k: int) -> bool:
    """Exhaustive saturation-ordered search for a proper k-coloring.

    Color symmetry is broken by never opening more than one fresh color at a
    time; the search is complete, so a False answer proves infeasibility.
    """
    neighbor_colors: dict[str, set[int]] = {v: set() for v in order}
    uncolored = set(order)

    def step(used: int) -> bool:
        if not uncolored:
            return True
        v = min(
            uncolored,
            key=lambda u: (-len(neighbor_colors[u]), -len(adj[u]), u),
        )
        limit = min(k, used + 1)
        for c in range(1, limit + 1):
            if c in neighbor_colors[v]:
                continue
            uncolored.discard(v)
            touched = []
            for u in adj[v]:
                if u in uncolored and c not in neighbor_colors[u]:
                    neighbor_colors[u].add(c)
                    touched.append(u)
            if step(max(used, c)):
                return True
            for u in touched:
                neighbor_colors[u].discard(c)
            uncolored.add(v)
        return False

    return step(0)


def chromatic_number_exact(core: CoreGraph, vertex_limit: int = 40) -> int:
    """Exact chromatic number of a core graph by branch and bound.

    Starting at a greedy clique's size, each candidate count k is closed by
    complete saturation-ordered search until one succeeds.  Once k reaches the
    DSATUR color count the search's first descent is DSATUR itself and
    succeeds without backtracking, so no separate upper bound is computed.
    Deterministic, and refuses cores above ``vertex_limit`` vertices.
    """
    order = list(core.vertices)
    if len(order) > vertex_limit:
        raise CoreSizeLimitError(
            f"core has {len(order)} vertices, above the limit {vertex_limit}"
        )
    if not order:
        return 0
    adj = core.adjacency()
    k = _greedy_clique_size(order, adj)
    while not _k_colorable(order, adj, k):
        k += 1
    return k


def is_n_colorable(inst: Instance, vertex_limit: int = 40) -> bool:
    """Whether the whole cover admits a proper n-coloring.

    Equivalent to the core being n-colorable: a proper n-coloring of the core
    leaves every clique with enough unused colors for its private vertices.
    """
    require_valid(inst)
    core = core_subgraph(inst)
    return chromatic_number_exact(core, vertex_limit) <= inst.n


class IdentityResult(NamedTuple):
    lhs: int
    rhs: int
    all_pairs_intersect: bool


def theorem_identity(inst: Instance) -> IdentityResult:
    """Sum of C(d,2) over core vertices versus the intersecting-pair count.

    The two sides count the same objects, so they agree on every legal cover;
    when every clique pair intersects the common value is n(n-1)/2.
    """
    require_valid(inst)
    profile = degree_profile(inst)
    lhs = sum(math.comb(d, 2) for d in profile.degree_of.values() if d > 1)
    rhs = intersecting_pair_count(inst)
    n = inst.n
    return IdentityResult(lhs=lhs, rhs=rhs, all_pairs_intersect=rhs == n * (n - 1) // 2)


@dataclass(frozen=True)
class CheckRow:
    m: int
    count: int
    weighted: int  # count * C(m,2)
    bound: int  # C(n,2)
    ok: bool


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    rows: tuple[CheckRow, ...]


def corollary_bound_check(inst: Instance) -> CheckReport:
    """At most C(n,2)/C(m,2) vertices of clique degree m, for every m >= 2.

    Checked in integer arithmetic as count * C(m,2) <= C(n,2).
    """
    require_valid(inst)
    profile = degree_profile(inst)
    n_pairs = math.comb(inst.n, 2)
    rows = []
    for m in range(2, profile.max_degree + 1):
        count = profile.histogram.get(m, 0)
        weighted = count * math.comb(m, 2)
        rows.append(
            CheckRow(m=m, count=count, weighted=weighted, bound=n_pairs, ok=weighted <= n_pairs)
        )
    return CheckReport(ok=all(r.ok for r in rows), rows=tuple(rows))
