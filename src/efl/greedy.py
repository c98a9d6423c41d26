"""Greedy degree-ordered coloring and the paper's two per-clique conditions.

The greedy procedure colors core vertices in non-increasing clique degree,
giving each the least color unused in all of its cliques so far; it runs the
matrix engine's coloring loop with repair switched off.  The two checkers
test per-clique core-vertex counts: at most sqrt(n) core vertices per clique
(SY1), or, for every d in 2..n, at most ceil((n+d-1)/d) vertices of clique
degree >= d per clique (SY2, the statement rule; the proof rule bounds by
ceil(n/d)).  SY1 or the proof rule is what the tests find sufficient for the
greedy.  The statement rule is not: it holds on
``tests/data/sy2_statement_n6.efl`` and the greedy fails there, while the
matrix engine colors it.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .instance import Instance, require_valid
from .matrix_engine import ColoringResult, color_cover


class CliqueCount(NamedTuple):
    clique: int
    count: int
    bound: int

    @property
    def ok(self) -> bool:
        return self.count <= self.bound


class HypothesisReport(NamedTuple):
    per_clique: tuple[CliqueCount, ...]
    parameter: str
    first_failing_d: Optional[int] = None

    @property
    def holds(self) -> bool:
        return all(row.ok for row in self.per_clique)


def run_greedy(inst: Instance) -> ColoringResult:
    """Color core vertices greedily in non-increasing clique degree.

    This is the matrix method's loop with repair switched off: ties break on
    the lexicographically smallest incidence tuple, and the run fails with
    ``no-color-available`` when some vertex finds all n colors used in its
    cliques; otherwise the core coloring is extended to a verified total one.
    The result carries no trace; its matrix is derived like the engine's.
    """
    return color_cover(inst, None, None)


def _per_clique_report(
    inst: Instance, min_degree: int, bound: int, parameter: str
) -> HypothesisReport:
    """Each clique's count of vertices of clique degree >= ``min_degree`` (at
    least 2, so only the core is read), against ``bound``."""
    counts = [0] * inst.n
    for ix in inst.core_incidence.values():
        if len(ix) >= min_degree:
            for i in ix:
                counts[i - 1] += 1
    rows = tuple(CliqueCount(i, c, bound) for i, c in enumerate(counts, start=1))
    return HypothesisReport(per_clique=rows, parameter=parameter)


def check_sy1(inst: Instance) -> HypothesisReport:
    """At most sqrt(n) vertices of clique degree > 1 in every clique.

    The comparison count <= sqrt(n) is evaluated exactly as count <= isqrt(n),
    avoiding floating point at perfect-square boundaries.
    """
    require_valid(inst)
    return _per_clique_report(inst, 2, math.isqrt(inst.n), "sy1")


def _sy2_bound(n: int, d: int, bound_rule: str) -> int:
    """The SY2 bound at d: ceil((n+d-1)/d) for the statement rule, ceil(n/d) for the proof rule."""
    if bound_rule == "statement":
        return (n + 2 * d - 2) // d
    if bound_rule == "proof":
        return (n + d - 1) // d
    raise ValueError(f"unknown bound_rule '{bound_rule}'")


def check_sy2(inst: Instance, d: int, bound_rule: str = "statement") -> HypothesisReport:
    """At most ceil((n+d-1)/d) vertices of clique degree >= d in every clique.

    ``bound_rule="proof"`` switches to the tighter ceil(n/d) variant.
    """
    require_valid(inst)
    n = inst.n
    if not 2 <= d <= n:
        raise ValueError(f"d must lie in 2..{n}, got {d}")
    bound = _sy2_bound(n, d, bound_rule)
    return _per_clique_report(inst, d, bound, f"sy2 d={d} ({bound_rule})")


def check_sy2_all(inst: Instance, bound_rule: str = "statement") -> HypothesisReport:
    """Conjunction of :func:`check_sy2` over d = 2..n; records the first failing d.

    One pass over the core's incidence lists counts each clique's core
    vertices by clique degree, and suffix sums over the degree give the count
    for every d.  Only the first failing d gets its per-clique rows.  A cover
    without core vertices has top degree 1, and every d holds.  An unknown
    ``bound_rule`` raises ``ValueError`` before any d, so also for n = 1.
    """
    require_valid(inst)
    n = inst.n
    _sy2_bound(n, 2, bound_rule)
    parameter = f"sy2 all d in 2..{n} ({bound_rule})"
    inc = inst.core_incidence
    top = max(map(len, inc.values()), default=1)
    # at_least[i - 1][d]: vertices of clique degree >= d in clique i
    at_least = [[0] * (top + 2) for _ in range(n)]
    for ix in inc.values():
        for i in ix:
            at_least[i - 1][len(ix)] += 1
    for row in at_least:
        for d in range(top - 1, 1, -1):
            row[d] += row[d + 1]
    for d in range(2, n + 1):
        bound = _sy2_bound(n, d, bound_rule)
        if d > top:
            break  # no clique has a vertex of clique degree >= d
        if any(row[d] > bound for row in at_least):
            rows = tuple(CliqueCount(i, row[d], bound) for i, row in enumerate(at_least, start=1))
            return HypothesisReport(rows, parameter, first_failing_d=d)
    return HypothesisReport(per_clique=(), parameter=parameter)
