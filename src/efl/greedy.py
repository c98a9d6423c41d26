"""Greedy degree-ordered coloring and the two sufficient-condition checkers.

The greedy procedure colors core vertices in non-increasing clique degree,
giving each the least color unused in all of its cliques so far; it runs the
matrix engine's coloring loop with repair switched off.  The two
checkers test the per-clique core-vertex counts that guarantee this greedy
succeeds: at most sqrt(n) core vertices per clique, or, for every d in 2..n,
at most ceil((n+d-1)/d) vertices of clique degree >= d per clique.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .instance import Instance, require_valid
from .matrix_engine import ColoringResult, color_cover


@dataclass(frozen=True)
class CliqueCount:
    clique: int
    count: int
    bound: int

    @property
    def ok(self) -> bool:
        return self.count <= self.bound


@dataclass(frozen=True)
class HypothesisReport:
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
    """Each clique's count of vertices of clique degree >= ``min_degree``, against ``bound``."""
    counts = [0] * inst.n
    for ix in inst.incidence_map.values():
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


def check_sy2(inst: Instance, d: int, bound_rule: str = "statement") -> HypothesisReport:
    """At most ceil((n+d-1)/d) vertices of clique degree >= d in every clique.

    ``bound_rule="proof"`` switches to the tighter ceil(n/d) variant.
    """
    require_valid(inst)
    n = inst.n
    if not 2 <= d <= n:
        raise ValueError(f"d must lie in 2..{n}, got {d}")
    if bound_rule == "statement":
        bound = (n + 2 * d - 2) // d  # ceil((n+d-1)/d)
    elif bound_rule == "proof":
        bound = (n + d - 1) // d  # ceil(n/d)
    else:
        raise ValueError(f"unknown bound_rule '{bound_rule}'")
    return _per_clique_report(inst, d, bound, f"sy2 d={d} ({bound_rule})")


def check_sy2_all(inst: Instance, bound_rule: str = "statement") -> HypothesisReport:
    """Conjunction of :func:`check_sy2` over d = 2..n; records the first failing d."""
    require_valid(inst)
    parameter = f"sy2 all d in 2..{inst.n} ({bound_rule})"
    for d in range(2, inst.n + 1):
        report = check_sy2(inst, d, bound_rule)
        if not report.holds:
            return HypothesisReport(report.per_clique, parameter, first_failing_d=d)
    return HypothesisReport(per_clique=(), parameter=parameter)
