"""Greedy degree-ordered coloring and the paper's two per-clique conditions.

The greedy procedure colors core vertices in non-increasing clique degree,
giving each the least color unused in all of its cliques so far; it is the
matrix engine's coloring loop, :func:`efl.matrix_engine.color_cover`, with
repair off.  The paper's two conditions bound the same count, a clique's
vertices of clique degree >= d: SY1 at d = 2 by sqrt(n), SY2 at every d in
2..n by ceil((n+d-1)/d) (the statement rule; the proof rule bounds by
ceil(n/d)).  Every checker reads that count from one table, built once per
instance from the core's incidence lists.  SY1 or the proof rule is what the
tests find sufficient for the greedy.  The statement rule is not: it holds
on ``tests/data/sy2_statement_n6.efl`` and the greedy fails there, while the
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
    """One condition's per-clique rows; ``holds``, like each row's ``ok``, is
    derived from them."""

    per_clique: tuple[CliqueCount, ...]
    parameter: str
    first_failing_d: Optional[int] = None

    @property
    def holds(self) -> bool:
        return all(row.ok for row in self.per_clique)


def run_greedy(inst: Instance) -> ColoringResult:
    """Color core vertices greedily in non-increasing clique degree.

    This is the matrix method's coloring loop with repair off: ties break on
    the lexicographically smallest incidence tuple, and the run fails with
    ``no-color-available`` at the first vertex that finds all n colors used
    in its cliques; otherwise the core coloring is extended to a verified
    total one.  The result carries no trace; its matrix is derived like the
    engine's and, on failure, shows the core colored up to the stuck vertex.
    """
    return color_cover(inst, None, None)


def _counts(table: tuple[tuple[int, ...], ...], d: int, bound: int) -> tuple[CliqueCount, ...]:
    """Each clique's entry of ``table`` at d, against ``bound``."""
    return tuple(CliqueCount(i, row[d], bound) for i, row in enumerate(table, start=1))


def check_sy1(inst: Instance) -> HypothesisReport:
    """At most sqrt(n) vertices of clique degree > 1 in every clique.

    The count is the degree table's entry at d = 2, the one SY2 reads at
    d = 2.  The comparison count <= sqrt(n) is evaluated exactly as
    count <= isqrt(n), avoiding floating point at perfect-square boundaries.
    """
    require_valid(inst)
    return HypothesisReport(_counts(inst._degree_table, 2, math.isqrt(inst.n)), "sy1")


def _sy2_bound(n: int, d: int, bound_rule: str) -> int:
    """The SY2 bound at d: ceil((n+d-1)/d) for the statement rule, ceil(n/d) for the proof rule."""
    if bound_rule == "statement":
        return (n + 2 * d - 2) // d
    if bound_rule == "proof":
        return (n + d - 1) // d
    raise ValueError(f"unknown bound_rule '{bound_rule}'")


def check_sy2(inst: Instance, d: int, bound_rule: str = "statement") -> HypothesisReport:
    """At most ceil((n+d-1)/d) vertices of clique degree >= d in every clique.

    ``bound_rule="proof"`` switches to the tighter ceil(n/d) variant.  The
    counts are the degree table's entries at d; a d above the top clique
    degree reads the table's last entry, 0.  An invalid cover raises
    :class:`InvalidInstanceError` first; then a d outside 2..n, and then an
    unknown rule, raise ``ValueError``.
    """
    require_valid(inst)
    n = inst.n
    if not 2 <= d <= n:
        raise ValueError(f"d must lie in 2..{n}, got {d}")
    bound = _sy2_bound(n, d, bound_rule)
    table = inst._degree_table
    rows = _counts(table, min(d, len(table[0]) - 1), bound)
    return HypothesisReport(rows, f"sy2 d={d} ({bound_rule})")


def check_sy2_all(inst: Instance, bound_rule: str = "statement") -> HypothesisReport:
    """Conjunction of :func:`check_sy2` over d = 2..n; records the first failing d.

    One degree table gives the count for every d.  Only the first failing d
    gets its per-clique rows.  No d above the top clique degree can fail, so
    a cover without core vertices holds at every d.  An unknown
    ``bound_rule`` raises ``ValueError`` before any d, so also for n = 1.
    """
    require_valid(inst)
    n = inst.n
    _sy2_bound(n, 2, bound_rule)
    parameter = f"sy2 all d in 2..{n} ({bound_rule})"
    table = inst._degree_table
    for d in range(2, len(table[0]) - 1):
        bound = _sy2_bound(n, d, bound_rule)
        if any(row[d] > bound for row in table):
            return HypothesisReport(_counts(table, d, bound), parameter, first_failing_d=d)
    return HypothesisReport(per_clique=(), parameter=parameter)
