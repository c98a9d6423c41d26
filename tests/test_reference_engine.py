"""The coloring loop and the DOT writer against their reference copies.

``tests/support.py`` keeps the loop that tested every free color through a
helper call, on the earlier dict rows, and the DOT writer that joined one
line per edge run.  The
library must give the same colors, failure reason and trace, with repair off,
under small budgets and under the default one, traced and untraced, and the
same DOT text or refusal.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efl.errors import EflError
from efl.export import export_dot
from efl.generators import gen_dense
from efl.instance import Instance, parse_instance
from efl.matrix_engine import (
    EngineConfig,
    RepairRecolored,
    color_cover,
    render_trace,
    run_matrix_method,
)
from support import instances, reference_color_cover, reference_export_dot

# None switches repair off; "default" is the n^2 budget of run_matrix_method
BUDGETS = [None, 1, 2, 3, "default"]


def _run(fn, inst: Instance, budget, traced: bool):
    limit = inst.n * inst.n if budget == "default" else budget
    result = fn(inst, limit, [] if traced else None)
    trace = None if result.trace is None else render_trace(result.trace)
    return result.colors, result.reason, trace


def _assert_same_runs(inst: Instance) -> None:
    for budget in BUDGETS:
        for traced in (False, True):
            assert _run(color_cover, inst, budget, traced) == _run(
                reference_color_cover, inst, budget, traced
            ), (budget, traced)


def _outcome(fn, *args):
    """The value, or the type and text of the error raised."""
    try:
        return ("value", fn(*args))
    except (EflError, ValueError) as err:
        return ("error", type(err).__name__, str(err))


@pytest.fixture(scope="module")
def deep_corpus(corpus500) -> list[Instance]:
    """The corpus covers with a vertex in three or more cliques."""
    return [
        inst for inst in corpus500 if max(map(len, inst.incidence_map.values())) >= 3
    ]


class TestColorCoverReference:
    @settings(max_examples=120, deadline=None)
    @given(inst=instances(max_n=10))
    def test_generated_covers(self, inst):
        _assert_same_runs(inst)

    def test_pinned_fixtures(self, gap_n8_file, sy2_statement_n6_file):
        for path in (gap_n8_file, sy2_statement_n6_file):
            _assert_same_runs(parse_instance(path.read_text()))

    def test_corpus_covers_with_deep_vertices(self, deep_corpus):
        assert len(deep_corpus) >= 100
        for inst in deep_corpus:
            _assert_same_runs(inst)

    def test_corpus_reaches_scan_tests_of_deep_vertices(self, deep_corpus):
        # the fan plan writes only vertices in two cliques, so a REPAIR of a
        # vertex in three or more comes from the repair scan, whose free-color
        # test then read the rows past the first two; the comparison above
        # covers that branch only while such events occur (8 REPAIR events,
        # and no SKIP events, name such a vertex over these traces)
        events = 0
        for inst in deep_corpus:
            inc = inst.incidence_map
            trace = run_matrix_method(inst, EngineConfig(trace_enabled=True)).trace
            events += sum(
                isinstance(e, RepairRecolored) and len(inc[e.vertex]) >= 3 for e in trace
            )
        assert events > 0

    @pytest.mark.parametrize("n", range(2, 26))
    def test_dense_covers(self, n):
        # the repair scan, its skips and the fan-path escalation all run here
        _assert_same_runs(gen_dense(n))


class TestExportDotReference:
    @settings(max_examples=120, deadline=None)
    @given(
        inst=instances(max_n=9),
        seed=st.integers(min_value=0, max_value=2**32),
        changes=st.integers(min_value=0, max_value=3),
    )
    def test_colored_uncolored_and_refused(self, inst, seed, changes):
        assert export_dot(inst) == reference_export_dot(inst)
        result = run_matrix_method(inst)
        if not result.ok:
            return
        coloring = dict(result.coloring)
        assert export_dot(inst, coloring) == reference_export_dot(inst, coloring)
        # overwrite a few colors: the refusal text names the first conflict
        rng = random.Random(seed)
        for v in rng.sample(inst.vertices, min(changes, len(inst.vertices))):
            coloring[v] = rng.randint(1, inst.n + 2)
        assert _outcome(export_dot, inst, coloring) == _outcome(
            reference_export_dot, inst, coloring
        )

    def test_equal_colors_that_print_differently(self):
        # 7 and 7.0, or 1 and True, are equal and hash alike but print
        # differently, so no tail built once per color value may serve both
        inst = gen_dense(8)
        coloring = dict(run_matrix_method(inst).coloring)
        for v in inst.vertices[1::2]:
            coloring[v] = True if coloring[v] == 1 else float(coloring[v])
        text = export_dot(inst, coloring)
        assert text == reference_export_dot(inst, coloring)
        assert 'color="7"' in text and 'color="7.0"' in text

    def test_tokens_with_quotes_and_backslashes(self):
        base = gen_dense(6)
        marks = ('"', "\\", '\\"', '"\\')
        names = {v: v + marks[k % 4] for k, v in enumerate(base.vertices)}
        inst = Instance(base.n, [[names[v] for v in c] for c in base.cliques])
        coloring = run_matrix_method(inst).coloring
        assert export_dot(inst) == reference_export_dot(inst)
        assert export_dot(inst, coloring) == reference_export_dot(inst, coloring)

    def test_refusal_texts(self, example):
        constant = {v: 1 for v in example.vertices}
        partial = {v: 1 for v in example.vertices[1:]}
        for coloring in (constant, partial):
            outcome = _outcome(export_dot, example, coloring)
            assert outcome[0] == "error"
            assert outcome == _outcome(reference_export_dot, example, coloring)
