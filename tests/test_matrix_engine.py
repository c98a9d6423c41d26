from __future__ import annotations

import copy
import functools
import hashlib
import math
import pathlib
import random
import re
from itertools import takewhile
from typing import Optional

import pytest
from hypothesis import given, settings

from efl.errors import InconsistentBlockError, UnknownVertexError
from efl.generators import (
    EXAMPLE_ASSIGNMENTS,
    EXAMPLE_FINAL_MATRIX,
    example_instance,
    gen_dense,
    gen_disjoint,
    gen_random,
)
from efl import matrix_engine
from efl.export import serialize_instance
from efl.greedy import run_greedy
from efl.instance import Instance, clique_degree, core_subgraph, parse_instance
from efl.matrix_engine import (
    DISJOINT,
    UNASSIGNED,
    Assigned,
    BudgetExhausted,
    ColorMatrix,
    EngineConfig,
    RepairRecolored,
    RepairSkipped,
    _fan_path_plan,
    _recolor,
    initial_matrix,
    matrix_to_coloring,
    render_trace,
    replay_trace,
    run_matrix_method,
)
from efl.oracle import chromatic_number_exact, verify_proper
from support import (
    blocked_colors,
    dict_rows,
    instances,
    reference_fan_path_plan,
    reference_block_matrix,
    reference_owns_colors,
    reference_replay_trace,
)

# the matrix states the method walks through on the bundled example,
# one per assignment
GOLDEN_STATES = [
    """
    . 1 1 1 ? .
    1 . 1 1 ? ?
    1 1 . 1 ? ?
    1 1 1 . . ?
    ? ? ? . . ?
    . ? ? ? ? .
    """,
    """
    . 1 1 1 ? .
    1 . 1 1 ? ?
    1 1 . 1 2 2
    1 1 1 . . ?
    ? ? 2 . . 2
    . ? 2 ? 2 .
    """,
    """
    . 1 1 1 3 .
    1 . 1 1 ? ?
    1 1 . 1 2 2
    1 1 1 . . ?
    3 ? 2 . . 2
    . ? 2 ? 2 .
    """,
    """
    . 1 1 1 3 .
    1 . 1 1 4 ?
    1 1 . 1 2 2
    1 1 1 . . ?
    3 4 2 . . 2
    . ? 2 ? 2 .
    """,
    """
    . 1 1 1 3 .
    1 . 1 1 4 3
    1 1 . 1 2 2
    1 1 1 . . ?
    3 4 2 . . 2
    . 3 2 ? 2 .
    """,
    """
    . 1 1 1 3 .
    1 . 1 1 4 3
    1 1 . 1 2 2
    1 1 1 . . 4
    3 4 2 . . 2
    . 3 2 4 2 .
    """,
]


class TestColorMatrix:
    def test_initial_example(self, example):
        m = initial_matrix(example)
        disjoint_cells = {
            (i, j)
            for i in range(1, 7)
            for j in range(1, 7)
            if m.get(i, j) == DISJOINT
        }
        expected = {(i, i) for i in range(1, 7)} | {(1, 6), (6, 1), (4, 5), (5, 4)}
        assert disjoint_cells == expected
        assert all(
            m.get(i, j) == UNASSIGNED
            for i in range(1, 7)
            for j in range(1, 7)
            if (i, j) not in expected
        )

    def test_repr(self):
        assert repr(initial_matrix(gen_dense(3))) == "ColorMatrix(n=3)"

    def test_initial_disjoint(self):
        m = initial_matrix(gen_disjoint(3))
        assert all(m.get(i, j) == DISJOINT for i in range(1, 4) for j in range(1, 4))

    def test_initial_dense(self):
        m = initial_matrix(gen_dense(3))
        for i in range(1, 4):
            for j in range(1, 4):
                assert m.get(i, j) == (DISJOINT if i == j else UNASSIGNED)

    def test_initial_rejects_invalid(self):
        from efl.errors import InvalidInstanceError

        with pytest.raises(InvalidInstanceError):
            initial_matrix(Instance(2, [("x", "y"), ("x", "y")]))

    def test_render_round_trip(self):
        m = ColorMatrix.from_text(EXAMPLE_FINAL_MATRIX)
        assert ColorMatrix.from_text(m.render()) == m

    def test_get_out_of_range(self):
        m = initial_matrix(gen_disjoint(2))
        with pytest.raises(IndexError):
            m.get(0, 1)
        with pytest.raises(IndexError):
            m.get(1, 3)

    @pytest.mark.parametrize("bad", [0, -1, 4])
    @pytest.mark.parametrize("place", ["first", "last"])
    def test_set_block_refuses_index_outside_range(self, bad, place):
        # negative indexing once wrote cells (1,3) and (3,1) for [0, 1]
        m = initial_matrix(gen_dense(3))
        m.set_block((1, 2), 7)
        before = m.copy()
        indices = [bad, 1] if place == "first" else [1, 2, bad]
        with pytest.raises(IndexError, match=rf"clique index {bad} out of range 1\.\.3"):
            m.set_block(indices, 5)
        assert m == before
        assert m.render() == before.render()

    def test_set_block_in_range_writes_off_diagonal(self):
        m = initial_matrix(gen_dense(3))
        m.set_block([1, 3], 5)
        assert m.row(1) == (DISJOINT, UNASSIGNED, 5)
        assert m.row(3) == (5, UNASSIGNED, DISJOINT)

    # (2, 2) is one clique, not a pair: a writer that read it as one wrote the diagonal
    @pytest.mark.parametrize(
        "indices, text", [((2, 2), ". ? ?\n? . ?\n? ? ."), ((1, 2, 2), ". 5 ?\n5 . ?\n? ? .")]
    )
    def test_set_block_takes_a_repeated_index_once(self, indices, text):
        m = initial_matrix(gen_dense(3))
        m.set_block(indices, 5)
        assert m.render() == text

    @pytest.mark.parametrize(
        "rows",
        [[[1]], [[0, 1, 1], [1, 0, 1]], [[0, 1, 1], [1, 0], [1, 1, 0]], [[0] * 4] * 3, []],
    )
    def test_constructor_refuses_wrong_shape(self, rows):
        with pytest.raises(ValueError, match="a matrix of order 3 needs 3 rows of 3 cells"):
            ColorMatrix(3, rows)

    def test_from_text_keeps_its_message(self):
        with pytest.raises(ValueError, match="matrix text is not square"):
            ColorMatrix.from_text("0 1\n1\n")

    # int() takes each of these; render writes none of them
    @pytest.mark.parametrize("tok", ["-5", "0", "+3", "1_0", "\u0663", "01", "007"])
    def test_from_text_refuses_what_render_never_writes(self, tok):
        with pytest.raises(ValueError, match=rf"^row 2, column 1: '{re.escape(tok)}' is not"):
            ColorMatrix.from_text(f". 1\n{tok} .\n")


class TestBlockedColors:
    def test_row_of_fourth_state(self):
        m = ColorMatrix.from_text(GOLDEN_STATES[3])
        assert blocked_colors(m, 2, 1) == {1, 4}

    def test_row_of_first_state_threshold_two(self):
        m = ColorMatrix.from_text(GOLDEN_STATES[0])
        assert blocked_colors(m, 3, 2) == {1}

    def test_initial_matrix_empty(self, example):
        m = initial_matrix(example)
        for i in range(1, 7):
            for t in (1, 2, 5):
                assert blocked_colors(m, i, t) == set()

    def test_errors(self, example):
        m = initial_matrix(example)
        with pytest.raises(IndexError):
            blocked_colors(m, 0, 1)
        with pytest.raises(ValueError):
            blocked_colors(m, 1, 0)


class TestGoldenRun:
    def test_assignment_order_and_colors(self, example):
        result = run_matrix_method(example, EngineConfig(trace_enabled=True))
        assert result.ok
        assert [(e.vertex, e.color) for e in result.trace] == list(EXAMPLE_ASSIGNMENTS)

    def test_snapshot_sequence(self, example):
        # snapshots are derived: the state after event k replays trace[:k+1]
        result = run_matrix_method(example, EngineConfig(trace_enabled=True))
        start = initial_matrix(example)
        snaps = [
            replay_trace(example, result.trace[: k + 1], start)
            for k, e in enumerate(result.trace)
            if isinstance(e, Assigned)
        ]
        assert len(snaps) == 6
        for snap, text in zip(snaps, GOLDEN_STATES):
            assert snap == ColorMatrix.from_text(text)

    def test_final_matrix(self, example):
        result = run_matrix_method(example)
        assert result.final_matrix == ColorMatrix.from_text(EXAMPLE_FINAL_MATRIX)

    def test_total_coloring(self, example):
        result = run_matrix_method(example)
        assert len(result.coloring) == 27
        report = verify_proper(example, result.coloring)
        assert report.proper
        assert report.colors_used == 6


class TestMatrixToColoring:
    def test_final_state(self, example):
        m = ColorMatrix.from_text(EXAMPLE_FINAL_MATRIX)
        assert matrix_to_coloring(example, m) == {
            "v1": 1,
            "v16": 2,
            "v6": 3,
            "v7": 4,
            "v9": 3,
            "v19": 4,
        }

    def test_initial_is_empty(self, example):
        assert matrix_to_coloring(example, initial_matrix(example)) == {}

    def test_partial_state(self, example):
        m = ColorMatrix.from_text(GOLDEN_STATES[1])
        assert matrix_to_coloring(example, m) == {"v1": 1, "v16": 2}

    def test_inconsistent_block_raises(self, example):
        m = ColorMatrix.from_text(EXAMPLE_FINAL_MATRIX)
        m.set_block((1, 3), 5)  # v1's block now holds 1 and 5
        with pytest.raises(InconsistentBlockError):
            matrix_to_coloring(example, m)

    def test_order_mismatch(self, example):
        with pytest.raises(ValueError):
            matrix_to_coloring(example, initial_matrix(gen_disjoint(2)))

    @pytest.mark.parametrize("order", [3, 8])
    def test_replay_refuses_start_of_other_order(self, example, order):
        # a larger start once took the blocks silently, a smaller one failed
        # with a bare list IndexError
        trace = run_matrix_method(example, EngineConfig(trace_enabled=True)).trace
        with pytest.raises(ValueError, match=f"matrix order {order} does not match instance n=6"):
            replay_trace(example, trace, initial_matrix(gen_disjoint(order)))

    @pytest.mark.parametrize(
        "event",
        [Assigned("nope", 1), RepairRecolored("nope", 2, 1), RepairSkipped("nope")],
        ids=["assigned", "recolored", "skipped"],
    )
    def test_replay_refuses_unknown_vertex(self, event):
        # it once raised a bare KeyError, and a skip once passed silently
        inst = gen_dense(3)
        with pytest.raises(UnknownVertexError) as raised:
            replay_trace(inst, [event], initial_matrix(inst))
        with pytest.raises(UnknownVertexError) as reference:
            clique_degree(inst, "nope")
        assert str(raised.value) == str(reference.value)

    @pytest.mark.parametrize(
        "event",
        [Assigned("v1", 0), Assigned("v1", -1), RepairRecolored("v16", 2, -1)],
        ids=["assigned-0", "assigned-minus-1", "recolored-minus-1"],
    )
    def test_replay_refuses_a_color_below_1(self, example, event):
        # such a color once went into the block as a cell state: 0 made the
        # vertex's cliques disjoint, -1 made it unassigned
        message = f"^vertex '{event.vertex}' has color {event[-1]}, below 1$"
        with pytest.raises(ValueError, match=message):
            replay_trace(example, [Assigned("v1", 1), event], initial_matrix(example))

    @pytest.mark.parametrize("event", [("v1", 1), 7], ids=["tuple", "int"])
    def test_replay_refuses_objects_that_are_not_events(self, example, event):
        # a plain tuple equals an Assigned event, yet once replayed to the
        # unchanged start matrix; render_trace refuses both in the same way
        assert ("v1", 1) == Assigned("v1", 1)
        trace = [Assigned("v16", 2), event]
        with pytest.raises(TypeError, match="unknown trace event") as raised:
            replay_trace(example, trace, initial_matrix(example))
        with pytest.raises(TypeError) as rendered:
            render_trace(trace)
        assert str(raised.value) == str(rendered.value)

    def test_replay_of_a_mixed_trace(self, example):
        # skips and the budget event write nothing, and the write events
        # replay in order, the later write winning
        mixed = [
            Assigned("v1", 1),
            RepairSkipped("v1"),
            Assigned("v16", 2),
            RepairRecolored("v1", 1, 3),
            BudgetExhausted(),
        ]
        writes = [e for e in mixed if isinstance(e, (Assigned, RepairRecolored))]
        start = initial_matrix(example)
        replayed = replay_trace(example, mixed, start)
        assert replayed == replay_trace(example, writes, start)
        assert matrix_to_coloring(example, replayed) == {"v1": 3, "v16": 2}
        assert start == initial_matrix(example)


class TestExtendToFull:
    """On success the core coloring extends to every vertex of the cover."""

    def test_example_extension(self, example):
        total = run_matrix_method(example).coloring
        assert len(total) == 27
        assert verify_proper(example, total).proper
        # clique 5 core colors {3,4,2}: privates get 1,5,6 by ascending token
        assert [total[v] for v in ("v22", "v23", "v24")] == [1, 5, 6]

    def test_disjoint_extension(self):
        inst = gen_disjoint(2)
        total = run_matrix_method(inst).coloring
        assert sorted(total[v] for v in inst.clique(1)) == [1, 2]
        assert sorted(total[v] for v in inst.clique(2)) == [1, 2]

    def test_forced_complement(self):
        inst = Instance(3, [("a", "b", "x"), ("a", "c", "y"), ("b", "c", "z")])
        total = run_matrix_method(inst).coloring
        assert [total[v] for v in "abc"] == [1, 2, 3]
        assert total["x"] == 3 and total["y"] == 2 and total["z"] == 1


class TestEngineRuns:
    def test_disjoint_success_no_events(self):
        result = run_matrix_method(gen_disjoint(5), EngineConfig(trace_enabled=True))
        assert result.ok
        assert result.trace == []
        assert verify_proper(gen_disjoint(5), result.coloring).proper

    def test_dense5_repair_sequence(self):
        result = run_matrix_method(gen_dense(5), EngineConfig(trace_enabled=True))
        assert result.ok
        lines = render_trace(result.trace).split("\n")
        assert lines[8:] == [
            "REPAIR b1_3 2 5",
            "ASSIGN b3_5 2",
            "SKIP b1_4",
            "SKIP b1_5",
            "REPAIR b2_4 2 4",
            "REPAIR b1_4 3 2",
            "ASSIGN b4_5 3",
        ]
        core = {
            v: c for v, c in result.coloring.items() if clique_degree(gen_dense(5), v) > 1
        }
        assert len(set(core.values())) == 5

    def test_budget_exhaustion_on_dense5(self):
        result = run_matrix_method(
            gen_dense(5), EngineConfig(repair_budget=2, trace_enabled=True)
        )
        assert not result.ok
        assert result.reason == "budget-exhausted"
        assert isinstance(result.trace[-1], BudgetExhausted)

    def test_budget_three_suffices_on_dense5(self):
        assert run_matrix_method(gen_dense(5), EngineConfig(repair_budget=3)).ok

    @pytest.mark.parametrize("n", list(range(2, 51)))
    def test_dense_family_succeeds(self, n):
        inst = gen_dense(n)
        result = run_matrix_method(inst)
        assert result.ok, result.reason
        report = verify_proper(inst, result.coloring)
        assert report.proper and report.max_color <= n

    @pytest.mark.parametrize("n", [1, 2, 7, 23, 50])
    def test_disjoint_family_succeeds(self, n):
        result = run_matrix_method(gen_disjoint(n))
        assert result.ok
        assert verify_proper(gen_disjoint(n), result.coloring).proper

    def test_two_clique_covers_succeed(self):
        # with no extensions every shared vertex lies in exactly two cliques,
        # and no such cover has been seen to end stuck (ROADMAP item 7)
        for n in range(4, 17):
            full = n * (n - 1) // 2
            for merges in (full // 3, full):
                for seed in range(20):
                    inst = gen_random(n, merges, seed, 0)
                    assert all(len(ix) == 2 for ix in inst.core_incidence.values())
                    result = run_matrix_method(inst)
                    assert result.ok, (n, merges, seed, result.reason)
                    report = verify_proper(inst, result.coloring)
                    assert report.proper and report.max_color <= n

    def test_escalation_beyond_single_recolors(self):
        # dense(11) is the smallest case where the plain recolor scan runs dry
        result = run_matrix_method(gen_dense(11), EngineConfig(trace_enabled=True))
        assert result.ok
        assert any(isinstance(e, RepairRecolored) for e in result.trace)

    def test_determinism(self):
        for inst in (example_instance(), gen_dense(13), gen_random(7, 12, 3)):
            a = run_matrix_method(inst, EngineConfig(trace_enabled=True))
            b = run_matrix_method(inst, EngineConfig(trace_enabled=True))
            assert render_trace(a.trace) == render_trace(b.trace)
            assert a.final_matrix == b.final_matrix
            assert a.coloring == b.coloring

    def test_config_validation(self):
        for budget in (0, -3):
            for make in (
                lambda: EngineConfig(budget),
                lambda: EngineConfig(budget, True),
                lambda: EngineConfig(repair_budget=budget),
                lambda: EngineConfig(repair_budget=budget, trace_enabled=True),
            ):
                with pytest.raises(ValueError) as refused:
                    make()
                assert str(refused.value) == "repair_budget must be at least 1"
        assert EngineConfig(1).repair_budget == 1
        assert EngineConfig(repair_budget=None).repair_budget is None


class TestDerivedResult:
    def test_failed_runs_keep_the_partial_core_coloring(self, gap_n8_file):
        gap = parse_instance(gap_n8_file.read_text())
        runs = [run_matrix_method(gap), run_greedy(gap)] + [
            run_matrix_method(gen_dense(n), EngineConfig(repair_budget=3))
            for n in range(5, 21)
        ]
        failed = [r for r in runs if not r.ok]
        assert len(failed) == 12
        for r in failed:
            assert r.coloring is None
            assert matrix_to_coloring(r.instance, r.final_matrix) == r.colors

    def test_matrix_is_built_on_first_read_only(self, monkeypatch):
        calls = []
        build = matrix_engine._block_matrix

        def counting(inst, colors):
            calls.append(inst)
            return build(inst, colors)

        monkeypatch.setattr(matrix_engine, "_block_matrix", counting)
        result = run_matrix_method(gen_dense(9))
        assert result.ok and result.coloring is result.colors
        assert calls == []
        assert result.final_matrix.n == 9
        assert len(calls) == 1


class TestTraceProperties:
    @settings(max_examples=40, deadline=None)
    @given(inst=instances(max_n=7))
    def test_replay_reproduces_final_matrix(self, inst):
        # holds for failed runs too; the trace is the full write history
        result = run_matrix_method(inst, EngineConfig(trace_enabled=True))
        replayed = replay_trace(inst, result.trace, initial_matrix(inst))
        assert replayed == result.final_matrix

    @settings(max_examples=40, deadline=None)
    @given(inst=instances(max_n=7))
    def test_snapshots_stay_block_consistent(self, inst):
        result = run_matrix_method(inst, EngineConfig(trace_enabled=True))
        start = initial_matrix(inst)
        for k, event in enumerate(result.trace):
            if isinstance(event, (Assigned, RepairRecolored)):
                snapshot = replay_trace(inst, result.trace[: k + 1], start)
                matrix_to_coloring(inst, snapshot)  # must not raise

    @settings(max_examples=40, deadline=None)
    @given(inst=instances(max_n=7))
    def test_threshold_matches_colors_in_use_at_assignment(self, inst):
        # while a degree-k vertex is placed, every color in the rows of it and
        # of each vertex recolored for it already appears at least k-1 times
        # there, so the threshold test equals the plain colors-in-use test
        result = run_matrix_method(inst, EngineConfig(trace_enabled=True))
        matrix = initial_matrix(inst)
        inc = inst.incidence_map
        order = sorted(
            (v for v, ix in inc.items() if len(ix) > 1),
            key=lambda v: (-len(inc[v]), inc[v]),
        )
        assigned = 0
        for event in result.trace:
            if isinstance(event, (Assigned, RepairRecolored)):
                k = len(inc[order[assigned]])
                for row in inc[event.vertex]:
                    assert blocked_colors(matrix, row, k - 1) == blocked_colors(
                        matrix, row, 1
                    )
                assigned += isinstance(event, Assigned)
                color = event.color if isinstance(event, Assigned) else event.new_color
                matrix.set_block(inc[event.vertex], color)

    @settings(max_examples=40, deadline=None)
    @given(inst=instances(max_n=8))
    def test_greedy_is_engine_without_repair(self, inst):
        result = run_matrix_method(inst, EngineConfig(trace_enabled=True))
        greedy = run_greedy(inst)
        repaired = any(isinstance(e, (RepairRecolored, RepairSkipped)) for e in result.trace)
        assert greedy.ok == (not repaired)
        if greedy.ok:
            assert greedy.coloring == result.coloring
        # greedy stops where the engine first repairs, so its matrix is the
        # engine's matrix after the leading assignments
        assigned = list(takewhile(lambda e: isinstance(e, Assigned), result.trace))
        assert greedy.final_matrix == replay_trace(inst, assigned, initial_matrix(inst))

    @settings(max_examples=40, deadline=None)
    @given(inst=instances(max_n=7))
    def test_render_round_trips(self, inst):
        # from_text reads back every matrix the engine's readers build
        result = run_matrix_method(inst, EngineConfig(trace_enabled=True))
        start = initial_matrix(inst)
        matrices = [start, result.final_matrix]
        for k in range(1, len(result.trace) + 1):
            matrices.append(replay_trace(inst, result.trace[:k], start))
        for m in matrices:
            assert ColorMatrix.from_text(m.render()) == m

    @settings(max_examples=30, deadline=None)
    @given(inst=instances(max_n=7))
    def test_success_is_properly_colored(self, inst):
        result = run_matrix_method(inst)
        if result.ok:
            report = verify_proper(inst, result.coloring)
            assert report.proper and report.max_color <= inst.n
        else:
            assert result.reason in ("budget-exhausted", "stuck-no-repair")

    @settings(max_examples=40, deadline=None)
    @given(inst=instances())
    def test_privates_take_missing_colors_ascending(self, inst):
        # the extension rule, for both methods: each clique's private vertices,
        # in token order, carry exactly the colors its core leaves, ascending
        inc = inst.incidence_map
        for result in (run_matrix_method(inst), run_greedy(inst)):
            if not result.ok:
                continue
            total = result.coloring
            assert total.keys() == inc.keys()
            for members in inst.cliques:
                core_colors = {total[v] for v in members if len(inc[v]) > 1}
                privates = sorted(v for v in members if len(inc[v]) == 1)
                missing = sorted(set(range(1, inst.n + 1)) - core_colors)
                assert [total[v] for v in privates] == missing


def _high_degree_covers() -> list[Instance]:
    """Covers whose clique degrees reach 3 to 5: merge-grown random covers at
    80 and 100 % extension, and the three bundled files."""
    covers = [
        gen_random(n, n * (n - 1) // 2, seed, extension_percent=percent)
        for percent in (80, 100)
        for n in range(8, 13)
        for seed in range(3)
    ]
    data = pathlib.Path(__file__).parent / "data"
    for name in ("gap_n8.efl", "example6.efl", "sy2_statement_n6.efl"):
        covers.append(parse_instance((data / name).read_text()))
    return covers


class TestMatrixWritesReference:
    """``initial_matrix``, ``final_matrix`` and ``replay_trace`` equal the
    builders that wrote every vertex's or event's block through one call,
    after every prefix of the trace."""

    @staticmethod
    def _check(inst: Instance, result) -> None:
        start = initial_matrix(inst)
        assert start == reference_block_matrix(inst, {})
        assert result.final_matrix == reference_block_matrix(inst, result.colors)
        # the matrix of each prefix is that of the one before with its last
        # event replayed; the whole trace replays from the start at the end
        mine = theirs = start
        for k, event in enumerate(result.trace):
            mine = replay_trace(inst, [event], mine)
            theirs = reference_replay_trace(inst, [event], theirs)
            assert mine == theirs, k
        assert replay_trace(inst, result.trace, start) == mine

    def test_high_degree_covers(self):
        degrees = set()
        for inst in _high_degree_covers():
            degrees.update(map(len, inst.core_incidence.values()))
            self._check(inst, run_matrix_method(inst, EngineConfig(trace_enabled=True)))
        assert {3, 4, 5} <= degrees

    def test_dense_repair_traces(self):
        repairing = 0
        for n in range(10, 26):
            inst = gen_dense(n)
            result = run_matrix_method(inst, EngineConfig(trace_enabled=True))
            repairing += any(type(e) is RepairRecolored for e in result.trace)
            self._check(inst, result)
        # all but dense(15) and dense(16) repair
        assert repairing == 14


def _episode_vertices(result) -> list[str]:
    """The vertex of each stuck episode in a traced engine run.

    An episode's events (``SKIP``, ``REPAIR``, ``BUDGET``) come before the
    ``ASSIGN`` of its vertex; a failed run's last episode has no ``ASSIGN``,
    and its vertex is the first in placement order without a color.
    """
    inc = result.instance.core_incidence
    stuck, open_episode = [], False
    for event in result.trace:
        if isinstance(event, Assigned):
            if open_episode:
                stuck.append(event.vertex)
            open_episode = False
        else:
            open_episode = True
    if not result.ok:
        order = sorted(inc, key=lambda v: (-len(inc[v]), inc[v]))
        stuck.append(next(v for v in order if v not in result.colors))
    return stuck


class TestCountingBound:
    """A vertex of clique degree d placed after vertices of degree >= d sees
    at most floor((n-d)/(d-1)) colored vertices in each of its d rows, as
    each of them and the vertex itself meets d-1 further cliques of its own.
    So every stuck vertex has d * floor((n-d)/(d-1)) >= n."""

    @staticmethod
    def _check(covers) -> int:
        episodes = 0
        for inst in covers:
            result = run_matrix_method(inst, EngineConfig(trace_enabled=True))
            for v in _episode_vertices(result):
                n, d = inst.n, len(inst.core_incidence[v])
                assert d * ((n - d) // (d - 1)) >= n, (inst, v)
                episodes += 1
        return episodes

    def test_corpus_and_fixtures(self, corpus500, gap_n8_file, sy2_statement_n6_file):
        files = [parse_instance(f.read_text()) for f in (gap_n8_file, sy2_statement_n6_file)]
        assert self._check([*corpus500, *files]) >= 10

    def test_dense_covers(self):
        assert self._check(gen_dense(n) for n in range(2, 51)) >= 1000

    # 9 is the least order at which a vertex of clique degree 3 may get stuck
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(inst=instances(max_n=10))
    def test_random_covers(self, inst):
        self._check([inst])


def _stuck_state(inst: Instance, rng: random.Random):
    """A random proper partial core coloring in the engine's row form, built so
    that a random two-clique vertex u is stuck; None if u keeps a free color.

    u's neighbors are colored first, each preferring a color still free in
    u's rows; the rest of the core follows, and a vertex with every color
    blocked stays uncolored.  Each is colored through ``_recolor``, which
    takes an uncolored vertex.
    """
    n = inst.n
    inc = {v: ix for v, ix in inst.incidence_map.items() if len(ix) > 1}
    pairs = [v for v, ix in inc.items() if len(ix) == 2]
    if not pairs:
        return None
    u = rng.choice(pairs)
    rows: list[list[Optional[str]]] = [[None] * (n + 1) for _ in range(n + 1)]
    used = [0] * (n + 1)
    color: dict[str, int] = {}

    def free(ix):
        taken = 0
        for i in ix:
            taken |= used[i]
        return [c for c in range(1, n + 1) if not taken >> c & 1]

    near = [v for v in inc if v != u and set(inc[v]) & set(inc[u])]
    rest = [v for v in inc if v != u and v not in near]
    rng.shuffle(near)
    rng.shuffle(rest)
    for v in near + rest:
        legal = free(inc[v])
        free_u = free(inc[u])
        fresh = [c for c in legal if c in free_u]
        if legal:
            _recolor(rows, used, color, inc, v, rng.choice(fresh or legal))
    if free(inc[u]):
        return None
    return rows, used, color, inc, u


class TestFanPathPlan:
    """The escalation on random stuck states, not only on states an engine run
    reaches.  A plan that is returned must free a color in both of u's rows and
    leave every row conflict-free."""

    @staticmethod
    def _plans(extension_percent: int, seeds: int):
        for seed in range(seeds):
            rng = random.Random(seed)
            n = rng.randint(4, 10)
            inst = gen_random(n, n * (n - 1) // 2, seed, extension_percent)
            state = _stuck_state(inst, rng)
            if state is None:
                continue
            rows, used, color, inc, u = state
            plan = _fan_path_plan(rows, used, color, inc, u, n)
            if plan is not None:
                assert all(v in color for v, _ in plan)
                for v, x in plan:
                    _recolor(rows, used, color, inc, v, x)
                full = ((1 << n) - 1) << 1
                assert full & ~(used[inc[u][0]] | used[inc[u][1]])
                # used[i] is the set of colors owned in rows[i], and every
                # colored vertex owns its color in each of its rows
                for i in range(1, n + 1):
                    owned = [c for c, w in enumerate(rows[i]) if w is not None]
                    assert used[i] == sum(1 << c for c in owned)
                assert all(rows[i][x] == v for v, x in color.items() for i in inc[v])
            yield plan

    def test_two_clique_covers_never_abort(self):
        # with every shared vertex in two cliques the cover is a graph on the
        # n cliques of maximum degree at most n-1 (a clique meets each other
        # clique at most once), so n colors suffice by Vizing's argument and
        # the fan-and-path plan exists
        plans = list(self._plans(0, 300))
        assert len(plans) == 300
        assert None not in plans
        assert max(len(p) for p in plans) >= 8  # long paths and fan rotations occur

    def test_mixed_covers_plan_or_abort(self):
        plans = list(self._plans(50, 300))
        assert len(plans) >= 100
        assert any(p is None for p in plans)
        assert any(p is not None and len(p) >= 3 for p in plans)


def _checked_ownership(monkeypatch) -> list[bool]:
    """Route the fan plan's closing check through a comparison with the full
    scan of every colored vertex; returns the list of answers given."""
    answers: list[bool] = []
    local = matrix_engine._owns_colors

    def both(rows, color, inc, vertices):
        answer = local(rows, color, inc, vertices)
        assert answer == reference_owns_colors(dict_rows(rows), color, inc)
        answers.append(answer)
        return answer

    monkeypatch.setattr(matrix_engine, "_owns_colors", both)
    return answers


class TestFanPlanOwnershipCheck:
    """The plan's closing check looks only at the vertices its writes wrote
    or overwrote; from a conflict-free start that answers like a scan of
    every colored vertex."""

    def test_agrees_with_full_scan(self, monkeypatch):
        answers = _checked_ownership(monkeypatch)
        for extension_percent in (0, 50):
            list(TestFanPathPlan._plans(extension_percent, 300))
        random_states = len(answers)
        for n in range(10, 31):
            assert run_matrix_method(gen_dense(n)).ok
        assert random_states >= 300 and len(answers) > random_states
        assert all(answers)

    def test_abort_when_a_write_takes_a_bystanders_color(self, monkeypatch):
        # the core of dense(4) with b1_2 stuck in rows 1 and 2; b3_4 is uncolored
        n = 4
        inc = {v: ix for v, ix in gen_dense(n).incidence_map.items() if len(ix) > 1}
        rows: list[list[Optional[str]]] = [[None] * (n + 1) for _ in range(n + 1)]
        used = [0] * (n + 1)
        color: dict[str, int] = {}
        for v, x in (("b1_4", 1), ("b1_3", 2), ("b2_4", 3), ("b2_3", 4)):
            _recolor(rows, used, color, inc, v, x)
        assert _fan_path_plan(rows, used, color, inc, "b1_2", n) is not None
        # row 1's mask hides the color 2 that bystander b1_3 owns there, so
        # color 2 looks free at row 1 and the path writes it to b1_4,
        # taking row 1's entry for color 2 away from b1_3
        used[1] &= ~(1 << 2)
        answers = _checked_ownership(monkeypatch)
        assert _fan_path_plan(rows, used, color, inc, "b1_2", n) is None
        assert answers == [False]


STUCK_SEEDS = 400


@functools.cache
def _built_stuck_states() -> tuple:
    """``(n, seed, rng state, state)`` for every stuck state ``_stuck_state``
    builds on ``gen_random(n, C(n,2), seed, extension)``, n 4..12, extension
    0/20/50/100 %, seed below ``STUCK_SEEDS``; built once and never handed
    out itself."""
    built = []
    for n in range(4, 13):
        for extension_percent in (0, 20, 50, 100):
            for seed in range(STUCK_SEEDS):
                rng = random.Random(seed)
                inst = gen_random(n, n * (n - 1) // 2, seed, extension_percent)
                state = _stuck_state(inst, rng)
                if state is not None:
                    built.append((n, seed, rng.getstate(), state))
    return tuple(built)


def _random_stuck_states(seeds: int):
    """``(n, rng, state)`` for every state of :func:`_built_stuck_states`
    with a seed below ``seeds``: a deep copy of the state and a generator
    where ``_stuck_state`` left it, so a test may mutate both.

    A state depends only on (n, extension, seed), so these are the states
    a build over ``seeds`` seeds makes, in the same order.  Every leaf of a state is None, an int, a str or a tuple of
    ints, so copying its containers copies it deeply; ``copy.deepcopy``
    took 2.4 s per pass over the 400-seed states, against 8 s to build them.
    """
    assert seeds <= STUCK_SEEDS
    for n, seed, rng_state, (rows, used, color, inc, u) in _built_stuck_states():
        if seed >= seeds:
            continue
        rng = random.Random()
        rng.setstate(rng_state)
        yield n, rng, ([r.copy() for r in rows], used.copy(), color.copy(), inc.copy(), u)


class TestFanPlanReference:
    """The plan equals the one that carried every guard, on every state whose
    row masks mirror its rows, and stays safe on states where they do not."""

    def test_random_stuck_states(self):
        states = 0
        for n, _, (rows, used, color, inc, u) in _random_stuck_states(400):
            expected = reference_fan_path_plan(dict_rows(rows), used, color, inc, u, n)
            assert _fan_path_plan(rows, used, color, inc, u, n) == expected
            states += 1
        assert states >= 5000

    def test_dense_runs(self, monkeypatch):
        plans = []
        local = matrix_engine._fan_path_plan

        def both(rows, used, color, inc, u, n):
            expected = reference_fan_path_plan(dict_rows(rows), used, color, inc, u, n)
            plan = local(rows, used, color, inc, u, n)
            assert plan == expected
            plans.append(plan)
            return plan

        monkeypatch.setattr(matrix_engine, "_fan_path_plan", both)
        for n in range(10, 31):
            assert run_matrix_method(gen_dense(n)).ok
        assert len(plans) >= 20 and None not in plans

    def test_safe_when_a_mask_hides_an_owned_color(self):
        # one row's mask drops a color the row owns, so the plan sees that
        # color as free there; whatever it returns must keep every colored
        # vertex owning its color in each of its rows
        plans = 0
        for n, rng, (rows, used, color, inc, u) in _random_stuck_states(100):
            owned = dict_rows(rows)
            i = rng.choice([i for i in range(1, n + 1) if owned[i]])
            used[i] &= ~(1 << rng.choice(sorted(owned[i])))
            plan = _fan_path_plan(rows, used, color, inc, u, n)
            if plan is None:
                continue
            plans += 1
            for v, x in plan:
                _recolor(rows, used, color, inc, v, x)
            assert reference_owns_colors(dict_rows(rows), color, inc)
        assert plans >= 1000


class TestFanPlanLeavesStateAlone:
    """A plan works on its own copy: the caller's rows, masks and colors are
    the same after it, whether it returns a plan or aborts.  The reference
    comparisons above call the library plan last, so they cannot see a plan
    that writes into the live state."""

    @staticmethod
    def _plan_on_snapshot(rows, used, color, inc, u, n):
        before = copy.deepcopy((rows, used, color))
        plan = _fan_path_plan(rows, used, color, inc, u, n)
        assert (rows, used, color) == before
        return plan

    def test_random_stuck_states(self):
        outcomes = set()
        for n, _, (rows, used, color, inc, u) in _random_stuck_states(400):
            plan = self._plan_on_snapshot(rows, used, color, inc, u, n)
            outcomes.add(plan is None)
        assert outcomes == {True, False}

    def test_dense_runs(self, monkeypatch):
        plans = []
        local = self._plan_on_snapshot

        def checked(rows, used, color, inc, u, n):
            plans.append(local(rows, used, color, inc, u, n))
            return plans[-1]

        monkeypatch.setattr(matrix_engine, "_fan_path_plan", checked)
        for n in range(10, 31):
            assert run_matrix_method(gen_dense(n)).ok
        assert len(plans) >= 20 and None not in plans


GAP_N8_TRACE = """
ASSIGN m3 1
ASSIGN m7 2
ASSIGN m16 2
ASSIGN m14 1
ASSIGN m22 3
ASSIGN m19 4
ASSIGN m24 5
ASSIGN m20 6
ASSIGN m21 7
ASSIGN m9 3
ASSIGN m12 4
ASSIGN m2 5
ASSIGN m5 7
ASSIGN m4 6
ASSIGN m15 4
ASSIGN m8 5
ASSIGN m17 1
ASSIGN m13 6
ASSIGN m10 8
ASSIGN m6 2
ASSIGN m23 3
ASSIGN m1 8
REPAIR m24 5 8
SKIP m20
SKIP m3
SKIP m5
REPAIR m15 4 7
ASSIGN m11 4
SKIP m20
REPAIR m21 7 5
SKIP m20
SKIP m3
SKIP m5
SKIP m7
SKIP m8
SKIP m10
SKIP m23
REPAIR m1 8 7
SKIP m20
SKIP m3
SKIP m5
SKIP m7
SKIP m8
SKIP m10
SKIP m23
SKIP m11
""".strip()


class TestKnownGaps:
    def test_gap_n8_stuck_although_colorable(self, gap_n8_file):
        """Records a known gap of the escalation, not intended behaviour.

        ``gap_n8.efl`` is ``gen_random(8, 28, 241)``: 24 core vertices, with
        m3 and m7 in three cliques each.  The fan-and-path escalation only
        handles vertices in two cliques, so the engine gets stuck and the
        greedy fails, although the core is 7-colorable.  A repair stage that
        closes the gap must flip this test.
        """
        inst = parse_instance(gap_n8_file.read_text())
        assert serialize_instance(inst) == serialize_instance(gen_random(8, 28, 241))
        result = run_matrix_method(inst, EngineConfig(trace_enabled=True))
        assert result.reason == "stuck-no-repair"
        assert len(result.trace) == 46
        assert render_trace(result.trace) == GAP_N8_TRACE
        assert run_greedy(inst).reason == "no-color-available"
        assert chromatic_number_exact(core_subgraph(inst)) == 7 <= inst.n

    def test_random_sweep_gaps_stuck(self):
        """Records the known gaps of a random sweep, not intended behaviour.

        ``random_sweep_gaps.txt`` holds one ``n seed extension_percent`` line
        per cover ``gen_random(n, C(n, 2), seed, extension_percent)`` on which
        the engine fails, over n 7..16, seed 0..999 and extension 10, 20 and
        40 %, in that order: 209 covers, ``gap_n8.efl`` among them as
        ``8 241 20``.  Each fails with ``stuck-no-repair``.  A repair stage
        that closes a gap must flip its entry: the cover then colors, and the
        line leaves the file with a new digest.
        """
        path = pathlib.Path(__file__).parent / "data" / "random_sweep_gaps.txt"
        data = path.read_bytes()
        assert hashlib.sha256(data).hexdigest() == (
            "c9e269d2f16fd4ecbeb638eb89c52e1fe0b9b19140b419a3e40bea1967a94ac4"
        )
        for line in data.decode("ascii").splitlines():
            n, seed, extension = map(int, line.split())
            result = run_matrix_method(gen_random(n, math.comb(n, 2), seed, extension))
            assert result.reason == "stuck-no-repair", line
