"""Runs on one instance are independent of each other and of copies.

A run writes nothing to its instance: after any public call the instance
holds only its cached views.  So a ``run_matrix_method`` after a
``run_greedy`` must equal a run on a fresh equal instance, byte for byte,
leave the greedy's result alone, and share no dict with it, whatever order
the runs come in; a copy or a pickle must equal the original and run like a
fresh instance.  Every success stays the dict that ``verify_proper``
certified.
"""

from __future__ import annotations

import copy
import pickle
from collections import Counter

import pytest

from efl import matrix_engine
from efl.export import export_dot, serialize_instance
from efl.generators import gen_dense
from efl.greedy import check_sy1, check_sy2_all, run_greedy
from efl.instance import Instance, core_subgraph, parse_instance
from efl.matrix_engine import (
    EngineConfig,
    initial_matrix,
    render_trace,
    replay_trace,
    run_matrix_method,
)
from efl.oracle import (
    VerifyReport,
    corollary_bound_check,
    is_n_colorable,
    theorem_identity,
    verify_proper,
)

TRACED = EngineConfig(trace_enabled=True)

# all an instance may hold: n, the cliques and its cached views
VIEWS = {
    "n",
    "cliques",
    "vertices",
    "incidence_map",
    "core_incidence",
    "private_members",
    "validation",
    "_degree_table",
    # derived from the cover alone, read by both methods; it holds no run state
    "_core_order",
}


def _fresh(inst: Instance) -> Instance:
    """An equal instance with nothing cached."""
    return Instance(inst.n, inst.cliques)


def _outcome(result) -> tuple:
    """Everything observable of a result, read now."""
    trace = None if result.trace is None else render_trace(result.trace)
    return (result.reason, trace, result.final_matrix.render(), list(result.colors.items()))


@pytest.fixture
def covers(corpus500, gap_n8_file, sy2_statement_n6_file) -> list[Instance]:
    files = [parse_instance(f.read_text()) for f in (gap_n8_file, sy2_statement_n6_file)]
    return [*corpus500, *(gen_dense(n) for n in range(2, 31)), *files]


# as test_reference_engine.BUDGETS: small budgets and the default n^2 (None)
BUDGETS = [1, 2, 3, None]


def test_engine_after_greedy_equals_engine_alone(covers):
    for budget in BUDGETS:
        config = EngineConfig(repair_budget=budget, trace_enabled=True)
        after_stuck = Counter()  # the engine's reasons on the covers the greedy got stuck on
        for cover in covers:
            inst = _fresh(cover)
            greedy = run_greedy(inst)
            assert set(vars(inst)) <= VIEWS
            before = _outcome(greedy)
            engine = run_matrix_method(inst, config)
            assert _outcome(engine) == _outcome(run_matrix_method(_fresh(cover), config))
            assert _outcome(greedy) == before
            assert greedy.colors is not engine.colors
            assert set(vars(inst)) <= VIEWS
            if not greedy.ok:
                after_stuck[engine.reason] += 1
        # the covers hold both greedy outcomes, and after a stuck greedy the
        # engine succeeds on some and a small budget ends some others
        assert sum(after_stuck.values()) >= 10 and after_stuck[None] >= 5, budget
        if budget is not None:
            assert after_stuck["budget-exhausted"] >= 5, budget


def test_repeated_and_reordered_runs_agree(covers):
    for cover in covers:
        greedy = _outcome(run_greedy(_fresh(cover)))
        engine = _outcome(run_matrix_method(_fresh(cover), TRACED))
        inst = _fresh(cover)
        assert _outcome(run_matrix_method(inst, TRACED)) == engine
        assert _outcome(run_matrix_method(inst, TRACED)) == engine
        assert set(vars(inst)) <= VIEWS
        assert _outcome(run_greedy(inst)) == greedy
        assert _outcome(run_greedy(inst)) == greedy
        assert _outcome(run_matrix_method(inst, TRACED)) == engine
        assert set(vars(inst)) <= VIEWS


def test_stuck_fixtures_leave_nothing(gap_n8_file, sy2_statement_n6_file):
    for path, reason in ((gap_n8_file, "stuck-no-repair"), (sy2_statement_n6_file, None)):
        inst = parse_instance(path.read_text())
        assert run_greedy(inst).reason == "no-color-available"
        assert set(vars(inst)) <= VIEWS
        assert run_matrix_method(inst).reason == reason
        assert set(vars(inst)) <= VIEWS


def test_copies_run_like_fresh_instances(example):
    run_greedy(example)
    for twin in (copy.copy(example), copy.deepcopy(example), pickle.loads(pickle.dumps(example))):
        # a copy carries the views cached so far
        assert twin == example and set(vars(twin)) == set(vars(example))
        assert _outcome(run_matrix_method(twin, TRACED)) == _outcome(
            run_matrix_method(_fresh(example), TRACED)
        )
    assert set(vars(example)) <= VIEWS


@pytest.mark.parametrize("greedy_first", [True, False])
def test_successes_are_the_certified_dicts(monkeypatch, example, greedy_first):
    certified = []
    verify = matrix_engine.verify_proper

    def recording(inst, coloring):
        certified.append(coloring)
        return verify(inst, coloring)

    monkeypatch.setattr(matrix_engine, "verify_proper", recording)
    if greedy_first:
        greedy = run_greedy(example)
        engine = run_matrix_method(example)
    else:
        engine = run_matrix_method(example)
        greedy = run_greedy(example)
    assert greedy.ok and engine.ok
    assert greedy.colors is not engine.colors
    assert any(c is greedy.colors for c in certified)
    assert any(c is engine.colors for c in certified)


@pytest.mark.parametrize("greedy_first", [True, False])
def test_certification_is_not_skipped(monkeypatch, example, greedy_first):
    def conflicted(inst, coloring):
        return VerifyReport(conflicts=((1, "a", "b", 1),), colors_used=1, max_color=1)

    assert run_greedy(_fresh(example)).ok
    monkeypatch.setattr(matrix_engine, "verify_proper", conflicted)
    methods = [run_greedy, run_matrix_method]
    for method in methods if greedy_first else methods[::-1]:
        assert method(example).reason == "internal-verification"


def _public_calls(inst: Instance):
    """Each public call on ``inst``, by name, made as it is yielded."""
    greedy = run_greedy(inst)
    yield "run_greedy"
    traced = run_matrix_method(inst, TRACED)
    yield "run_matrix_method traced"
    tight = run_matrix_method(inst, EngineConfig(repair_budget=1))
    yield "run_matrix_method repair_budget=1"
    check_sy1(inst)
    yield "check_sy1"
    check_sy2_all(inst)
    check_sy2_all(inst, "proof")
    yield "check_sy2_all"
    theorem_identity(inst)
    yield "theorem_identity"
    corollary_bound_check(inst)
    yield "corollary_bound_check"
    for result in (greedy, traced, tight):
        if result.ok:
            verify_proper(inst, result.colors)
    yield "verify_proper"
    serialize_instance(inst)
    yield "serialize_instance"
    export_dot(inst)
    export_dot(inst, traced.coloring)
    yield "export_dot"
    core_subgraph(inst)
    yield "core_subgraph"
    # dense(10) has a core of 45 vertices, above the default limit
    is_n_colorable(inst, vertex_limit=45)
    yield "is_n_colorable"
    start = initial_matrix(inst)
    yield "initial_matrix"
    replay_trace(inst, traced.trace, start)
    yield "replay_trace"
    for result in (greedy, traced, tight):
        result.final_matrix
    yield "final_matrix"


def test_no_public_call_leaves_state(corpus500, gap_n8_file):
    # the corpus instances are shared by the whole session, and each keeps
    # whatever the tests before this one cached on it
    covers = [*corpus500, parse_instance(gap_n8_file.read_text()), gen_dense(10)]
    for idx, inst in enumerate(covers):
        for call in _public_calls(inst):
            assert set(vars(inst)) <= VIEWS, (idx, call)
