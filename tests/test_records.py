"""The public record types: construction, field access, repr, equality,
immutability and the tuple protocol, and what the package exports.  The range
checks of ``GenSpec`` and ``EngineConfig`` are pinned next to their modules'
other tests."""

from __future__ import annotations

import os
import pathlib
import pickle
import subprocess
import sys
import types

import pytest

from efl.generators import GenSpec, RandomBuildResult, gen_dense
from efl.greedy import CliqueCount, HypothesisReport
from efl.instance import CoreGraph, DegreeProfile, Instance, ValidationReport, Violation
from efl.matrix_engine import (
    Assigned,
    BudgetExhausted,
    ColoringResult,
    EngineConfig,
    RepairRecolored,
    RepairSkipped,
    run_matrix_method,
)
from efl.oracle import CheckReport, CheckRow, VerifyReport

_VIOLATION = Violation("shared-pair", (1, 2), ("a", "b"), "cliques 1 and 2 share 2")
_VIOLATION_REPR = (
    "Violation(kind='shared-pair', cliques=(1, 2), tokens=('a', 'b'), "
    "message='cliques 1 and 2 share 2')"
)

# (record type, field values in order, exact repr)
RECORDS = [
    (Assigned, ("v", 1), "Assigned(vertex='v', color=1)"),
    (RepairRecolored, ("v", 1, 2), "RepairRecolored(vertex='v', old_color=1, new_color=2)"),
    (RepairSkipped, ("v",), "RepairSkipped(vertex='v')"),
    (BudgetExhausted, (), "BudgetExhausted()"),
    (EngineConfig, (5, True), "EngineConfig(repair_budget=5, trace_enabled=True)"),
    (
        Violation,
        ("shared-pair", (1, 2), ("a", "b"), "cliques 1 and 2 share 2"),
        _VIOLATION_REPR,
    ),
    (ValidationReport, ((_VIOLATION,),), f"ValidationReport(violations=({_VIOLATION_REPR},))"),
    (
        DegreeProfile,
        ({"a": 2, "b": 1}, {1: 1, 2: 1}, 2),
        "DegreeProfile(degree_of={'a': 2, 'b': 1}, histogram={1: 1, 2: 1}, max_degree=2)",
    ),
    (
        VerifyReport,
        (((1, "a", "b", 3),), 3, 4),
        "VerifyReport(conflicts=((1, 'a', 'b', 3),), colors_used=3, max_color=4)",
    ),
    (CheckRow, (2, 3, 6), "CheckRow(m=2, count=3, bound=6)"),
    (
        CheckReport,
        ((CheckRow(2, 3, 6),),),
        "CheckReport(rows=(CheckRow(m=2, count=3, bound=6),))",
    ),
    (CliqueCount, (1, 2, 3), "CliqueCount(clique=1, count=2, bound=3)"),
    (
        HypothesisReport,
        ((CliqueCount(1, 2, 3),), "d=2", 2),
        "HypothesisReport(per_clique=(CliqueCount(clique=1, count=2, bound=3),), "
        "parameter='d=2', first_failing_d=2)",
    ),
    (
        GenSpec,
        ("random", 6, 7, 10, 30),
        "GenSpec(kind='random', n=6, seed=7, merges=10, extension_percent=30)",
    ),
    (
        RandomBuildResult,
        (Instance(1, [("a",)]), 3, 4),
        "RandomBuildResult(instance=Instance(n=1, vertices=1), merges_done=3, "
        "extensions_done=4)",
    ),
    (
        ColoringResult,
        (Instance(1, [("a",)]), {"a": 1}, None, [Assigned("a", 1)]),
        "ColoringResult(instance=Instance(n=1, vertices=1), colors={'a': 1}, "
        "reason=None, trace=[Assigned(vertex='a', color=1)])",
    ),
    (
        CoreGraph,
        (("a", "b"), {"a": (1, 2), "b": (1, 2)}),
        "CoreGraph(vertices=('a', 'b'), incidence={'a': (1, 2), 'b': (1, 2)})",
    ),
]

FIELDS = {
    Assigned: ("vertex", "color"),
    RepairRecolored: ("vertex", "old_color", "new_color"),
    RepairSkipped: ("vertex",),
    BudgetExhausted: (),
    EngineConfig: ("repair_budget", "trace_enabled"),
    Violation: ("kind", "cliques", "tokens", "message"),
    ValidationReport: ("violations",),
    DegreeProfile: ("degree_of", "histogram", "max_degree"),
    VerifyReport: ("conflicts", "colors_used", "max_color"),
    CheckRow: ("m", "count", "bound"),
    CheckReport: ("rows",),
    CliqueCount: ("clique", "count", "bound"),
    HypothesisReport: ("per_clique", "parameter", "first_failing_d"),
    GenSpec: ("kind", "n", "seed", "merges", "extension_percent"),
    RandomBuildResult: ("instance", "merges_done", "extensions_done"),
    ColoringResult: ("instance", "colors", "reason", "trace"),
    CoreGraph: ("vertices", "incidence"),
}

_ids = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=_ids)
def test_construct_by_position_and_keyword(cls, values, text):
    names = FIELDS[cls]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    for record in (by_position, by_keyword):
        assert type(record) is cls
        assert [getattr(record, name) for name in names] == list(values)
        assert repr(record) == text
    assert by_position == by_keyword


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=_ids)
def test_records_are_immutable(cls, values, text):
    record = cls(*values)
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    with pytest.raises(AttributeError):
        record.not_a_field = 0
    assert repr(record) == text


@pytest.mark.parametrize(
    "record, text",
    [
        (EngineConfig(), "EngineConfig(repair_budget=None, trace_enabled=False)"),
        (
            GenSpec("random", 6),
            "GenSpec(kind='random', n=6, seed=0, merges=0, extension_percent=20)",
        ),
        (
            Violation("clique-size", (3,)),
            "Violation(kind='clique-size', cliques=(3,), tokens=(), message='')",
        ),
        (ValidationReport(), "ValidationReport(violations=())"),
        (
            HypothesisReport((), "sqrt(n)"),
            "HypothesisReport(per_clique=(), parameter='sqrt(n)', first_failing_d=None)",
        ),
    ],
    ids=["EngineConfig", "GenSpec", "Violation", "ValidationReport", "HypothesisReport"],
)
def test_defaults(record, text):
    assert repr(record) == text


@pytest.mark.parametrize(
    "make",
    [
        lambda: GenSpec("random", 6, 7, 10, 30),
        lambda: GenSpec(kind="random", n=6, seed=7, merges=10, extension_percent=30),
        lambda: EngineConfig(5, True),
        lambda: EngineConfig(repair_budget=5, trace_enabled=True),
    ],
    ids=["GenSpec-position", "GenSpec-keyword", "EngineConfig-position", "EngineConfig-keyword"],
)
def test_equal_parameters_compare_and_hash_equal(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_different_parameters_differ():
    assert GenSpec("random", 6, 7) != GenSpec("random", 6, 8)
    assert EngineConfig(5) != EngineConfig(6)
    assert EngineConfig() != EngineConfig(trace_enabled=True)


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=_ids)
def test_records_are_tuples(cls, values, text):
    record = cls(*values)
    assert cls._fields == FIELDS[cls]
    assert tuple(record) == values and len(record) == len(values)
    assert all(record[i] is value for i, value in enumerate(values))
    assert record == values  # equal to a plain tuple of the same values
    assert bool(record) == bool(values)  # only the empty BudgetExhausted() is falsy


def test_engine_events_are_plain_records(corpus500):
    # the engine builds its events through tuple.__new__, not the records'
    # own constructors; each must still be exactly the record they build
    events = (Assigned, RepairRecolored, RepairSkipped, BudgetExhausted)
    covers = [*corpus500, *(gen_dense(n) for n in range(2, 41))]
    seen = set()
    for inst in covers:
        # the default budget, and a budget of 3 that ends some runs
        for budget in (None, 3):
            trace = run_matrix_method(inst, EngineConfig(budget, trace_enabled=True)).trace
            for ev in trace:
                assert type(ev) in events
                assert ev == type(ev)(*ev)
            copied = pickle.loads(pickle.dumps(trace))
            assert list(map(type, copied)) == list(map(type, trace))
            assert repr(copied) == repr(trace)
            seen.update(map(type, trace))
    assert seen == set(events)


@pytest.mark.parametrize(
    "record, change, message",
    [
        (GenSpec("random", 6), {"n": 1}, "n=1 too small for a random cover"),
        (GenSpec("random", 6), {"seed": -1}, "seed must lie in 0..2^64-1, got -1"),
        (EngineConfig(), {"repair_budget": 0}, "repair_budget must be at least 1"),
    ],
)
def test_replace_and_make_run_the_range_checks(record, change, message):
    values = {**record._asdict(), **change}.values()
    for make in (lambda: record._replace(**change), lambda: type(record)._make(values)):
        with pytest.raises(ValueError) as refused:
            make()
        assert str(refused.value) == message


def test_all_names_resolve_and_none_is_a_module():
    # __all__ once listed the submodules, which ``from efl import *`` then bound
    import efl

    namespace: dict = {}
    exec("from efl import *", namespace)  # a name that does not resolve raises
    del namespace["__builtins__"]
    assert sorted(namespace) == efl.__all__ and "run_matrix_method" in namespace
    assert [n for n, v in namespace.items() if isinstance(v, types.ModuleType)] == []


def test_import_leaves_dataclasses_unloaded():
    # every efl command pays for ``import efl``; no record needs the module
    root = pathlib.Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, efl; print('dataclasses' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
