"""Byte-identity pins for the coloring engines.

Each digest is the sha256 over, per instance in order, the rendered trace, the
rendered final matrix, the failure reason and the sorted coloring listing.  The
values were computed once and must never be updated to follow a code change: a
mismatch means the engine's observable behaviour moved.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import pytest

from efl.generators import gen_dense
from efl.greedy import run_greedy
from efl.matrix_engine import ColoringResult, EngineConfig, render_trace, run_matrix_method

TRACED = EngineConfig(trace_enabled=True)
TRACED_BUDGET_3 = EngineConfig(repair_budget=3, trace_enabled=True)


def _listing(coloring) -> str:
    if coloring is None:
        return "-"
    return "\n".join(f"{v} {c}" for v, c in sorted(coloring.items()))


def _digest(parts: Iterable[str]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def _engine_parts(results: Iterable[ColoringResult]) -> Iterable[str]:
    for r in results:
        yield render_trace(r.trace)
        yield r.final_matrix.render()
        yield str(r.reason)
        yield _listing(r.coloring)


def _greedy_parts(results: Iterable[ColoringResult]) -> Iterable[str]:
    for r in results:
        yield r.status
        yield str(r.reason)
        yield _listing(r.coloring)


def test_dense_2_to_50():
    results = (run_matrix_method(gen_dense(n), TRACED) for n in range(2, 51))
    assert _digest(_engine_parts(results)) == (
        "863f29c32251a8443f8e455072cab1d96a9fb8a0ae660d90cfe0bced0eb03269"
    )


def test_corpus500_engine(corpus500):
    results = (run_matrix_method(inst, TRACED) for inst in corpus500)
    assert _digest(_engine_parts(results)) == (
        "5de822db0d88155c930f0a333d5d58dd2540c2a5e7415510e068fd7e9a616c9a"
    )


def test_dense_5_to_20_budget_3():
    results = (run_matrix_method(gen_dense(n), TRACED_BUDGET_3) for n in range(5, 21))
    assert _digest(_engine_parts(results)) == (
        "9e7adc570a7e20a55615f06d80cb2b8f6c95d019624653efb4f458961dd2635e"
    )


def test_corpus500_greedy(corpus500):
    results = (run_greedy(inst) for inst in corpus500)
    assert _digest(_greedy_parts(results)) == (
        "d4568c8c144bddc88f835f5246aecbdde2c6dfa3c4b2e60930ef301bbe8f5bf7"
    )


def test_dense_51_to_64():
    results = (run_matrix_method(gen_dense(n), TRACED) for n in range(51, 65))
    assert _digest(_engine_parts(results)) == (
        "afdd89f29cd8472219099684098bacd06c587092be1ce6191bdf78fce92db65b"
    )


def test_dense_51_to_64_greedy():
    results = (run_greedy(gen_dense(n)) for n in range(51, 65))
    assert _digest(_greedy_parts(results)) == (
        "a44fa0174de014aa9a3fdcca58ae9f86ad3926c02bc3f9feec118e3afb99a810"
    )


@pytest.mark.parametrize("family", ["dense", "corpus", "budget3"])
def test_traced_and_untraced_agree(family, corpus500):
    # the engine builds trace events only when tracing; everything else it
    # returns must not depend on that
    if family == "dense":
        cases = [(gen_dense(n), None) for n in range(2, 65)]
    elif family == "corpus":
        cases = [(inst, None) for inst in corpus500]
    else:
        cases = [(gen_dense(n), 3) for n in range(5, 21)]
    for inst, budget in cases:
        plain = run_matrix_method(inst, EngineConfig(repair_budget=budget))
        traced = run_matrix_method(
            inst, EngineConfig(repair_budget=budget, trace_enabled=True)
        )
        assert plain.trace is None and traced.trace is not None
        assert (plain.status, plain.reason) == (traced.status, traced.reason)
        assert plain.final_matrix == traced.final_matrix
        if plain.coloring is None:
            assert traced.coloring is None
        else:
            assert list(plain.coloring.items()) == list(traced.coloring.items())
