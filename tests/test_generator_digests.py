"""Byte-identity pins for the generators.

Each random digest is the sha256 over, per spec in order, the serialized
instance and the ``merges_done,extensions_done`` counts of
:func:`build_random`; each family digest is the sha256 over, per n in order,
the serialized instance.  A ``NUL`` byte ends every entry.  The values were
computed once and must never be updated to follow a code change: a mismatch
means the generator's output moved, and with it every corpus, fixture and
benchmark instance built from a seed or an n.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

from efl.export import serialize_instance
from efl.generators import GenSpec, build_random, gen_dense, gen_disjoint
from support import corpus_specs


def _digest(specs: Iterable[GenSpec]) -> str:
    h = hashlib.sha256()
    for spec in specs:
        built = build_random(spec)
        h.update(serialize_instance(built.instance).encode("utf-8"))
        h.update(f"{built.merges_done},{built.extensions_done}".encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def _grid() -> Iterable[GenSpec]:
    """n 2..16 with 0, C(n,2)//3 and C(n,2) merges, extension 0, 50 and 100 %, seeds 1 and 2."""
    for n in range(2, 17):
        full = n * (n - 1) // 2
        for merges in (0, full // 3, full):
            for ext in (0, 50, 100):
                for seed in (1, 2):
                    yield GenSpec(
                        kind="random", n=n, seed=seed, merges=merges, extension_percent=ext
                    )


def _grid_large() -> Iterable[GenSpec]:
    """n 17..40 (the benchmark grows covers up to n = 20) with C(n,2)//3 and C(n,2)
    merges, extension 20 and 80 %, seeds 1 and 2."""
    for n in (17, 20, 25, 32, 40):
        full = n * (n - 1) // 2
        for merges in (full // 3, full):
            for ext in (20, 80):
                for seed in (1, 2):
                    yield GenSpec(
                        kind="random", n=n, seed=seed, merges=merges, extension_percent=ext
                    )


def test_corpus500():
    assert _digest(corpus_specs(500)) == (
        "9f3bbc0bba227a285683c4979eaff0e12ba3a1d4825e32c1b054d3f9ab0cf2e6"
    )


def test_grid():
    assert _digest(_grid()) == (
        "25bf41410d8a1724af766810b2114be5bbc524d238d3eb7f23c33e1bb7eb29df"
    )


def test_grid_large():
    assert _digest(_grid_large()) == (
        "9ca5d79c5dd11616acc9df9403e230498dca4e6572be7795f2611b1e29fa4eed"
    )


def _family_digest(gen, ns: Iterable[int]) -> str:
    h = hashlib.sha256()
    for n in ns:
        h.update(serialize_instance(gen(n)).encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def test_dense_family():
    assert _family_digest(gen_dense, range(2, 61)) == (
        "ba60203c9808a994cca555e2560bed9aa1532d0bb1a19f23ef14a044854fee92"
    )


def test_disjoint_family():
    assert _family_digest(gen_disjoint, range(1, 31)) == (
        "0826bb13ab09f1186ec7cdb823c81a3827bd420bebf920fe37620ede38f3f1bb"
    )
