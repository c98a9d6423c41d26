"""Byte-identity pin for the exact chromatic number.

The digest is the sha256 over, per core in order, ``len(core.vertices),χ`` as
returned by :func:`chromatic_number_exact`.  It covers the dense cores 3..8 and
seeded merge-grown covers with n 7..10, 12..20 merges, extension 20 and 60 %
and seeds 0..7: 576 non-empty cores of up to 20 vertices.  In 359 of them the
greedy clique bound lies below the DSATUR color count, and in 32 of those χ
lies below that count too.  The values were computed once and must never be
updated to follow a code change: a mismatch means the oracle's answer moved.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

from efl.generators import gen_dense, gen_random
from efl.instance import CoreGraph, core_subgraph
from efl.oracle import chromatic_number_exact


def _random_cores() -> Iterable[CoreGraph]:
    for n in range(7, 11):
        for merges in range(12, 21):
            for ext in (20, 60):
                for seed in range(8):
                    core = core_subgraph(gen_random(n, merges, seed, ext))
                    if core.vertices:
                        yield core


def _digest(cores: Iterable[CoreGraph]) -> str:
    h = hashlib.sha256()
    for core in cores:
        h.update(f"{len(core.vertices)},{chromatic_number_exact(core)}".encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def test_dense_3_to_8():
    cores = [core_subgraph(gen_dense(n)) for n in range(3, 9)]
    for n, core in zip(range(3, 9), cores):
        assert chromatic_number_exact(core) == n - (n % 2 == 0)
    assert _digest(cores) == (
        "438a691720fb941cd7d7ef11874de8dba7d03e09796abbf4fb078fb49ac42da2"
    )


def test_random_cores():
    assert _digest(_random_cores()) == (
        "d01116ecb63bb67398dd440cca930678bd2c61ad297dbf03db79fdc277c4090b"
    )
