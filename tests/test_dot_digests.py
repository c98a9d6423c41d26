"""Byte-identity pins for the DOT export of engine colorings.

Each digest is the sha256 over, per instance in order, :func:`export_dot` of
the instance with the matrix method's total coloring.  The values were
computed once and must never be updated to follow a code change: a mismatch
means the exported graph text moved.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

from efl.export import export_dot
from efl.generators import gen_dense
from efl.instance import Instance
from efl.matrix_engine import run_matrix_method


def _digest(instances: Iterable[Instance]) -> str:
    h = hashlib.sha256()
    for inst in instances:
        result = run_matrix_method(inst)
        h.update(export_dot(inst, result.coloring).encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def test_dense_2_to_40():
    assert _digest(gen_dense(n) for n in range(2, 41)) == (
        "f3c6370944461a73f9f815bf162acabd30a0d4f736470a2da2529e2582596863"
    )


def test_corpus_first_100(corpus500):
    assert _digest(corpus500[:100]) == (
        "91b0f9df60f188bd1fe56af1023cb50282fd3f1a3c826b04f34f5069c914ecf7"
    )
