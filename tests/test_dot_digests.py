"""Byte-identity pins for the DOT export, with and without a coloring.

Each digest is the sha256 over, per instance in order, :func:`export_dot` of
the instance with the matrix method's total coloring, or with no coloring for
the ``uncolored`` pins.  The values were computed once and must never be
updated to follow a code change: a mismatch means the exported graph text
moved.
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


def _uncolored_digest(instances: Iterable[Instance]) -> str:
    h = hashlib.sha256()
    for inst in instances:
        h.update(export_dot(inst).encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def test_uncolored_dense_2_to_40():
    assert _uncolored_digest(gen_dense(n) for n in range(2, 41)) == (
        "09ec3367b431743515808c048e0bf7e6a681b46d19ea62e2cd8c6c81cb1c5c76"
    )


def test_uncolored_corpus_first_100(corpus500):
    assert _uncolored_digest(corpus500[:100]) == (
        "f638bc7243427104afe833dd543c32d95bf441757af4889935b41f61b9e8695f"
    )
