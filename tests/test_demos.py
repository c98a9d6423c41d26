"""Every demo script runs to completion against the package sources, deterministically."""

from __future__ import annotations

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout; pinned once and never updated to follow a change
STDOUT_SHA256 = {
    "01_instances_and_structure.py": "426cd8ec9d83bf009b6fc8511f0b14965900a0bb158bb25e7e1250b1f31eec1c",
    "02_matrix_method_walkthrough.py": "d3a720f127d9f7d050d7f5c7aeab59319d6f3d088dcf63d6aec5841e26f677f1",
    "03_greedy_and_sufficient_conditions.py": "2d0c02caa90dc80e32277484ccd89a26278963a25a812285d899984585307a21",
    "04_exact_oracles_and_identities.py": "83092c12cc3685bae0789f03c41a1b99a830878497a335ac5d708318be694d96",
}


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    """Each demo exits 0 with warnings as errors and prints its pinned bytes
    under two string-hash seeds."""
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-W", "error", str(demo)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0]
    assert outputs[0] == outputs[1]
    digest = hashlib.sha256(outputs[0].encode()).hexdigest()
    assert digest == STDOUT_SHA256[demo.name]
