"""The benchmark's recorded answers hold: a smoke run of each workload on its
reference seed passes every oracle check and matches the recorded digest,
and so does the full first pass of binary_queries and of lattice_algebra.

The run works in a copy of perfbench next to a link to this tree's src, so
that its output directory is made under tmp_path, not under perfbench.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    shutil.copytree(ROOT / "perfbench", root / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    (root / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return root


@pytest.mark.parametrize("workload", ["binary_queries", "lattice_algebra", "certify"])
def test_smoke_run_matches_the_recorded_digest(bench_root, workload):
    proc = subprocess.run(
        [sys.executable, str(bench_root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--smoke"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "digest matches the reference" in proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


@pytest.mark.parametrize("workload", ["binary_queries", "lattice_algebra"])
def test_full_first_pass_matches_the_recorded_digest(bench_root, workload):
    # the smoke pass runs one op of each kind; the full first pass of
    # binary_queries repeats forms, so its answers come through the cycle
    # and mu memos, and that of lattice_algebra holds every rank-6 root
    # search
    proc = subprocess.run(
        [sys.executable, str(bench_root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "0",
         "--trace", "0"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "digest matches the reference" in proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
