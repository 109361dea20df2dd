"""Smoke test of the benchmark itself: tiny runs, metric names, units, digest.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from run import check_digest, pass_digest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "1", "--smoke", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    # no op of a workload may fail; a known defect runs as a probe instead
    assert result["failed"] == 0
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_traced_pass_records_nested_spans():
    proc = run_bench("--workload", "lattice_algebra", "--seed", "1", "--smoke", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(os.path.join(HERE, "out", "lattice_algebra", "spans.jsonl"),
              encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    # the Smith form inside Lattice.discriminant is a child span
    nested = {(spans[s["parent"]]["name"], s["name"]) for s in spans if s["parent"] is not None}
    assert ("lattice.discriminant", "intlinalg.smith_normal_form") in nested
    # the item-2 probe, outside the ops, passes its deadline inside the Smith form
    assert any(s["failed"] and s["name"] == "intlinalg.smith_normal_form"
               and s["op"][0] == "probe" for s in spans)


def test_digest_logic():
    entries = [(0, "snf", [1, 2]), (2, "info", {"x": "1/2"})]
    ref = {"sha256": pass_digest(entries), "failed_ops": [1]}
    assert check_digest(ref, entries, [1])[0]
    # an op that passed its deadline in the reference may complete later
    assert check_digest(ref, entries + [(1, "info", [0])], [])[0]
    assert not check_digest(ref, [(0, "snf", [1, 3]), entries[1]], [1])[0]
    assert not check_digest(ref, entries[:1], [1, 2])[0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "certify", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
