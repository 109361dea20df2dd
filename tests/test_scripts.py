"""Smoke runs of the example scripts, which use the public API end to end."""

import hashlib
import json
import runpy
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(*argv):
    proc = subprocess.run([sys.executable, *map(str, argv)], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_reflectivity_scan():
    out = _run(SCRIPTS / "reflectivity_scan.py", "--d-max", "30", "--grid", "4")
    assert out.startswith("== diagonal family x^2 - D y^2, D = 2..30\n")
    assert "D=   8  mu=   -4  root norms: " in out
    assert out.endswith("== 0 non-reflective lattices found\n")


def test_mj_demo_certificates_reverify(tmp_path):
    out = _run(SCRIPTS / "mj_demo.py", "--out", tmp_path)
    written = sorted(tmp_path.glob("*.json"))
    assert [p.stem for p in written] == ["rank8_pell", "u3_deg4", "u3_pell", "u3_primes"]
    for path in written:
        assert f"  {path}: OK\n" in out


def test_count_lines(tmp_path):
    rows = [line.split() for line in _run(SCRIPTS / "count_lines.py").splitlines()]
    names = [name for _, name in rows]
    assert names[-1] == "total" and {"binary.py", "__init__.py"} <= set(names)
    assert sum(int(n) for n, _ in rows[:-1]) == int(rows[-1][0])
    # docstrings, comments and blank lines are left out; a statement that
    # spans lines counts each of them
    (tmp_path / "m.py").write_text(
        '"""Module doc."""\n# comment\n\n'
        'def f():\n    """Doc\n    string."""\n'
        '    x = (1,\n         2)  # trailing\n    return x\n')
    assert _run(SCRIPTS / "count_lines.py", tmp_path) == (
        "     4  m.py\n     4  total\n")


# a perfbench/run.py that logs its tree and argv, prints a first-pass digest
# line for its workload (except for workload v in the change tree), then a
# result line whose ops_per_s is the tree's RATE
STUB_RUN = """\
import hashlib, json, sys
from pathlib import Path
tree = Path.cwd()
with open(tree.parent / "calls.log", "a") as log:
    print(tree.name, *sys.argv[1:], file=log)
workload = sys.argv[2]
if tree.name == "parent" or workload == "w":
    digest = hashlib.sha256(workload.encode()).hexdigest()
    print(f"first pass: sha256 {digest}, failed ops []")
print("progress")
print(json.dumps({"correct": True, "attempted": 5, "failed": 0, "metrics": {
    "ops_per_s": {"value": RATE}, "op_p50_ms": {"value": 4.0}}}))
"""


def test_bench_pairs(tmp_path):
    end_to_end = [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
                  {"name": "op_p50_ms", "better": "lower", "bound": 0.25}]
    bench = {"run_seconds": 7, "workloads": [{"name": "w"}, {"name": "v"}],
             "end_to_end": end_to_end}
    for tree, rate in (("parent", 100), ("change", 50)):
        (tmp_path / tree / "perfbench").mkdir(parents=True)
        (tmp_path / tree / "BENCHMARK.json").write_text(json.dumps(bench))
        (tmp_path / tree / "perfbench" / "run.py").write_text(
            STUB_RUN.replace("RATE", str(rate)))
    out = tmp_path / "pairs.json"
    _run(SCRIPTS / "bench_pairs.py", tmp_path / "parent", tmp_path / "change",
         "--out", out)
    # pairs alternate which tree runs first, change first in pair 1
    order = ["change", "parent", "parent", "change"] * 5
    assert (tmp_path / "calls.log").read_text().splitlines() == [
        f"{tree} --workload {w} --seed 1 --seconds 7 --trace 0"
        for w in "wv" for tree in order]
    report = json.loads(out.read_text())
    assert sorted(report) == ["pairs", "run_seconds", "runs", "seed", "summary"]
    assert [(r["workload"], r["pair"], r["tree"], r["position"])
            for r in report["runs"]] == [
        (w, k // 2 + 1, tree, k % 2) for w in "wv" for k, tree in enumerate(order)]
    assert all(r["correct"] and r["failed"] == 0 and r["attempted"] == 5
               for r in report["runs"])
    # w printed one digest in every run; v printed none in the change tree
    digest = {w: hashlib.sha256(w.encode()).hexdigest() for w in "wv"}
    assert [r["digest"] for r in report["runs"]] == [
        None if (w, tree) == ("v", "change") else digest[w]
        for w in "wv" for tree in order]
    assert [report["summary"][w]["same_outputs"] for w in "wv"] == [True, False]
    ops, p50 = (report["summary"]["w"][m] for m in ("ops_per_s", "op_p50_ms"))
    assert (ops["parent_median"], ops["change_median"], ops["change_won"],
            ops["verdict"]) == (100, 50, 0, "regressed")
    assert (p50["parent_iqr"], p50["change_won"], p50["verdict"]) == (0, 0, "ok")
    # a parent spread wider than the bound leaves the comparison open
    compare = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))["compare"]
    spread = compare([80, 100, 120, 140], [100, 100, 100, 100],
                     {"better": "higher", "bound": 0.25})
    assert (spread["parent_iqr"], spread["verdict"]) == (30, "unresolved")
