"""Run the benchmark in two trees in alternated pairs and compare them.

Usage: python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --out FILE

Each tree is a checkout holding BENCHMARK.json, perfbench/ and src/.  To
benchmark a git revision REV, extract it first:
`git archive REV | tar -x -C DIR`, then pass DIR.

For each workload of CHANGE_DIR's BENCHMARK.json, pair k = 1..10 runs
`perfbench/run.py --workload W --seed 1 --seconds S --trace 0` once in each
tree, with the tree as working directory, CHANGE_DIR first when k is odd
and PARENT_DIR first when it is even, where S is the file's run_seconds.
Each run's last stdout line is its JSON result, and its digest is the
64-hex value of its `first pass: sha256 ...` line, or null if it printed
none.

FILE gets sorted-key JSON: every run, with its correct, failed and digest,
and for each workload `same_outputs`, true iff every run of both trees
printed one digest, and for each end-to-end metric both medians, the
interquartile range of the parent's runs, the pairs the change won, and a
verdict against the metric's relative bound: "regressed" when the change's
median is worse than the parent's by more than the bound, else
"unresolved" when the parent's IQR exceeds the bound times its median,
else "ok".  The exit code is 1 when some run is not correct.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

TREES = ("parent", "change")
PAIRS = 10
DIGEST = re.compile(r"^first pass: sha256 ([0-9a-f]{64})\b", re.MULTILINE)


def run_once(tree: Path, workload: str, seconds) -> dict:
    """One benchmark run in tree: its JSON result line, as a dict, with the
    first pass's digest added under "digest"."""
    argv = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload",
            workload, "--seed", "1", "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{tree}: {workload} gave no result "
                         f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    found = DIGEST.search(proc.stdout)
    result["digest"] = found and found[1]
    return result


def iqr(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def compare(parent, change, metric: dict) -> dict:
    """Medians, parent IQR, pairs won and verdict for one metric, given the
    values of each tree in pair order."""
    sign = 1 if metric["better"] == "higher" else -1
    pm, cm = statistics.median(parent), statistics.median(change)
    spread = iqr(parent)
    if sign * (pm - cm) > metric["bound"] * abs(pm):
        verdict = "regressed"
    elif spread > metric["bound"] * abs(pm):
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {"parent_median": pm, "change_median": cm, "parent_iqr": spread,
            "change_won": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs": len(parent), "bound": metric["bound"],
            "better": metric["better"], "verdict": verdict}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_dir", type=Path)
    ap.add_argument("change_dir", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    trees = dict(zip(TREES, (args.parent_dir.resolve(), args.change_dir.resolve())))
    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))

    runs, summary = [], {}
    for workload in (w["name"] for w in bench["workloads"]):
        values = {tree: [] for tree in TREES}
        digests = set()
        for pair in range(1, PAIRS + 1):
            order = TREES[::-1] if pair % 2 else TREES
            for position, tree in enumerate(order):
                result = run_once(trees[tree], workload, bench["run_seconds"])
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                runs.append({"workload": workload, "pair": pair, "tree": tree,
                             "position": position, "correct": result["correct"],
                             "attempted": result["attempted"],
                             "failed": result["failed"], "digest": result["digest"],
                             "metrics": metrics})
                values[tree].append(metrics)
                digests.add(result["digest"])
                print(f"{workload} pair {pair} {tree}: correct {result['correct']}, "
                      f"failed {result['failed']}", file=sys.stderr)
        summary[workload] = {
            m["name"]: compare([v[m["name"]] for v in values["parent"]],
                               [v[m["name"]] for v in values["change"]], m)
            for m in bench["end_to_end"]}
        summary[workload]["same_outputs"] = len(digests) == 1 and None not in digests

    report = {"pairs": PAIRS, "run_seconds": bench["run_seconds"], "seed": 1,
              "runs": runs, "summary": summary}
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
