"""Closed-loop benchmark of reflekt: one client, one thread, one workload.

    python3 perfbench/run.py --workload binary_queries --seed 1 --seconds 25 --trace 0

A set-up imports reflekt from ./src afresh, builds the first pass of seeded
inputs and warms one op of each kind.  The run times one set-up, then runs
whole passes of ops until --seconds have passed and at least 100 ops have
run, timing another set-up after each pass; setup_s is their median.  Every
output is checked against the independent oracles in oracles.py; on the
workload's reference seed the outputs of the first pass must also hash to
the digest recorded in workloads.json.  An op that raises or passes the
workload's deadline is a failed op; its elapsed time still enters the
latencies.

--trace 0 reports the end-to-end metrics.  --trace 1 wraps the library's
entry points on every other pass, starting with the first, and reports the
per-layer metrics, with the spans written to
perfbench/out/<workload>/spans.jsonl.  After its passes a traced run also
makes the workload's probes (inputs that a known defect of the library
makes pass the deadline; see Workload.probes), once each and outside the op
count.  --smoke runs one op of each kind.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The exit code is 1 if an output check or the digest fails, and 2
if the program under test is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import statistics
import sys
from time import perf_counter

from oracles import OracleFailure
from tracing import Deadline, DeadlineExceeded, Tracer, quantile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_OPS = 100  # so that ten samples lie beyond op_p90_ms
# set-ups are spread over the whole run, between passes, and their median
# reported: set-ups timed back to back, in a second or two, see only the
# host's speed of that second, which drifts by a fifth from one to the next
SETUP_REPS = 5


def load_spec():
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        return json.load(fh)


def pass_rng(name, seed, label):
    return random.Random(f"{name}/{seed}/{label}")


def pass_digest(entries, excluded=()):
    """sha256 over (op index, kind, output) of a pass, skipping excluded ops."""
    h = hashlib.sha256()
    for i, kind, value in entries:
        if i not in excluded:
            h.update(json.dumps([i, kind, value], sort_keys=True).encode() + b"\n")
    return h.hexdigest()


def check_digest(reference, entries, failed_ops):
    """Compare the first pass with a recorded reference.

    Ops the reference lists as failed (past their deadline) are left out of
    the hash, so a later fix that makes them finish keeps the digest; any
    other op failing now is a mismatch.  Returns (ok, message).
    """
    excluded = set(reference["failed_ops"])
    lost = sorted(set(failed_ops) - excluded)
    if lost:
        return False, f"ops {lost} failed but completed in the reference"
    got = pass_digest(entries, excluded)
    if got != reference["sha256"]:
        return False, f"digest {got} != reference {reference['sha256']}"
    return True, "digest matches the reference"


def rate(passes):
    """Median over passes of ops per second spent inside the ops.

    The client's own checks are not timed; the median over passes keeps a
    burst of load from other processes on the machine out of the figure.
    """
    return statistics.median(len(ts) / sum(ts) for ts in passes)


def execute(wl, kind, args, deadline):
    """Run one op under the deadline; returns (status, output, seconds)."""
    t0 = perf_counter()
    try:
        with deadline:
            out = wl.run(kind, args)
        status = "ok"
    except DeadlineExceeded:
        status, out = "deadline", None
    except Exception as exc:  # a raising op is a failed op; the loop goes on
        status, out = "error", f"{type(exc).__name__}: {exc}"
    dt = perf_counter() - t0
    if status == "ok" and dt > deadline.seconds:
        status = "deadline"
    return status, out, dt


class Run:
    def __init__(self, name, seed, spec, smoke):
        from workloads import SNF, TRACED, WORKLOADS  # imports reflekt, once src is on the path

        self.name, self.seed, self.spec = name, seed, spec
        self.kinds = spec["kinds"]
        self.per_kind = 1 if smoke else spec["ops_per_kind"]
        self.traced_targets, self.snf = TRACED, SNF
        self.out_dir = os.path.join(HERE, "out", name)
        os.makedirs(self.out_dir, exist_ok=True)
        self.tracer = Tracer()
        self.wl = WORKLOADS[name](self.tracer, self.out_dir)
        self.deadline = Deadline(spec["deadline_s"])
        self.wrong = []
        self.setup_times = []

    def judge(self, kind, args, status, out):
        if status != "ok":
            print(f"failed op {kind}: {status} {out or ''}", file=sys.stderr)
            return
        try:
            self.wl.check(kind, args, out)
        except OracleFailure as exc:
            self.wrong.append(f"{kind}{args!r:.200}: {exc}")

    def setup(self):
        """Time one set-up: import reflekt afresh, generate the first pass and
        warm one op of each kind on fresh inputs.

        The warm-up inputs depend on the repetition but not on the seed, so
        every run times the same set-up work."""
        rep = len(self.setup_times)
        t0 = perf_counter()
        import_reflekt()
        self.first = self.make_pass(0)
        warm = self.wl.warm_ops(pass_rng(self.name, "warm", rep), self.kinds)
        for kind, args in warm:
            status, out, _ = execute(self.wl, kind, args, self.deadline)
            self.judge(kind, args, status, out)
        self.setup_times.append(perf_counter() - t0)
        # the discarded modules are garbage; collect it outside the passes
        gc.collect()

    def make_pass(self, p):
        return self.wl.make_pass(pass_rng(self.name, self.seed, p), self.kinds,
                                 self.per_kind, p == 0)

    def run_pass(self, p, ops, traced, lat):
        """Run one pass; returns the first pass's digest entries and failed ops."""
        entries, failed_ops = [], []
        for i, (kind, args) in enumerate(ops):
            self.tracer.begin_op((p, i), traced)
            status, out, dt = execute(self.wl, kind, args, self.deadline)
            self.tracer.on = False
            lat.append(dt)
            self.judge(kind, args, status, out)
            if status != "ok":
                failed_ops.append(i)
            elif p == 0:
                self.wl.tally(kind, out)
                entries.append((i, kind, self.wl.digest(kind, out)))
        return entries, failed_ops

    def probe(self):
        """Run the workload's probes once, traced, outside attempted and failed."""
        with self.tracer.instrument(self.traced_targets):
            for i, (kind, args) in enumerate(self.wl.probes()):
                self.tracer.begin_op(("probe", i), True)
                status, out, _ = execute(self.wl, kind, args, self.deadline)
                self.tracer.on = False
                if status == "ok":  # the defect is fixed: check the answer
                    self.judge(kind, args, status, out)
                else:
                    print(f"probe {kind}: {status}", file=sys.stderr)

    def loop(self, seconds, trace, min_passes, min_ops, min_setups):
        """Run whole passes, each followed by a set-up, until `seconds` have
        passed, at least `min_ops` untraced ops and `min_setups` set-ups have
        run; returns per-pass latencies keyed by traced."""
        lat = {False: [], True: []}
        failed = 0
        start = perf_counter()
        p = 0
        while True:
            ops = self.first if p == 0 else self.make_pass(p)
            traced = trace and p % 2 == 0
            lat[traced].append([])
            with self.tracer.instrument(self.traced_targets if traced else ()):
                pass_entries, pass_failed = self.run_pass(p, ops, traced, lat[traced][-1])
            if p == 0:
                entries, failed_ops = pass_entries, pass_failed
            failed += len(pass_failed)
            p += 1
            if (p >= min_passes and perf_counter() - start >= seconds
                    and sum(map(len, lat[False])) >= min_ops
                    and len(self.setup_times) >= min_setups):
                return lat, entries, failed_ops, failed
            self.setup()

    def main(self, seconds, trace, smoke):
        self.setup()
        # a traced run reports no latencies or set-up, so it needs no minimum
        # op or set-up count
        full = not (smoke or trace)
        lat, entries, failed_ops, failed = self.loop(
            0 if smoke else seconds, trace, 2 if trace else 1,
            MIN_OPS if full else 0, SETUP_REPS if full else 0)
        passes = len(lat[False]) + len(lat[True])
        untraced = [dt for ts in lat[False] for dt in ts]
        attempted = len(untraced) + sum(map(len, lat[True]))

        digest = pass_digest(entries, set(failed_ops))
        print(f"{self.name} seed {self.seed}: {attempted} ops in {passes} passes, "
              f"{failed} failed, {len(self.wrong)} wrong")
        print(f"first pass: sha256 {digest}, failed ops {failed_ops}")
        ref = self.spec["smoke_reference" if smoke else "reference"]
        digest_ok = True
        if ref["seed"] == self.seed:
            digest_ok, msg = check_digest(ref, entries, failed_ops)
            print(("" if digest_ok else "DIGEST MISMATCH: ") + msg)
        for w in self.wrong[:20]:
            print(f"WRONG OUTPUT {w}")

        if trace:
            self.probe()
            metrics = self.tracer.layer_metrics()
            metrics.update({k: (v, "count") for k, v in self.wl.counts.items()})
            # from the first pass only, so that the figure is fixed by the seed
            bits = self.tracer.values(self.snf, lambda op: op[0] == 0)
            metrics["intlinalg.snf_max_bits"] = (max(bits, default=0), "count")
            metrics["trace.overhead_ratio"] = (rate(lat[True]) / rate(lat[False]), "ratio")
            self.tracer.write(os.path.join(self.out_dir, "spans.jsonl"))
        else:
            rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {
                "setup_s": (statistics.median(self.setup_times), "s"),
                "ops_per_s": (rate(lat[False]), "ops/s"),
                "op_p50_ms": (1e3 * quantile(untraced, 0.5), "ms"),
                "op_p90_ms": (1e3 * quantile(untraced, 0.9), "ms"),
                "failed_ops_ratio": (failed / attempted, "ratio"),
                "peak_rss_mib": (rss_mib, "MiB"),
            }
        for k, (v, unit) in metrics.items():
            print(f"  {k:28s} {v:>16.6g} {unit}")

        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            reported = json.load(fh)["per_layer" if trace else "end_to_end"]
        names = [m["name"] for m in reported]
        correct = digest_ok and not self.wrong
        print(json.dumps({
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in names},
        }))
        return 0 if correct else 1


def import_reflekt():
    """Import reflekt afresh, then put back the modules loaded before.

    The run keeps one copy of the library, the one its workload imported,
    whose caches warm over the passes; the fresh copy is discarded.  The
    first call, with nothing loaded, keeps what it imports."""
    def ours(name):
        return name == "reflekt" or name.startswith("reflekt.")

    loaded = {m: sys.modules.pop(m) for m in list(sys.modules) if ours(m)}
    import reflekt  # noqa: F401
    if loaded:
        for m in [m for m in sys.modules if ours(m)]:
            del sys.modules[m]
        sys.modules.update(loaded)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one tiny pass per mode, for the benchmark's own test")
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "reflekt", "__init__.py")):
        print(f"error: the program under test is missing: no {src}/reflekt",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload not in spec:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(spec)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import_reflekt()  # the first import may compile; it is not timed
    run = Run(args.workload, args.seed, spec[args.workload], args.smoke)
    return run.main(args.seconds, bool(args.trace), args.smoke)


if __name__ == "__main__":
    sys.exit(main())
