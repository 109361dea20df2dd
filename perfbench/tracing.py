"""Spans around calls into reflekt, and the per-op deadline.

A span is (name, start, end, op id, parent span, failed, value), with
names of the form "<module>.<function>".  In a traced pass the library's
entry points are swapped for wrappers (`Tracer.instrument`).  The modules
call one another through module and class attributes, so a call made
inside another traced call records a child span, and a span's self time is
its own time without its children.  Spans live in memory and are written
out once, when the run ends.  Untraced passes run the library unwrapped.
"""

from __future__ import annotations

import json
import signal
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("arith", "intlinalg", "lattice", "binary", "roots", "construct",
          "serialize", "cli")


class Tracer:
    def __init__(self):
        self.on = False
        self.op_id = None
        self.spans = []
        self._stack = []

    def begin_op(self, op_id, on):
        """Start a new op.  The stack is reset because a deadline can
        interrupt a span between its bookkeeping steps."""
        self.op_id, self.on = op_id, on
        self._stack.clear()

    def call(self, name, fn, *args, measure=None, **kwargs):
        """fn(*args, **kwargs) inside a span; `measure(out)`, if given, is
        stored as the span's value."""
        if not self.on:
            return fn(*args, **kwargs)
        start = perf_counter()
        # marked failed (and zero-length) until the call returns
        rec = [name, start, start, self.op_id,
               self._stack[-1] if self._stack else None, True, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            out = fn(*args, **kwargs)
            rec[5] = False
            if measure is not None:
                rec[6] = measure(out)
            return out
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    @contextmanager
    def instrument(self, targets):
        """Wrap each (owner, attribute, span name, measure) for the duration.

        Owners are modules and classes; static methods stay static."""
        saved = []
        for owner, attr, name, measure in targets:
            orig = owner.__dict__[attr]
            fn = orig.__func__ if isinstance(orig, staticmethod) else orig
            wrapped = self._wrap(name, fn, measure)
            setattr(owner, attr, staticmethod(wrapped) if fn is not orig else wrapped)
            saved.append((owner, attr, orig))
        try:
            yield
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def _wrap(self, name, fn, measure):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, measure=measure, **kwargs)
        return traced

    def values(self, name, op_filter):
        """Values stored by `measure` on finished spans of `name`."""
        return [rec[6] for rec in self.spans
                if rec[0] == name and not rec[5] and op_filter(rec[3])]

    def self_times(self):
        """Each span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for _, start, end, _, parent, *_ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - c for (_, start, end, *_), c in zip(self.spans, child)]

    def layer_metrics(self) -> dict:
        """calls, busy_s (self time), p50/p90 of self time, failed; per layer."""
        per = defaultdict(list)
        failed = defaultdict(int)
        for rec, t in zip(self.spans, self.self_times()):
            layer = rec[0].split(".", 1)[0]
            per[layer].append(t)
            failed[layer] += rec[5]
        out = {}
        for layer in LAYERS:
            ts = per.get(layer, [])
            out[f"{layer}.calls"] = (len(ts), "count")
            out[f"{layer}.busy_s"] = (sum(ts), "s")
            out[f"{layer}.p50_ms"] = (1e3 * quantile(ts, 0.5), "ms")
            out[f"{layer}.p90_ms"] = (1e3 * quantile(ts, 0.9), "ms")
            out[f"{layer}.failed"] = (failed.get(layer, 0), "count")
        return out

    def write(self, path):
        names = ("name", "start", "end", "op", "parent", "failed", "value")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(names, rec))) + "\n")


def quantile(values, q):
    """The q-quantile as statistics.quantiles gives it; 0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    if q == 0.5:
        return float(statistics.median(values))
    return float(statistics.quantiles(values, n=10)[round(q * 10) - 1])


class DeadlineExceeded(BaseException):
    """Raised into a running op by SIGALRM.

    A BaseException, so that `except Exception` blocks inside the library
    cannot swallow it and let the op run on past its deadline.
    """


class Deadline:
    """`with deadline:` interrupts the body after `seconds` of wall time.

    Pure-Python loops see the signal between bytecodes, so a hang in the
    library becomes one failed op instead of a stalled run.
    """

    def __init__(self, seconds: float):
        self.seconds = seconds
        self._armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self._armed:
            self._armed = False
            raise DeadlineExceeded()

    def __enter__(self):
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc):
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        return False
