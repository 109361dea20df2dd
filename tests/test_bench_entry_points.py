"""The benchmark's traced entry points exist in the library.

A traced pass of `perfbench/run.py` wraps every (owner, attribute) of
`workloads.TRACED`, reading `owner.__dict__[attribute]`; a library rename
or deletion would crash it.  This test imports the workloads module
without writing bytecode under perfbench and checks the same lookup.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_entry_point_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        workloads = importlib.import_module("workloads")
        missing = [f"{owner.__name__}.{attr}"
                   for owner, attr, _, _ in workloads.TRACED
                   if attr not in owner.__dict__]
    finally:
        for name in ("workloads", "oracles"):
            sys.modules.pop(name, None)
    assert len(workloads.TRACED) > 0
    assert missing == []
