#!/usr/bin/env python3
"""Where the garbage collector runs in a cold audit, as the benchmark's client runs it.

    python3 tools/audit_gc.py N K Q

In a fresh interpreter the tool imports perfbench/client.py as a module,
so the interpreter holds what the benchmark's audit client holds before
its op (client.py's main does not run, and no byte code is written). Then
it runs one run_all_audits at (N, K, Q) and prints one JSON line:
gc.get_count() just before the op, and every collection inside it, with
its generation and how many objects it collected, from gc.callbacks; and
"allocated", the net count of tracked allocations inside the op, read in a
second fresh interpreter that runs the same op with gc disabled, so that
no collection resets the count.

An audit op's latency moves by a collection more or less, so a change
that moves a cold audit's time reads this before and after: an empty
"collections" list on both sides means no collection fell inside the op.
A generation-0 collection falls inside the op once count_before[0] plus
the objects it holds at some point pass gc.get_threshold()[0]; "allocated"
is what it holds at its end, a floor of that peak. So "allocated" shows
whether a change added objects that the op keeps, and count_before whether
it added them before the op.
"""
from __future__ import annotations

import gc
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_client():
    """Import perfbench/client.py with src and perfbench on sys.path, as
    perfbench/run.py starts it, writing no byte code under either. The
    module is kept in sys.modules, as a running client keeps its own."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    spec = importlib.util.spec_from_file_location("client", ROOT / "perfbench" / "client.py")
    client = sys.modules["client"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(client)
    return client


def probe(n: int, k: int, q: int) -> dict:
    """gc.get_count() once the params exist, as client.audit reads them
    before it starts its clock, and each collection run_all_audits makes."""
    from spircr import SchemeParams, run_all_audits

    params = SchemeParams.create(n, k, q)
    collections: list[dict] = []

    def record(phase: str, info: dict) -> None:
        if phase == "stop":
            collections.append({"generation": info["generation"], "collected": info["collected"]})

    before = gc.get_count()
    gc.callbacks.append(record)
    try:
        run_all_audits(params)
    finally:
        gc.callbacks.remove(record)
    return {"params": [n, k, q], "count_before": list(before), "collections": collections}


def allocated(n: int, k: int, q: int) -> int:
    """The net count of tracked allocations inside one run_all_audits at
    (n, k, q): gc.get_count()[0] after it less before it, with gc disabled."""
    from spircr import SchemeParams, run_all_audits

    params = SchemeParams.create(n, k, q)
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = gc.get_count()[0]
        run_all_audits(params)
        return gc.get_count()[0] - before
    finally:
        if enabled:
            gc.enable()


def main(argv: list[str]) -> int:
    counting = argv[:1] == ["--allocated"]
    shape = argv[1:] if counting else argv
    if len(shape) != 3 or not all(a.isdecimal() for a in shape):
        print("usage: audit_gc.py N K Q", file=sys.stderr)
        return 2
    load_client()
    if counting:
        print(allocated(*map(int, shape)))
        return 0
    found = probe(*map(int, shape))
    import subprocess  # only now: the probe reads the client's state, and client.py has no subprocess

    child = subprocess.run(
        [sys.executable, __file__, "--allocated", *shape], capture_output=True, text=True, check=True
    )
    found["allocated"] = int(child.stdout)
    print(json.dumps(found))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
