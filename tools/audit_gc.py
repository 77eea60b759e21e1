#!/usr/bin/env python3
"""Where the garbage collector runs in a cold audit, as the benchmark's client runs it.

    python3 tools/audit_gc.py N K Q

In a fresh interpreter the tool imports perfbench/client.py as a module,
so the interpreter holds what the benchmark's audit client holds before
its op (client.py's main does not run, and no byte code is written). Then
it runs one run_all_audits at (N, K, Q) and prints one JSON line:
gc.get_count() just before the op, and every collection inside it, with
its generation and how many objects it collected, from gc.callbacks.

An audit op's latency moves by a collection more or less, so a change
that moves a cold audit's time reads this before and after: an empty
"collections" list on both sides means no collection fell inside the op.
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


def main(argv: list[str]) -> int:
    if len(argv) != 3 or not all(a.isdecimal() for a in argv):
        print("usage: audit_gc.py N K Q", file=sys.stderr)
        return 2
    load_client()
    print(json.dumps(probe(*map(int, argv))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
