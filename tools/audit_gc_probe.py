"""The probe of tools/audit_gc.py: the only code of the interpreter it runs in.

    python3 tools/audit_gc_probe.py [--allocated] N K Q

audit_gc.py starts this script in a fresh interpreter, so that what the
interpreter holds before the op is the benchmark's audit client and this
probe, and no edit to audit_gc.py moves count_before. It prints the JSON
of probe(N, K, Q), or with --allocated the count of allocated(N, K, Q).
"""
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


if __name__ == "__main__":
    counting = sys.argv[1] == "--allocated"
    shape = [int(a) for a in sys.argv[1 + counting :]]
    load_client()
    print(allocated(*shape) if counting else json.dumps(probe(*shape)))
