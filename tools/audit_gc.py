#!/usr/bin/env python3
"""Where the garbage collector runs in a cold audit, as the benchmark's client runs it.

    python3 tools/audit_gc.py N K Q

The tool starts tools/audit_gc_probe.py in a fresh interpreter, whose only
code is that probe. It imports perfbench/client.py as a module, so the
interpreter holds what the benchmark's audit client holds before its op
(client.py's main does not run, and no byte code is written). Then it runs
one run_all_audits at (N, K, Q) and reports gc.get_count() just before the
op, and every collection inside it, with its generation and how many
objects it collected, from gc.callbacks. A second fresh interpreter runs
the same op with gc disabled and reports "allocated", the net count of
tracked allocations inside the op, which no collection resets there. The
tool prints both as one JSON line. Since this file's own code never runs
in the probe's interpreter, an edit here leaves count_before as it was.

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

import json
import subprocess
import sys
from pathlib import Path

PROBE = Path(__file__).resolve().parent / "audit_gc_probe.py"


def _run_probe(*args: str) -> str:
    return subprocess.run(
        [sys.executable, str(PROBE), *args], capture_output=True, text=True, check=True
    ).stdout


def main(argv: list[str]) -> int:
    if len(argv) != 3 or not all(a.isdecimal() for a in argv):
        print("usage: audit_gc.py N K Q", file=sys.stderr)
        return 2
    found = json.loads(_run_probe(*argv))
    found["allocated"] = int(_run_probe("--allocated", *argv))
    print(json.dumps(found))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
