"""Traced database server: ``spircr serve`` with per-frame timings.

Usage: serve_traced.py STATE_FILE DB_INDEX

Serves the same DatabaseServer as ``spircr serve`` on an ephemeral loopback
port and prints the same "listening on host:port" line. On SIGINT it stops
the server, times that stop, and prints one JSON line with its per-call
layer timings.
"""
from __future__ import annotations

import json
import signal
import sys
import time

_t0 = time.perf_counter()
import spircr  # noqa: E402,F401  (the import is what proc.import_spircr_s times)

IMPORT_S = time.perf_counter() - _t0

from spircr import load_database_state, serve_database  # noqa: E402

import tracing  # noqa: E402


def main(state_path: str, db_index: int) -> int:
    state = load_database_state(state_path)
    server = serve_database(state, db_index)
    tracer = tracing.Tracer()
    tracing.install_server(tracer, server)
    host, port = server.address
    print(f"database {db_index} listening on {host}:{port}", flush=True)
    try:
        signal.pause()
    except KeyboardInterrupt:
        pass
    t0 = time.perf_counter()
    server.stop()
    stop_s = time.perf_counter() - t0
    print(json.dumps({"calls": tracer.dump()["calls"], "stop_s": stop_s, "import_s": IMPORT_S}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
