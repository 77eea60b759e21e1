#!/usr/bin/env python3
"""CPU per networked retrieval, per process, as the benchmark's retrieve-tcp runs it.

    python3 tools/retrieve_cpu.py [R]

The tool provisions (N, K, q) = (2, 2, 257) in a temporary directory,
starts two ``spircr serve`` processes on loopback and runs R retrievals
(default 15000) in this process with run_client_retrieval, after a warm-up.
This process and both servers share one CPU, as perfbench/run.py pins
them. It prints one JSON line: the client's CPU per retrieval (getrusage)
and each server's (utime + stime from /proc/<pid>/stat), in µs, and their
sum. One over that sum bounds retrievals per second on one CPU, so a
change that moves retrieve-tcp reads this before and after to name the
process that moved.
"""
from __future__ import annotations

import json
import os
import re
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHAPE = (2, 2, 257)
WARMUP = 500
LISTENING = re.compile(r"listening on (.+):(\d+)")


def stat_cpu_s(stat: str, ticks_per_s: int) -> float:
    """utime + stime of one /proc/<pid>/stat line, in seconds. The command
    name in parentheses may hold spaces, so fields count from its end."""
    fields = stat[stat.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / ticks_per_s


def per_retrieval_us(before: float, after: float, retrievals: int) -> float:
    return round((after - before) / retrievals * 1e6, 2)


def report(retrievals: int, client: tuple[float, float], servers: list[tuple[float, float]]) -> dict:
    """The JSON record from each process's (before, after) CPU seconds."""
    client_us = per_retrieval_us(*client, retrievals)
    server_us = [per_retrieval_us(*s, retrievals) for s in servers]
    return {
        "params": list(SHAPE),
        "retrievals": retrievals,
        "client_us": client_us,
        "server_us": server_us,
        "total_us": round(client_us + sum(server_us), 2),
    }


def _client_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _server_cpu_s(pid: int) -> float:
    return stat_cpu_s(Path(f"/proc/{pid}/stat").read_text(), os.sysconf("SC_CLK_TCK"))


def measure(retrievals: int) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from spircr import Seed, SchemeParams, load_user_file, provision, run_client_retrieval

    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    params = SchemeParams.create(*SHAPE)
    procs: list[subprocess.Popen] = []
    with tempfile.TemporaryDirectory(prefix="retrieve-cpu-") as tmp:
        master = Seed.from_text("retrieve-cpu")
        state_path, user_path = provision(
            params, master.derive("messages"), master.derive("pool"), master.derive("user"), tmp
        )
        user = load_user_file(user_path)[1]
        try:
            addresses = []
            for db in range(1, params.N + 1):
                proc = subprocess.Popen(
                    [sys.executable, "-m", "spircr.cli", "serve", "--state", str(state_path),
                     "--db-index", str(db), "--port", "0"],
                    env=env, stdout=subprocess.PIPE, text=True,
                )
                procs.append(proc)
                match = LISTENING.search(proc.stdout.readline())
                if not match:
                    raise RuntimeError(f"server {db} printed no listening address")
                addresses.append((match.group(1), int(match.group(2))))

            def retrieve(op: int) -> None:
                seed = Seed.from_text(f"retrieve-cpu/query/{op}")
                run_client_retrieval(addresses, params, op % params.K + 1, user, seed)

            for op in range(WARMUP):
                retrieve(op)
            client = [_client_cpu_s()]
            servers = [[_server_cpu_s(p.pid)] for p in procs]
            t0 = time.perf_counter()
            for op in range(WARMUP, WARMUP + retrievals):
                retrieve(op)
            wall = time.perf_counter() - t0
            client.append(_client_cpu_s())
            for cpu, proc in zip(servers, procs):
                cpu.append(_server_cpu_s(proc.pid))
        finally:
            for proc in procs:
                proc.terminate()
                proc.communicate(timeout=15)
    out = report(retrievals, tuple(client), [tuple(s) for s in servers])
    out["wall_us"] = round(wall / retrievals * 1e6, 2)
    return out


def main(argv: list[str]) -> int:
    if len(argv) > 1 or not all(a.isdecimal() and int(a) > 0 for a in argv):
        print("usage: retrieve_cpu.py [R]", file=sys.stderr)
        return 2
    print(json.dumps(measure(int(argv[0]) if argv else 15000)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
