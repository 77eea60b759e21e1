#!/usr/bin/env python3
"""spircr benchmark: three workloads, every output checked, one JSON line.

    python3 perfbench/run.py --workload retrieve-tcp --seed 1 --seconds 30 --trace 0

Run it from the root of a spircr checkout; the program is loaded from
``src``. Workloads:

  retrieve-tcp  run_client_retrieval at (N,K,q) = (2,2,257) against two
                ``spircr serve`` child processes over loopback
  audit-n2k2    run_all_audits at (2,2,2), a fresh interpreter per op
  audit-n1k8    run_all_audits at (1,8,2), a fresh interpreter per op

All load comes from one closed-loop client process with one op in flight.
With ``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a separate
traced run. perfbench/README.md documents the metrics and reference figures.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import socket
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, quantiles

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUPS = 3  # set-ups per retrieval run; setup_s is their median
TAIL_WINDOW = 1000  # ops per p99 window; a run with fewer reports no p99 of its own
HELLO = struct.pack(">4sBBI", b"SPIR", 1, 1, 0)  # wire.py: HELLO frame, empty payload
LISTENING = re.compile(r"listening on (.+):(\d+)")
RUN_DEADLINE_S = 170


class BenchError(Exception):
    pass


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "tcp" or "audit"
    n: int
    k: int
    q: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("retrieve-tcp", "tcp", 2, 2, 257),
        Workload("audit-n2k2", "audit", 2, 2, 2),
        Workload("audit-n1k8", "audit", 1, 8, 2),
    )
}

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# name -> (layer recorded by tracing.py, scale, unit). A layer's value is the
# median over ops of the op's total in that layer; layers that no op records
# (connect and exchange run concurrently inside an op; server layers run in
# another process) give the median over single calls instead. 0 means the
# layer does not run on the workload.
PER_LAYER = {
    "plan.build_pir_plan_us": ("plan.build_pir_plan", 1e6, "us"),
    "scheme.assign_common_randomness_us": ("scheme.assign_common_randomness", 1e6, "us"),
    "scheme.relabel_us": ("scheme.relabel", 1e6, "us"),
    "scheme.select_query_us": ("scheme.select_query", 1e6, "us"),
    "sim.deal_us": ("sim.deal", 1e6, "us"),
    "sim.answer_query_us": ("sim.answer_query", 1e6, "us"),
    "sim.decode_us": ("sim.decode", 1e6, "us"),
    "net.connect_us": ("net.connect", 1e6, "us"),
    "net.connections_per_retrieval": ("net.connections", 1, "count"),
    "net.executor_us": ("net.executor", 1e6, "us"),
    "net.exchange_us": ("net.exchange", 1e6, "us"),
    "net.server_handle_frame_us": ("net.server_handle_frame", 1e6, "us"),
    "wire.encode_query_us": ("wire.encode_query", 1e6, "us"),
    "wire.decode_answer_us": ("wire.decode_answer", 1e6, "us"),
    "wire.decode_query_us": ("wire.decode_query", 1e6, "us"),
    "wire.encode_answer_us": ("wire.encode_answer", 1e6, "us"),
    "wire.bytes_up_per_retrieval": ("wire.bytes_up", 1, "B"),
    "wire.bytes_down_per_retrieval": ("wire.bytes_down", 1, "B"),
    "wire.frames_per_retrieval": ("wire.frames", 1, "count"),
    "audit.tables": ("audit.tables", 1, "count"),
    "audit.tables_for_seed_s": ("audit.tables_for_seed", 1, "s"),
    "audit.reliability_s": ("audit.reliability", 1, "s"),
    "audit.user_privacy_s": ("audit.user_privacy", 1, "s"),
    "audit.database_privacy_s": ("audit.database_privacy", 1, "s"),
    "audit.cr_difference_s": ("audit.cr_difference", 1, "s"),
    "audit.reliability_rss_mb": ("audit.reliability_rss_mb", 1, "MB"),
    "audit.user_privacy_rss_mb": ("audit.user_privacy_rss_mb", 1, "MB"),
    "audit.database_privacy_rss_mb": ("audit.database_privacy_rss_mb", 1, "MB"),
    "audit.cr_difference_rss_mb": ("audit.cr_difference_rss_mb", 1, "MB"),
}
CALL_LAYERS = {"net.connect", "net.exchange"}
# Measured by this script rather than by a wrapper inside a spircr process.
RUN_LAYER_UNITS = {
    "net.server_start_s": "s",
    "net.server_stop_s": "s",
    "proc.import_spircr_s": "s",
    "proc.server_peak_rss_mb": "MB",
    "proc.client_peak_rss_mb": "MB",
    "trace.latency_p50_ms": "ms",
}


@dataclass
class Run:
    """What one run gathers before it is reduced to metrics."""

    latencies: list[float] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    server_starts: list[float] = field(default_factory=list)
    server_stops: list[float] = field(default_factory=list)
    imports: list[float] = field(default_factory=list)
    client_rss: list[float] = field(default_factory=list)
    server_rss: list[float] = field(default_factory=list)
    ops: list[dict] = field(default_factory=list)
    calls: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add_calls(self, calls: dict[str, list[float]]) -> None:
        for layer, values in calls.items():
            self.calls.setdefault(layer, []).extend(values)

    def add_trace(self, trace: dict | None) -> None:
        if trace:
            self.ops.extend(trace["ops"])
            self.add_calls(trace["calls"])


class Children:
    """Every process a run starts; ``close`` stops and reaps whatever is left."""

    def __init__(self) -> None:
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        self.live: list[subprocess.Popen] = []

    def start(self, *args: str) -> subprocess.Popen:
        proc = subprocess.Popen(
            [sys.executable, *args],
            cwd=ROOT,
            env=self.env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.live.append(proc)
        return proc

    def run(self, *args: str) -> None:
        done = subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True
        )
        if done.returncode != 0:
            raise BenchError(f"{args} exited with {done.returncode}")

    def stop(self, proc: subprocess.Popen, sig: int = signal.SIGTERM) -> str:
        """Signal a child, wait for it and return what it still printed."""
        if proc.poll() is None:
            proc.send_signal(sig)
        try:
            out, _ = proc.communicate(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
        if proc in self.live:
            self.live.remove(proc)
        return out or ""

    def close(self) -> None:
        for proc in list(self.live):
            self.stop(proc)


def read_json_line(proc: subprocess.Popen) -> dict:
    line = proc.stdout.readline()
    if not line:
        raise BenchError(f"child {proc.args} ended without a result (exit {proc.wait()})")
    return json.loads(line)


def start_client(children: Children) -> subprocess.Popen:
    client = children.start(str(HERE / "client.py"))
    read_json_line(client)  # ready: spircr is imported
    return client


def finish_client(children: Children, client: subprocess.Popen, job: dict, run: Run) -> dict:
    client.stdin.write(json.dumps(job) + "\n")
    client.stdin.flush()
    result = read_json_line(client)
    children.stop(client)
    run.imports.append(result["import_s"])
    run.client_rss.append(result["rss_mb"])
    return result


def vm_hwm_mb(pid: int) -> float:
    """Peak RSS of a live child, read before it is stopped."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def provision(children: Children, w: Workload, seed_text: str, out: Path) -> dict:
    children.run(
        "-m", "spircr.cli", "provision", "--n", str(w.n), "--k", str(w.k), "--q", str(w.q),
        "--seed", seed_text, "--out", str(out),
    )
    return {"state": str(out / "database_state.bin"), "user": str(out / "user.json"), "seed": seed_text}


def start_server(children: Children, state: str, db: int, trace: bool) -> tuple[subprocess.Popen, tuple[str, int]]:
    """Start one database server and wait until it answers a HELLO frame."""
    if trace:
        proc = children.start(str(HERE / "serve_traced.py"), state, str(db))
    else:
        proc = children.start("-m", "spircr.cli", "serve", "--state", state, "--db-index", str(db), "--port", "0")
    match = LISTENING.search(proc.stdout.readline())
    if not match:
        raise BenchError(f"server {db} printed no listening address")
    address = (match.group(1), int(match.group(2)))
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(HELLO)
        reply = b""
        while len(reply) < len(HELLO):
            chunk = sock.recv(len(HELLO) - len(reply))
            if not chunk:
                break
            reply += chunk
    if reply != HELLO:
        raise BenchError(f"server {db} answered HELLO with {reply!r}")
    return proc, address


def stop_servers(children: Children, servers: list, run: Run, trace: bool) -> None:
    for proc, _ in servers:
        run.server_rss.append(vm_hwm_mb(proc.pid))
        out = children.stop(proc, signal.SIGINT if trace else signal.SIGTERM)
        if trace:
            stats = json.loads(out.strip().splitlines()[-1])
            run.server_stops.append(stats["stop_s"])
            run.imports.append(stats["import_s"])
            run.add_calls(stats["calls"])


def run_retrieve_tcp(w: Workload, seconds: float, seed: int, trace: bool, out: Path, children: Children) -> Run:
    run = Run()
    client = start_client(children)
    servers: list = []
    for i in range(SETUPS):
        if servers:
            stop_servers(children, servers, Run(), trace)  # only the last pair is measured
        t0 = time.perf_counter()
        epoch = provision(children, w, f"perfbench/{w.name}/{seed}/epoch{i}", out / f"epoch{i}")
        servers = []
        for db in range(1, w.n + 1):
            ts = time.perf_counter()
            servers.append(start_server(children, epoch["state"], db, trace))
            run.server_starts.append(time.perf_counter() - ts)
        run.setups.append(time.perf_counter() - t0)
    job = {
        "kind": "retrieve", "n": w.n, "k": w.k, "q": w.q, "seed": f"perfbench/{w.name}/{seed}",
        "seconds": seconds, "trace": trace, "epoch": epoch,
        "endpoints": [address for _, address in servers],
    }
    result = finish_client(children, client, job, run)
    stop_servers(children, servers, run, trace)
    take_retrievals(run, result)
    return run


def take_retrievals(run: Run, result: dict) -> None:
    run.latencies = result["latencies"]
    run.attempted, run.failed = result["attempted"], result["failed"]
    run.problems += result["errors"] + result["problems"]
    if result["wrong"]:
        run.problems.append(f"{result['wrong']} retrievals returned wrong output")
    run.add_trace(result["trace"])


def run_audit(w: Workload, seconds: float, seed: int, trace: bool, out: Path, children: Children) -> Run:
    # Exhaustive audits have no random input: every run audits the same instance.
    run = Run()
    job = {"kind": "audit", "n": w.n, "k": w.k, "q": w.q, "trace": trace}
    start = time.perf_counter()
    while not run.attempted or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        client = start_client(children)
        run.setups.append(time.perf_counter() - t0)
        result = finish_client(children, client, job, run)
        run.attempted += 1
        run.latencies.append(result["latency"])
        run.problems += checks.check_audit_reports(result["reports"])
        run.add_trace(result.get("trace"))
    client = start_client(children)
    planted = finish_client(children, client, {"kind": "fault", "n": w.n, "k": w.k, "q": w.q}, Run())
    run.problems += checks.check_fault_reports(planted["measured"], planted["reference"])
    return run


RUNNERS = {"tcp": run_retrieve_tcp, "audit": run_audit}


def run_workload(w: Workload, seconds: float, seed: int, trace: bool, out: Path) -> tuple[Run, dict]:
    """One run of one workload: set up, measure, check, tear down."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    # Every process of the run shares one CPU, inherited from this one. On a
    # small guest, waking a process on the other CPU costs a cross-CPU wake-up
    # whose delay varied run to run and set the TCP tail.
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(affinity)})
    children = Children()
    try:
        run = RUNNERS[w.kind](w, seconds, seed, trace, out, children)
    finally:
        children.close()
        os.sched_setaffinity(0, affinity)
    metrics = per_layer(run) if trace else end_to_end(run)
    return run, metrics


def end_to_end(run: Run) -> dict:
    p50 = median(run.latencies) * 1000.0
    p99 = tail_p99(run.latencies) * 1000.0 if len(run.latencies) >= TAIL_WINDOW else p50
    values = {
        "ops_per_s": len(run.latencies) / sum(run.latencies),
        "latency_p50_ms": p50,
        "latency_p99_ms": p99,
        "setup_s": median(run.setups),
        "peak_rss_mb": max(run.client_rss + run.server_rss),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def tail_p99(latencies: list[float]) -> float:
    """Median over consecutive windows of TAIL_WINDOW ops of each window's p99.

    A tail the program makes recurs in every window. A host stall that
    covers a few percent of one run sets the p99 of that run's pooled ops,
    but only of the windows it falls in.
    """
    windows = [
        latencies[i : i + TAIL_WINDOW]
        for i in range(0, len(latencies) - TAIL_WINDOW + 1, TAIL_WINDOW)
    ]
    return median(quantiles(window, n=100)[98] for window in windows)


def per_layer(run: Run) -> dict:
    metrics = {}
    for name, (layer, scale, unit) in PER_LAYER.items():
        if layer not in CALL_LAYERS and any(layer in op for op in run.ops):
            value = median(op.get(layer, 0.0) for op in run.ops)
        elif run.calls.get(layer):
            value = median(run.calls[layer])
        else:
            value = 0.0
        metrics[name] = {"value": value * scale, "unit": unit}
    values = {
        "net.server_start_s": median(run.server_starts) if run.server_starts else 0.0,
        "net.server_stop_s": median(run.server_stops) if run.server_stops else 0.0,
        "proc.import_spircr_s": median(run.imports),
        "proc.server_peak_rss_mb": max(run.server_rss, default=0.0),
        "proc.client_peak_rss_mb": max(run.client_rss),
        "trace.latency_p50_ms": median(run.latencies) * 1000.0,
    }
    for name, unit in RUN_LAYER_UNITS.items():
        metrics[name] = {"value": values[name], "unit": unit}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spircr" / "__init__.py").is_file():
        print(f"no spircr sources under {SRC}; run from a spircr checkout", file=sys.stderr)
        return 2

    def deadline(signum, frame):
        raise BenchError(f"run exceeded {RUN_DEADLINE_S} s")

    signal.signal(signal.SIGALRM, deadline)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))  # still reap the children
    signal.alarm(RUN_DEADLINE_S)
    w = WORKLOADS[args.workload]
    out = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}"
    try:
        run, metrics = run_workload(w, args.seconds, args.seed, bool(args.trace), out)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    (out / "raw.json").write_text(json.dumps({"result": result, "latencies": run.latencies,
                                              "setups": run.setups, "ops": run.ops}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
