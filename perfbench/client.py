"""Benchmark client process: the one process that drives spircr's load.

run.py starts it with ``src`` on PYTHONPATH. It imports spircr, prints a
ready line, reads one JSON job from stdin, runs it, checks every output and
prints one JSON result line. Jobs:

  retrieve  closed-loop retrievals over TCP, one in flight
  audit     one run_all_audits in this (cold) interpreter
  fault     database privacy with an unmasked request planted
"""
from __future__ import annotations

import json
import sys
import time

_t0 = time.perf_counter()
import spircr  # noqa: E402  (the import is what proc.import_spircr_s times)

IMPORT_S = time.perf_counter() - _t0

from spircr import (  # noqa: E402
    SchemeParams,
    Seed,
    database_privacy_audit,
    load_user_file,
    run_all_audits,
    run_client_retrieval,
    sim,
)

import checks  # noqa: E402
import tracing  # noqa: E402

WARMUP_ROUNDS = 25
DEAL_CALLS = 25  # traced run: deals of the run's seeds, timed after the load
MAX_PROBLEMS = 5


def retrieve(job: dict) -> dict:
    params = SchemeParams.create(job["n"], job["k"], job["q"])
    state = checks.read_state(job["epoch"]["state"])
    user = load_user_file(job["epoch"]["user"])[1]
    addresses = [tuple(a) for a in job["endpoints"]]

    tracer = None
    latencies: list[float] = []
    problems: list[str] = []
    errors: list[str] = []
    attempted = failed = wrong = 0
    op = 0
    start = None
    while True:
        measuring = op >= WARMUP_ROUNDS * params.K
        if measuring and start is None:
            start = time.perf_counter()
            if job["trace"]:
                tracer = tracing.Tracer()
                tracing.install_client(tracer)
        # one round asks for every message once, so every run is whole rounds
        for desired in range(1, params.K + 1):
            query_seed = Seed.from_text(f"{job['seed']}/query/{op}")
            if tracer:
                tracer.begin_op()
            t0 = time.perf_counter()
            try:
                transcript = run_client_retrieval(addresses, params, desired, user, query_seed)
            except Exception as e:  # a failed op is counted and reported, not fatal
                transcript = None
                error = f"op {op}: {type(e).__name__}: {e}"
            elapsed = time.perf_counter() - t0
            if tracer:
                tracer.end_op()
            op += 1
            if measuring:
                attempted += 1
            if transcript is None:
                failed += measuring
                if len(errors) < MAX_PROBLEMS:
                    errors.append(error)
                continue
            found = checks.check_retrieval(transcript.core(), state)
            if found:
                wrong += 1
                problems.extend(found[: MAX_PROBLEMS - len(problems)])
            if measuring:
                latencies.append(elapsed)
        if start is not None and time.perf_counter() - start >= job["seconds"]:
            break
    if tracer:
        # The servers' state was dealt by `spircr provision` in set-up; deal
        # the same seeds here, where the tracer can time it.
        master = Seed.from_text(job["epoch"]["seed"])
        for _ in range(DEAL_CALLS):
            sim.deal(params, master.derive("messages"), master.derive("pool"), master.derive("user"))
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "problems": problems,
        "errors": errors,
        "latencies": latencies,
        "trace": tracer.dump() if tracer else None,
    }


def audit(job: dict) -> dict:
    params = SchemeParams.create(job["n"], job["k"], job["q"])
    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer()
        tracing.install_audit(tracer)
        tracer.begin_op()
    t0 = time.perf_counter()
    reports = run_all_audits(params)
    elapsed = time.perf_counter() - t0
    result = {"latency": elapsed, "rss_mb": tracing.peak_rss_mb()}
    if tracer:
        tracer.end_op()
        enumerate_tables = spircr.audit.tables_for_seed.__wrapped__
        tracer.ops[-1]["audit.tables"] = sum(
            len(enumerate_tables(params, desired, seed))
            for desired in range(1, params.K + 1)
            for seed in range(1, params.rs_size + 1)
        )
        result["trace"] = tracer.dump()
    result["reports"] = [r.to_dict() for r in reports]
    return result


def fault(job: dict) -> dict:
    measured = database_privacy_audit(SchemeParams.create(job["n"], job["k"], job["q"]), "unmask-one")
    reference = database_privacy_audit(SchemeParams.create(1, 2, 2), "unmask-one")
    return {"measured": measured.to_dict(), "reference": reference.to_dict()}


JOBS = {"retrieve": retrieve, "audit": audit, "fault": fault}


def main() -> int:
    print(json.dumps({"ready": True}), flush=True)
    line = sys.stdin.readline()
    if not line:
        return 0
    job = json.loads(line)
    result = JOBS[job["kind"]](job)
    result.setdefault("rss_mb", tracing.peak_rss_mb())
    result["import_s"] = IMPORT_S
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
