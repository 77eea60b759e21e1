"""Tests of the benchmark itself: a tiny smoke run of every workload, and
each output check rejecting a corrupted output.

    python -m pytest perfbench/tests -q
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from spircr import (  # noqa: E402
    RetrievalSeeds,
    SchemeParams,
    Seed,
    database_privacy_audit,
    provision,
    run_all_audits,
    run_retrieval,
)

# Same code paths as the real workloads, at instances that take seconds.
TINY = {
    "retrieve-tcp": run.WORKLOADS["retrieve-tcp"],
    "audit-n2k2": replace(run.WORKLOADS["audit-n2k2"], n=1, k=2),
    "audit-n1k8": replace(run.WORKLOADS["audit-n1k8"], n=1, k=3),
}


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_run(name, trace, tmp_path):
    result, metrics = run.run_workload(TINY[name], 0.2, 7, trace, tmp_path)
    assert result.problems == []
    assert result.attempted >= 1 and result.failed == 0
    if trace:
        assert set(metrics) == set(run.PER_LAYER) | set(run.RUN_LAYER_UNITS)
        assert metrics["proc.import_spircr_s"]["value"] > 0
    else:
        assert set(metrics) == set(run.END_TO_END)
        assert all(m["value"] > 0 for m in metrics.values())


def test_benchmark_json_matches_the_command():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {name: unit for name, (_, _, unit) in run.PER_LAYER.items()} | run.RUN_LAYER_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer


def test_p99_follows_a_recurring_tail_not_one_stall():
    window = run.TAIL_WINDOW
    # every 50th op is slow in every window: the program's own tail
    recurring = [0.010 if i % 50 == 0 else 0.002 for i in range(5 * window)]
    assert run.tail_p99(recurring) == pytest.approx(0.010)
    # a stall in one window out of five that would set the pooled p99
    stalled = [0.002] * (5 * window)
    stalled[window : window + 80] = [0.010] * 80
    assert run.quantiles(stalled, n=100)[98] == pytest.approx(0.010)
    assert run.tail_p99(stalled) == pytest.approx(0.002)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "retrieve-tcp", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.fixture(scope="module")
def retrieval(tmp_path_factory):
    """A real transcript core and the state file it was dealt from."""
    params = SchemeParams.create(2, 2, 257)
    master = Seed.from_text("perfbench-test")
    seeds = RetrievalSeeds.from_master(master)
    state_path, _ = provision(params, seeds.messages, seeds.pool, seeds.user, tmp_path_factory.mktemp("state"))
    core = run_retrieval(params, 2, seeds).core()
    return core, state_path


def test_honest_retrieval_passes(retrieval):
    core, state_path = retrieval
    assert checks.check_retrieval(core, checks.read_state(state_path)) == []


def corrupt(core: dict, edit) -> dict:
    core = copy.deepcopy(core)
    edit(core)
    return core


def flip_decoded(c):
    c["decoded"][0] = (c["decoded"][0] + 1) % 257


def wrong_answer(c):
    c["answers"][1][2] = (c["answers"][1][2] + 1) % 257


def reuse_mask(c):
    c["query"][0][1]["cr"] = c["query"][0][0]["cr"]


def unmask(c):
    c["query"][0][0]["cr"] = None


def wrong_rate(c):
    c["rates"]["d"] = "2"


@pytest.mark.parametrize(
    "edit, needle",
    [
        (flip_decoded, "decoded W2"),
        (wrong_answer, "db2: answer"),
        (reuse_mask, "not a permutation"),
        (unmask, "not a permutation"),
        (wrong_rate, "capacity formulas"),
    ],
)
def test_corrupted_retrieval_is_rejected(retrieval, edit, needle):
    core, state_path = retrieval
    problems = checks.check_retrieval(corrupt(core, edit), checks.read_state(state_path))
    assert any(needle in p for p in problems), problems


def test_decoded_is_checked_against_the_state_file_bytes(retrieval, tmp_path):
    core, state_path = retrieval
    raw = bytearray(Path(state_path).read_bytes())
    body = raw.index(b"\n") + 1
    first_w2 = body + 4 * 4  # W2[1]: after the four symbols of W1
    raw[first_w2] ^= 1
    changed = tmp_path / "state.bin"
    changed.write_bytes(bytes(raw))
    problems = checks.check_retrieval(core, checks.read_state(changed))
    assert any("decoded W2" in p for p in problems), problems


def test_capacity_rates():
    assert checks.capacity_rates(2, 2) == {"d": Fraction(3, 2), "rho_s": Fraction(3, 4), "rho_u": Fraction(1, 4)}
    assert checks.capacity_rates(3, 4) == {"d": Fraction(40, 27), "rho_s": Fraction(40, 81), "rho_u": Fraction(1, 81)}
    assert checks.capacity_rates(1, 8) == {"d": Fraction(8), "rho_s": Fraction(8), "rho_u": Fraction(1)}


@pytest.fixture(scope="module")
def reports():
    params = SchemeParams.create(1, 2, 2)
    honest = [r.to_dict() for r in run_all_audits(params)]
    planted = database_privacy_audit(params, "unmask-one").to_dict()
    return honest, planted


def test_honest_audits_and_planted_fault_pass(reports):
    honest, planted = reports
    assert checks.check_audit_reports(honest) == []
    assert checks.check_fault_reports(planted, planted) == []
    assert checks.exact_leak(planted) == 1


def test_failed_or_inexact_audit_is_rejected(reports):
    honest, _ = reports
    failed = copy.deepcopy(honest)
    failed[2]["passed"] = False
    assert checks.check_audit_reports(failed)
    sampled = copy.deepcopy(honest)
    sampled[1]["exact"] = False
    assert checks.check_audit_reports(sampled)
    assert checks.check_audit_reports(honest[:3])


def test_fault_that_does_not_flip_is_rejected(reports):
    honest, planted = reports
    assert checks.check_fault_reports(honest[2], planted)
    inexact = dict(planted, value="desired W1: information leak, I = ~1.000000")
    assert checks.check_fault_reports(planted, inexact)
    doubled = dict(planted, value="desired W1: information leak, I = 2 (exact)")
    assert checks.check_fault_reports(planted, doubled)
