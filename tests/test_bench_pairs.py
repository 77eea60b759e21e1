"""tools/bench_pairs.py's summary of paired runs; no process is started."""
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _result(latency, ops, correct=True, attempted=100, failed=0):
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "latency_p50_ms": {"value": latency, "unit": "ms"},
            "ops_per_s": {"value": ops, "unit": "1/s"},
        },
    }


BETTER = {"latency_p50_ms": "lower", "ops_per_s": "higher"}


def test_summary_counts_wins_and_ties_for_neither_side():
    parent = [_result(2.0, 500), _result(2.0, 510), _result(1.0, 520), _result(3.0, 530)]
    change = [_result(1.5, 600), _result(2.0, 510), _result(1.2, 400), _result(2.5, 700)]
    out = bench_pairs.summarize(parent, change, BETTER)
    latency, ops = out["metrics"]["latency_p50_ms"], out["metrics"]["ops_per_s"]
    # pair 2 ties on both metrics; pair 3 is a loss on both
    assert latency["change_wins"] == "2/4"
    assert ops["change_wins"] == "2/4"
    assert latency["parent"]["runs"] == [2.0, 2.0, 1.0, 3.0]
    assert latency["parent"]["median"] == 2.0
    assert latency["change"]["median"] == 1.75
    assert latency["change_vs_parent"] == -0.125
    assert (latency["unit"], latency["better"]) == ("ms", "lower")
    assert (ops["unit"], ops["better"]) == ("1/s", "higher")
    assert (out["pairs"], out["all_correct"]) == (4, True)


def test_summary_quartiles_and_op_counts():
    parent = [_result(x, 1, attempted=10, failed=1) for x in (1.0, 2.0, 3.0, 4.0, 5.0)]
    change = [_result(x, 1, correct=x != 3.0) for x in (1.0, 2.0, 3.0, 4.0, 5.0)]
    out = bench_pairs.summarize(parent, change, BETTER)
    latency = out["metrics"]["latency_p50_ms"]["parent"]
    # statistics.quantiles' default (exclusive) method, as earlier BENCH files
    assert (latency["q1"], latency["median"], latency["q3"]) == (1.5, 3.0, 4.5)
    assert out["failed_ops"] == {"parent": 5, "change": 0}
    assert out["attempted_ops"] == {"parent": 50, "change": 500}
    assert out["all_correct"] is False


def test_summary_gives_the_median_ratio_of_each_pair():
    parent = [_result(2.0, 500), _result(1.0, 400), _result(4.0, 100), _result(3.0, 200)]
    change = [_result(1.0, 600), _result(1.5, 400), _result(3.0, 300), _result(6.0, 100)]
    out = bench_pairs.summarize(parent, change, BETTER)
    latency, ops = out["metrics"]["latency_p50_ms"], out["metrics"]["ops_per_s"]
    # ratios 0.5, 1.5, 0.75, 2.0 and 1.2, 1.0, 3.0, 0.5: the median over the
    # pairs, not the ratio of the two sides' medians (0.9 and 1.1667)
    assert latency["pair_ratio_median"] == 1.125
    assert ops["pair_ratio_median"] == 1.1
    assert (latency["change_vs_parent"], ops["change_vs_parent"]) == (-0.1, 0.1667)
    # a parent run of 0 has no ratio
    out = bench_pairs.summarize([_result(0.0, 1)], [_result(1.0, 1)], BETTER)
    assert out["metrics"]["latency_p50_ms"]["pair_ratio_median"] is None
    assert out["metrics"]["ops_per_s"]["pair_ratio_median"] == 1.0


def test_summary_refuses_unpaired_runs():
    with pytest.raises(ValueError):
        bench_pairs.summarize([_result(1.0, 1)], [], BETTER)
    with pytest.raises(ValueError):
        bench_pairs.summarize([], [], BETTER)


def test_resolved_needs_nine_wins_in_ten_and_a_gap_wider_than_the_spread():
    parent = [_result(2.0 + i / 100, 1) for i in range(10)]
    faster = bench_pairs.summarize(parent, [_result(1.0, 1)] * 10, BETTER)
    assert bench_pairs.resolved(faster["metrics"]["latency_p50_ms"])
    # ops_per_s ties in every pair
    assert not bench_pairs.resolved(faster["metrics"]["ops_per_s"])
    eight = [_result(1.0, 1)] * 8 + [_result(9.0, 1)] * 2
    assert not bench_pairs.resolved(bench_pairs.summarize(parent, eight, BETTER)["metrics"]["latency_p50_ms"])
    close = [_result(p["metrics"]["latency_p50_ms"]["value"] - 0.001, 1) for p in parent]
    assert not bench_pairs.resolved(bench_pairs.summarize(parent, close, BETTER)["metrics"]["latency_p50_ms"])


def _verdicts(parent, change):
    metrics = bench_pairs.summarize(parent, change, BETTER)["metrics"]
    return {name: bench_pairs.verdict(metric, 0.25) for name, metric in metrics.items()}


def test_verdict_better_needs_every_change_run_past_every_parent_run():
    parent = [_result(2.0 + i / 100, 500 + i) for i in range(10)]
    assert _verdicts(parent, [_result(1.9, 510)] * 10) == {"latency_p50_ms": "better", "ops_per_s": "better"}
    # one change run no better than the parent's best: a 5% gain is only within
    mixed = [_result(1.9, 530)] * 9 + [_result(2.0, 500)]
    assert _verdicts(parent, mixed) == {"latency_p50_ms": "within", "ops_per_s": "within"}


def test_verdict_worse_is_a_median_past_the_bound():
    parent = [_result(2.0 + i / 100, 500 + i) for i in range(10)]
    # +50% latency and -40% ops are worse; +20% latency and -20% ops are within
    assert _verdicts(parent, [_result(3.0, 300)] * 10) == {"latency_p50_ms": "worse", "ops_per_s": "worse"}
    assert _verdicts(parent, [_result(2.4, 400)] * 10) == {"latency_p50_ms": "within", "ops_per_s": "within"}


def test_verdict_unresolved_when_the_parent_spreads_wider_than_the_bound():
    # parent quartiles 1.75 and 4.25 around a median of 3 (latency), and
    # 275 and 525 around 400 (ops): spreads of 83% and 62%
    parent = [_result(x, 100 * x + 100) for x in (1.0, 2.0, 3.0, 4.0, 5.0) * 2]
    assert _verdicts(parent, [_result(9.0, 10)] * 10) == {
        "latency_p50_ms": "unresolved", "ops_per_s": "unresolved",
    }
    # a change past every parent run is better however wide the spread
    assert _verdicts(parent, [_result(0.5, 700)] * 10) == {"latency_p50_ms": "better", "ops_per_s": "better"}


def test_a_copy_with_byte_code_is_refused(tmp_path):
    bench_pairs.check_no_bytecode(tmp_path)
    (tmp_path / "src" / "spircr" / "__pycache__").mkdir(parents=True)
    with pytest.raises(bench_pairs.PairsError, match="__pycache__"):
        bench_pairs.check_no_bytecode(tmp_path)
