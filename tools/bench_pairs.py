#!/usr/bin/env python3
"""Alternating benchmark pairs of two git revisions, summarised as one BENCH JSON.

    python3 tools/bench_pairs.py PARENT_REV CHANGE_REV --workload audit-n1k8 \\
        --pairs 10 --seconds 30 --seed-base 18101 --out BENCH_name.json

Each revision is exported with ``git archive`` into its own temporary
directory, and every run is ``perfbench/run.py --trace 0`` inside one of
them, one run at a time. Pair i runs both sides on seed seed-base + i; the
parent goes first in even pairs and the change in odd ones. With
``--trace-seconds`` each workload ends with one ``--trace 1`` run per side.

Every run has PYTHONDONTWRITEBYTECODE=1 in its environment, and the tool
refuses to go on if a copy holds a ``__pycache__``: byte code left by one
run would make the side that runs second import faster than the first.

The output has, per workload and per metric, the runs, median, q1 and q3 of
each side and how many pairs the change won; a tie counts for neither side.
Each metric also carries its bound from BENCHMARK.json's end_to_end list and
a verdict against it (see verdict): the no-regression rule every change is
held to. What the change does, the claim and any notes are for its author
to add.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


class PairsError(Exception):
    pass


def export(rev: str, dest: Path) -> None:
    """Write the committed tree of rev into dest, as git archive gives it."""
    tar = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):  # Python >= 3.10.12, 3.11.4
            archive.extractall(dest, filter="data")
        else:
            archive.extractall(dest)
    check_no_bytecode(dest)


def check_no_bytecode(tree: Path) -> None:
    found = sorted(str(p.relative_to(tree)) for p in tree.rglob("__pycache__"))
    if found:
        raise PairsError(f"{tree} holds byte code: {', '.join(found)}")


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in tree; its last stdout line is the result."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    check_no_bytecode(tree)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise PairsError(f"{tree.name} {workload} seed {seed} printed no result: {done.stderr.strip()}")
    check_no_bytecode(tree)
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = quantiles(values, n=4)
    return q1, q3


def summarize(parent: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    """Per-metric summary of paired end-to-end results; pair i is
    (parent[i], change[i]). better maps each metric to "higher" or "lower"."""
    if not parent or len(parent) != len(change):
        raise ValueError("need at least one pair, and one run per side in each")
    pairs = len(parent)
    out = {
        "pairs": pairs,
        "all_correct": all(r["correct"] for r in parent + change),
        "failed_ops": {side: sum(r["failed"] for r in runs) for side, runs in zip(SIDES, (parent, change))},
        "attempted_ops": {side: sum(r["attempted"] for r in runs) for side, runs in zip(SIDES, (parent, change))},
        "metrics": {},
    }
    for name, direction in better.items():
        sides = {}
        for side, runs in zip(SIDES, (parent, change)):
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q3 = quartiles(values)
            sides[side] = {
                "median": round(median(values), 4), "q1": round(q1, 4), "q3": round(q3, 4),
                "runs": [round(v, 4) for v in values],
            }
        sign = 1 if direction == "higher" else -1
        wins = sum(
            sign * (c["metrics"][name]["value"] - p["metrics"][name]["value"]) > 0
            for p, c in zip(parent, change)
        )
        base = sides["parent"]["median"]
        out["metrics"][name] = {
            "unit": parent[0]["metrics"][name]["unit"],
            "better": direction,
            **sides,
            "change_wins": f"{wins}/{pairs}",
            "change_vs_parent": round((sides["change"]["median"] - base) / base, 4) if base else None,
        }
    return out


def resolved(metric: dict) -> bool:
    """Won in at least nine pairs of ten, and the medians differ by more
    than the parent's quartile spread."""
    wins, pairs = map(int, metric["change_wins"].split("/"))
    spread = metric["parent"]["q3"] - metric["parent"]["q1"]
    gap = abs(metric["change"]["median"] - metric["parent"]["median"])
    return wins * 10 >= pairs * 9 and gap > spread


def verdict(metric: dict, bound: float) -> str:
    """better: every change run reads better than every parent run;
    unresolved: otherwise, when the parent's quartile spread, (q3 - q1)
    over its median, is wider than the bound; worse: otherwise, when the
    change's median is worse than the parent's by more than the bound;
    within: in every other case."""
    sign = 1 if metric["better"] == "higher" else -1
    parent, change = metric["parent"], metric["change"]
    if min(sign * v for v in change["runs"]) > max(sign * v for v in parent["runs"]):
        return "better"
    base = parent["median"]
    if parent["q3"] - parent["q1"] > bound * abs(base):
        return "unresolved"
    if sign * (change["median"] - base) < -bound * abs(base):
        return "worse"
    return "within"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("parent_rev")
    parser.add_argument("change_rev")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10, choices=range(1, 1001), metavar="PAIRS")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--trace-seconds", type=float, default=0, help="0: no traced runs")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = [args.seed_base + i for i in range(args.pairs)]
    doc: dict = {
        "command": (f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} "
                    "--trace 0, from git archive copies of each revision, PYTHONDONTWRITEBYTECODE=1"),
        "host": f"{os.cpu_count()}-core {platform.machine()}, Python {platform.python_version()}",
        "method": (f"{args.pairs} alternating pairs of {args.parent_rev} (parent) and "
                   f"{args.change_rev} (change), the parent first in even pairs; one seed per pair"),
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side, rev in zip(SIDES, (args.parent_rev, args.change_rev)):
            export(rev, trees[side])
        for workload in args.workload:
            results: dict[str, list[dict]] = {side: [] for side in SIDES}
            for i, seed in enumerate(seeds):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    results[side].append(run_once(trees[side], workload, seed, args.seconds, 0))
                print(f"{workload} pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)
            doc[workload] = {"seeds": seeds, **summarize(results["parent"], results["change"], better)}
            for name, metric in doc[workload]["metrics"].items():
                metric["bound"] = bounds[name]
                metric["verdict"] = verdict(metric, bounds[name])
                print(f"{workload} {name}: {metric['parent']['median']} -> {metric['change']['median']} "
                      f"({metric['change_wins']}, resolved: {resolved(metric)}, "
                      f"verdict: {metric['verdict']})", file=sys.stderr)
            if args.trace_seconds:
                doc.setdefault(f"trace_seed_{seeds[0]}", {})[workload] = {
                    side: run_once(trees[side], workload, seeds[0], args.trace_seconds, 1)
                    for side in SIDES
                }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except PairsError as e:
        print(f"bench_pairs: {e}", file=sys.stderr)
        sys.exit(1)
