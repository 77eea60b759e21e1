"""Output checks computed apart from the program under test.

Nothing here imports spircr. A retrieval is checked against the message and
pool symbols read straight from the provisioned state file's documented
layout (one JSON header line, a newline, then every symbol as a
little-endian u32: the K messages row by row, then the pool), against
answers recomputed from those symbols, and against the paper's rate
formulas as exact fractions. Audit reports are checked for their verdicts.
Each check returns a list of problems; an empty list means the output is
correct.
"""
from __future__ import annotations

import json
import re
import struct
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

AUDIT_NAMES = ("reliability", "user-privacy", "database-privacy", "cr-difference")
_EXACT_LEAK = re.compile(r"I = (\d+(?:/\d+)?) \(exact\)")


@dataclass(frozen=True)
class State:
    """Messages and pool of one provisioned state file."""

    n: int
    k: int
    q: int
    messages: tuple[tuple[int, ...], ...]
    pool: tuple[int, ...]


def pool_size(n: int, k: int) -> int:
    """Pool symbols of the scheme: 1 + N + ... + N^(K-1), or K when N = 1."""
    return k if n == 1 else (n**k - 1) // (n - 1)


def read_state(path: str | Path) -> State:
    """Parse a state file from its byte layout alone."""
    raw = Path(path).read_bytes()
    head, newline, body = raw.partition(b"\n")
    if not newline:
        raise ValueError(f"{path}: no header line")
    params = json.loads(head.decode("utf-8"))["params"]
    n, k, q = int(params["N"]), int(params["K"]), int(params["q"])
    length, rs = n**k, pool_size(n, k)
    if len(body) != 4 * (k * length + rs):
        raise ValueError(f"{path}: {len(body)} body octets, expected {4 * (k * length + rs)}")
    values = struct.unpack(f"<{k * length + rs}I", body)
    messages = tuple(values[i * length : (i + 1) * length] for i in range(k))
    return State(n, k, q, messages, values[k * length :])


def capacity_rates(n: int, k: int) -> dict[str, Fraction]:
    """d = 1 + 1/N + ... + 1/N^(K-1), rho_s = pool/L, rho_u = 1/N^K."""
    return {
        "d": sum((Fraction(1, n**i) for i in range(k)), Fraction(0)),
        "rho_s": Fraction(k) if n == 1 else Fraction(n**k - 1, (n - 1) * n**k),
        "rho_u": Fraction(1, n**k),
    }


def check_retrieval(core: dict, state: State) -> list[str]:
    """Check one transcript core (``Transcript.core()``) against the state."""
    problems: list[str] = []
    p = core["params"]
    if (p["N"], p["K"], p["q"]) != (state.n, state.k, state.q):
        return [f"transcript instance {p} differs from the state file"]
    q, length, rs = state.q, state.n**state.k, len(state.pool)

    desired = core["desired"]
    expected = list(state.messages[desired - 1])
    if core["decoded"] != expected:
        wrong = [i + 1 for i, (a, b) in enumerate(zip(core["decoded"], expected)) if a != b]
        problems.append(f"decoded W{desired} differs from the state file at symbols {wrong[:8]}")

    user = core["user"]
    if not 1 <= user["index"] <= rs or state.pool[user["index"] - 1] != user["value"]:
        problems.append(f"user holds S{user['index']}={user['value']}, not a pool entry")

    if len(core["query"]) != state.n or len(core["answers"]) != state.n:
        problems.append(f"{len(core['query'])} queries and {len(core['answers'])} answers for N={state.n}")
    for db, (reqs, vals) in enumerate(zip(core["query"], core["answers"]), start=1):
        if len(reqs) != len(vals):
            problems.append(f"db{db}: {len(vals)} answers for {len(reqs)} requests")
            continue
        masks = sorted(r["cr"] for r in reqs if r["cr"] is not None)
        if len(masks) != len(reqs) or masks != list(range(1, rs + 1)):
            problems.append(f"db{db}: pool indices {masks} are not a permutation of 1..{rs}")
        for r, value in zip(reqs, vals):
            if not all(1 <= m <= state.k and 1 <= s <= length for m, s in r["terms"]):
                problems.append(f"db{db}: request terms {r['terms']} out of range")
                continue
            total = sum(state.messages[m - 1][s - 1] for m, s in r["terms"])
            if r["cr"] is not None and 1 <= r["cr"] <= rs:
                total += state.pool[r["cr"] - 1]
            if value != total % q:
                problems.append(f"db{db}: answer {value} to {r}, recomputed {total % q}")

    rates = {name: Fraction(text) for name, text in core["rates"].items()}
    if rates != capacity_rates(state.n, state.k):
        problems.append(f"rates {core['rates']} differ from the capacity formulas")
    return problems


def check_audit_reports(reports: list[dict]) -> list[str]:
    """Every honest audit must be present, passed and exact."""
    names = tuple(r["name"] for r in reports)
    if names != AUDIT_NAMES:
        return [f"audit reports {names}, expected {AUDIT_NAMES}"]
    return [
        f"{r['name']}: passed={r['passed']} exact={r['exact']}: {r['value']}"
        for r in reports
        if r["passed"] is not True or r["exact"] is not True
    ]


def exact_leak(report: dict) -> Fraction | None:
    """The leak a failed report states in exact q-ary units, if it states one."""
    match = _EXACT_LEAK.search(report["value"])
    return Fraction(match.group(1)) if match else None


def check_fault_reports(measured: dict, reference: dict) -> list[str]:
    """A planted unmasked request must flip database privacy to FAIL.

    ``measured`` is the fault at the workload's instance; ``reference`` is
    the fault at (N,K,q) = (1,2,2), where the user sees one uniform symbol
    of an undesired message, an exact leak of one q-ary unit.
    """
    problems = []
    for label, report in (("measured", measured), ("reference", reference)):
        if report["name"] != "database-privacy" or report["passed"] is not False:
            problems.append(f"{label} instance: planted fault did not fail database privacy: {report}")
    if exact_leak(reference) != 1:
        problems.append(f"reference leak is not exactly 1 q-ary unit: {reference['value']}")
    return problems
