"""Structural oracle for retrieval plans.

Checks a plan against the layout the scheme promises: every request a
nonempty terms tuple with messages strictly increasing, per-database subset
counts, each desired symbol requested once, each undesired symbol introduced
once, and a companion at another database for every larger desired sum. The
package builds plans and never validates them, so the checks live here,
with the one check of a fault-injected query against its honest twin.
"""
from __future__ import annotations

from spircr.plan import (
    PirPlan,
    SchemeParams,
    Terms,
    format_terms,
    messages,
    subset_count_problems,
)


def subset_rank(subset: tuple[int, ...], desired: int, n_msg: int) -> tuple[int, ...]:
    """Messages ranked cyclically starting at the desired index, so the
    desired message's own subsets come first at every size: the order of
    plan._ranked_subsets and the third key of scheme.fresh_masks."""
    return tuple(sorted((m - desired) % n_msg for m in subset))


def all_requests(plan: PirPlan) -> list[tuple[int, Terms]]:
    """(database, request) pairs, database by database, 1-based."""
    return [(db + 1, r) for db, reqs in enumerate(plan.per_db) for r in reqs]


def symbol_of(request: Terms, message: int) -> int | None:
    for m, s in request:
        if m == message:
            return s
    return None


def validate_pir_plan(plan: PirPlan, params: SchemeParams | None = None) -> list[str]:
    """Structural checks; returns human-readable violations (empty = valid)."""
    params = params or plan.params
    problems: list[str] = []
    n_db, n_msg, length = params.N, params.K, params.L
    if len(plan.per_db) != n_db:
        return [f"expected {n_db} database request lists, got {len(plan.per_db)}"]

    for db, reqs in enumerate(plan.per_db, start=1):
        counts: dict[tuple[int, ...], int] = {}
        for r in reqs:
            if not r:
                problems.append(f"db{db}: a request has no terms")
            elif any(a[0] >= b[0] for a, b in zip(r, r[1:])):
                problems.append(
                    f"db{db}: {format_terms(r)} is not strictly increasing by message"
                )
            counts[messages(r)] = counts.get(messages(r), 0) + 1
            for m, s in r:
                if not 1 <= m <= n_msg:
                    problems.append(f"db{db}: message index {m} out of range")
                if not 1 <= s <= length:
                    problems.append(f"db{db}: symbol index {s} out of range")
        problems.extend(f"db{db}: {p}" for p in subset_count_problems(params, counts))

    desired_seen: set[int] = set()
    undesired_seen: dict[tuple[int, int], tuple[int, Terms]] = {}
    for db, r in all_requests(plan):
        if plan.desired in messages(r):
            s = symbol_of(r, plan.desired)
            if s in desired_seen:
                problems.append(f"index reuse: desired symbol {s} requested more than once")
            desired_seen.add(s)  # type: ignore[arg-type]
        else:
            for m, s in r:
                key = (m, s)
                if key in undesired_seen:
                    problems.append(
                        f"index reuse: fresh symbol W{m}[{s}] introduced twice "
                        f"(db{undesired_seen[key][0]} and db{db})"
                    )
                undesired_seen[key] = (db, r)

    if len(desired_seen) != length:
        problems.append(
            f"desired symbols cover {len(desired_seen)} of {length} positions"
        )

    # Every multi-term desired request must reuse, at another database, an
    # undesired-only request over exactly its undesired terms.
    by_terms: dict[tuple[tuple[int, int], ...], int] = {}
    for db, r in all_requests(plan):
        if plan.desired not in messages(r):
            by_terms[r] = db
    for db, r in all_requests(plan):
        if plan.desired in messages(r) and len(r) >= 2:
            rest = tuple(t for t in r if t[0] != plan.desired)
            comp_db = by_terms.get(rest)
            if comp_db is None:
                problems.append(
                    f"side-information missing: db{db} has no companion for "
                    f"{format_terms(r)}"
                )
            elif comp_db == db:
                problems.append(
                    f"side-information missing: companion of {format_terms(r)} "
                    f"sits at the same database db{db}"
                )
    return problems


def assert_one_fault(honest, faulty, seed: int, mutation: str) -> None:
    """faulty is honest with exactly one request changed, its terms kept: a
    1-sum masked with the seed (seed-reuse) or sent bare (unmask-one), or a
    larger sum sent bare (bare-companion)."""
    assert [len(x) for x in honest] == [len(y) for y in faulty]
    changed = [(a, b) for x, y in zip(honest, faulty) for a, b in zip(x, y) if a != b]
    assert len(changed) == 1, changed
    (a, b), = changed
    assert b.terms == a.terms
    assert b.cr == (seed if mutation == "seed-reuse" else None)
    assert (len(a.terms) >= 2) == (mutation == "bare-companion")
