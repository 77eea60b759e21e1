"""Differential tests of the audits' kernels against their definitions.

  * audit._leak against rank V - rank(V without the target columns) from
    dense rows and tests/_gf.rref, on seeded random sparse views;
  * the N = 1 orbit_key against the least tuple over all rs cyclic shifts,
    the definition in spircr.audit's docstring;
  * scheme.fresh_masks against the slot order it documents, and
    assign_common_randomness' refusals of malformed plans.
"""
import random

import pytest

from _gf import rref
from _plan_oracle import subset_rank
from spircr.audit import _leak, orbit_key
from spircr.plan import PirPlan, SchemeParams, identity_plan, messages
from spircr.scheme import (
    MUTATIONS,
    SchemeError,
    SpirRequest,
    assign_common_randomness,
    canonical_table,
    fresh_masks,
    shift_cell,
)


def _rank(rows, width, q):
    return len(rref([r[:] for r in rows], q)[0]) if rows else 0


def _dense_leak(p, view, target):
    width = p.K * p.L + p.rs_size
    rows = []
    for cols in view:
        row = [0] * width
        for c in cols:
            row[c] += 1
        rows.append(row)
    off = [[0 if c in target else x for c, x in enumerate(row)] for row in rows]
    return _rank(rows, width, p.q) - _rank(off, width, p.q)


def _random_view(rng, p):
    """Rows of columns with multiplicity: empty rows, repeats whose count
    reaches q (or a multiple of it), and leads other than 1."""
    width = p.K * p.L + p.rs_size
    view = []
    for _ in range(rng.randrange(0, 12)):
        kind = rng.randrange(6)
        cols = [rng.randrange(width) for _ in range(rng.randrange(1, 6))]
        if kind == 0:
            cols = []
        elif kind == 1:  # a count that reaches q, so the column cancels
            cols += [rng.randrange(width)] * (p.q * rng.randrange(1, 3))
        elif kind == 2:  # the least column counted twice or more
            c = min(cols)
            cols += [c] * rng.randrange(1, min(p.q, 5))
        elif kind == 3 and view:  # a copy or a multiple of an earlier row
            cols = rng.choice(view) * rng.randrange(1, 4)
        rng.shuffle(cols)
        view.append(cols)
    return view


@pytest.mark.parametrize("q", [2, 3, 257])
@pytest.mark.parametrize("n,k", [(1, 4), (2, 2), (2, 3)])
def test_leak_matches_dense_rank_differences(n, k, q):
    p = SchemeParams.create(n, k, q)
    width = p.K * p.L + p.rs_size
    rng = random.Random(f"leak/{n}/{k}/{q}")
    leaks = set()
    for _ in range(300):
        view = _random_view(rng, p)
        target = set(rng.sample(range(width), rng.randrange(0, width + 1)))
        want = _dense_leak(p, view, target)
        assert _leak(p, view, target) == want, (view, sorted(target))
        leaks.add(want)
    assert len(leaks) >= 3  # the views reach zero and several nonzero leaks


def test_leak_cancels_a_column_counted_q_times():
    p = SchemeParams.create(2, 2, 3)
    # 3 X_0 = 0 over F_3, so the first row is X_5 and the view holds no X_0
    assert _leak(p, [[0, 0, 0, 5], [5]], {0}) == 0
    assert _leak(p, [[0, 0, 5], [5]], {0}) == 1
    # a lead of 2: 2 X_1 + X_4, then X_1 alone leaves X_4 in the view
    assert _leak(p, [[1, 1, 4], [1]], {4}) == 1


def _least_shift_key(p, db_query):
    """The definition: the least (terms, mask) tuple over every cyclic shift
    of the pool indices, with 0 for an unmasked request."""
    rs = p.rs_size
    return min(
        tuple((sr.terms, 0 if sr.cr is None else (sr.cr - 1 + d) % rs + 1) for sr in db_query)
        for d in range(rs)
    )


def _n1_queries(p, rng):
    # every shift of every T_k[0], honest and under each fault that applies
    for mutation in (None, *MUTATIONS):
        for desired in range(1, p.K + 1):
            try:
                rep = canonical_table(p, desired, mutation)[0]
            except SchemeError:
                continue  # bare-companion needs a larger sum, which N = 1 lacks
            for d in range(p.rs_size):
                yield shift_cell((rep,), d)[0]
    # seeded masks: the first request unmasked, shared masks, nothing masked
    terms = [((m, 1),) for m in range(1, p.K + 1)]
    masks = [None] + list(range(1, p.rs_size + 1))
    yield tuple(SpirRequest(t, None) for t in terms)
    for _ in range(200):
        crs = [rng.choice(masks) for _ in terms]
        if rng.randrange(2):
            crs[0] = None
        yield tuple(SpirRequest(t, cr) for t, cr in zip(terms, crs))


@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_single_db_orbit_key_is_the_least_shift(k):
    p = SchemeParams.create(1, k, 2)
    rng = random.Random(f"orbit/{k}")
    seen = {"first unmasked, later masked": 0, "shared mask": 0, "none masked": 0}
    for db_query in _n1_queries(p, rng):
        assert orbit_key(p, db_query) == _least_shift_key(p, db_query), db_query
        crs = [sr.cr for sr in db_query]
        masked = [cr for cr in crs if cr is not None]
        seen["first unmasked, later masked"] += crs[0] is None and bool(masked)
        seen["shared mask"] += len(set(masked)) < len(masked)
        seen["none masked"] += not masked
    assert all(seen.values()), seen


def _slot_order(slots, desired, n_msg):
    """fresh_masks' documented order, by a key function and a stable sort."""
    order = sorted(
        slots,
        key=lambda s: (len(s[1]), s[0], subset_rank(messages(s[1]), desired, n_msg), s[1]),
    )
    return {tag: index for index, (_, _, tag) in enumerate(order, start=2)}


@pytest.mark.parametrize("n,k", [(1, 5), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_fresh_masks_follow_the_slot_order(n, k):
    p = SchemeParams.create(n, k, 2)
    rng = random.Random(f"slots/{n}/{k}")
    for desired in range(1, k + 1):
        slots = [
            (db, terms, terms)
            for db, reqs in enumerate(identity_plan(p, desired).per_db)
            for terms in reqs
            if desired not in messages(terms)
        ]
        for _ in range(20):
            rng.shuffle(slots)
            # relabeled symbols, as select_query passes them at N >= 3
            moved = [
                (db, tuple((m, rng.randrange(1, p.L + 1)) for m, _ in t), i)
                for i, (db, t, _) in enumerate(slots)
            ]
            assert fresh_masks(slots, desired, k) == _slot_order(slots, desired, k)
            assert fresh_masks(moved, desired, k) == _slot_order(moved, desired, k)


def test_assign_refuses_malformed_plans():
    p = SchemeParams.create(2, 2, 2)
    plan = identity_plan(p, 1)
    (db1, db2) = plan.per_db
    # an undesired-only request dropped: one fresh mask slot short
    short = PirPlan(p, 1, (db1, tuple(t for t in db2 if messages(t) != (2,))))
    with pytest.raises(SchemeError, match=r"^expected 2 fresh mask slots, found 1$"):
        assign_common_randomness(short, p)
    # a larger sum whose companion sits at its own database
    pair = next(t for t in db1 if len(t) == 2)
    same = PirPlan(p, 1, (tuple(t for t in db1 if t != pair), db2 + (pair,)))
    with pytest.raises(SchemeError, match=r"^companion sum not found for W1\[3\]\+W2\[2\]$"):
        assign_common_randomness(same, p)
