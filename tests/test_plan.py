import dataclasses
import itertools
from fractions import Fraction

import pytest

from spircr.fields import Seed, SeededStream
from spircr.plan import (
    PirPlan,
    SchemeParams,
    build_pir_plan,
    cr_pool_size,
    identity_plan,
    message_length,
    messages,
    total_download,
    _ranked_subsets,
)
from spircr.scheme import assign_common_randomness, table_lines

from _gf import in_span
from _plan_oracle import all_requests, subset_rank, symbol_of, validate_pir_plan

GRID = [(n, k) for n in (1, 2, 3) for k in (2, 3, 4)]


def stream(label: str) -> SeededStream:
    return SeededStream(Seed.from_text(label))


@pytest.mark.parametrize("n,k,length,pool", [
    (1, 2, 1, 2), (1, 3, 1, 3), (2, 2, 4, 3), (2, 3, 8, 7), (3, 2, 9, 4), (3, 4, 81, 40),
])
def test_size_formulas(n, k, length, pool):
    assert message_length(n, k) == length
    assert cr_pool_size(n, k) == pool


def test_params_validation():
    with pytest.raises(ValueError):
        SchemeParams.create(0, 2)
    with pytest.raises(ValueError):
        SchemeParams.create(1, 1)
    with pytest.raises(ValueError):
        SchemeParams.create(2, 2, 4)  # composite field size
    for n, k, q in [(2, 32, 2), (2, 2, 4294967311)]:  # L = 2^32; q a prime past 2^32
        with pytest.raises(ValueError, match="^L and q must fit in 32 bits for the wire format$"):
            SchemeParams.create(n, k, q)


def test_params_derive_the_sizes_from_n_k_q():
    p = SchemeParams(2, 3, 5)
    assert p == SchemeParams.create(2, 3, 5)
    assert hash(p) == hash(SchemeParams.create(2, 3, 5))
    # the fields in declaration order, derived ones included
    assert list(p.to_dict().items()) == [
        ("N", 2), ("K", 3), ("q", 5), ("L", 8), ("rs_size", 7), ("ru_size", 1),
    ]
    assert dataclasses.replace(p, N=3) == SchemeParams.create(3, 3, 5)
    assert dataclasses.replace(p, N=1).to_dict() == {
        "N": 1, "K": 3, "q": 5, "L": 1, "rs_size": 3, "ru_size": 1,
    }
    with pytest.raises(TypeError):
        SchemeParams(2, 3, 5, 8)


def test_request_terms_helpers():
    r = ((1, 1), (2, 3))
    assert messages(r) == (1, 2)
    assert symbol_of(r, 2) == 3
    assert symbol_of(r, 3) is None


@pytest.mark.parametrize("bad,problem", [
    (((2, 3), (1, 1)), "W2[3]+W1[1] is not strictly increasing by message"),
    (((1, 1), (1, 2)), "W1[1]+W1[2] is not strictly increasing by message"),
    ((), "a request has no terms"),
])
def test_validator_catches_unordered_terms(bad, problem):
    # a request's messages must be nonempty and strictly increasing; swap one
    # into database 1 of a valid plan in place of its 2-sum
    p = SchemeParams.create(2, 2, 257)
    good = identity_plan(p, 1)
    assert validate_pir_plan(good) == []
    db1 = good.per_db[0][:-1] + (bad,)
    problems = validate_pir_plan(PirPlan(p, 1, (db1, good.per_db[1])))
    assert f"db1: {problem}" in problems


def test_single_db_three_messages_structure():
    p = SchemeParams.create(1, 3, 5)
    plan = identity_plan(p, 2)
    assert len(plan.per_db) == 1
    assert list(plan.per_db[0]) == [((1, 1),), ((2, 1),), ((3, 1),)]
    assert validate_pir_plan(plan) == []


def test_two_db_two_messages_structure():
    p = SchemeParams.create(2, 2, 257)
    plan = identity_plan(p, 1)
    shapes = [[messages(r) for r in db] for db in plan.per_db]
    assert shapes == [[(1,), (2,), (1, 2)], [(1,), (2,), (1, 2)]]
    # identity orderings pin the exact symbol layout
    assert list(plan.per_db[0]) == [((1, 1),), ((2, 1),), ((1, 3), (2, 2))]
    assert list(plan.per_db[1]) == [((1, 2),), ((2, 2),), ((1, 4), (2, 1))]
    assert validate_pir_plan(plan) == []


def test_two_db_three_messages_counts():
    p = SchemeParams.create(2, 3, 2)
    plan = build_pir_plan(p, 1, stream("counts"))
    for db in plan.per_db:
        sizes = sorted(len(r) for r in db)
        assert sizes == [1, 1, 1, 2, 2, 2, 3]
    assert sum(len(db) for db in plan.per_db) == 14
    assert Fraction(total_download(2, 3), p.L) == Fraction(14, 8)


@pytest.mark.parametrize("n,k", GRID)
def test_grid_counts_and_validity(n, k):
    p = SchemeParams.create(n, k)
    for trial in range(3):
        plan = build_pir_plan(p, (trial % k) + 1, stream(f"grid-{n}-{k}-{trial}"))
        assert validate_pir_plan(plan) == []
        total = sum(len(db) for db in plan.per_db)
        assert total == total_download(n, k)
        for db in plan.per_db:
            for t in range(1, k + 1):
                per_subset = (n - 1) ** (t - 1)
                want = per_subset * len(list(itertools.combinations(range(k), t)))
                assert sum(1 for r in db if len(r) == t) == want


@pytest.mark.parametrize("n,k", GRID)
def test_shape_symmetry_across_desired(n, k):
    # a database must see the same multiset of request shapes whatever is
    # desired, else the shape alone leaks the index
    p = SchemeParams.create(n, k)
    reference = None
    for desired in range(1, k + 1):
        plan = build_pir_plan(p, desired, stream(f"shape-{n}-{k}-{desired}"))
        shapes = [sorted(messages(r) for r in db) for db in plan.per_db]
        if reference is None:
            reference = shapes
        else:
            assert shapes == reference


@pytest.mark.parametrize("n,k", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)])
def test_plan_decodable_by_elimination(n, k):
    # oracle: desired unit vectors must lie in the span of the request rows
    q = 2
    p = SchemeParams.create(n, k, q)
    plan = build_pir_plan(p, 2, stream(f"dec-{n}-{k}"))
    cols = p.K * p.L
    rows = []
    for _, r in all_requests(plan):
        vec = [0] * cols
        for m, s in r:
            vec[(m - 1) * p.L + (s - 1)] = 1
        rows.append(vec)
    for i in range(p.L):
        unit = [0] * cols
        unit[(2 - 1) * p.L + i] = 1
        assert in_span(rows, unit, q)


def test_ranked_subsets_match_the_subset_rank_sort():
    # the combinations of cyclic offsets come out in subset_rank order
    for k in range(1, 10):
        for desired in range(1, k + 1):
            for t in range(1, k + 1):
                want = sorted(
                    itertools.combinations(range(1, k + 1), t),
                    key=lambda sub: subset_rank(sub, desired, k),
                )
                assert list(_ranked_subsets(k, desired, t)) == want, (k, desired, t)


@pytest.mark.parametrize("k", range(2, 13))
def test_single_db_plan_is_the_one_sums(k):
    # N = 1 stops after round 1: every message once, as a bare 1-sum
    p = SchemeParams.create(1, k, 2)
    for desired in range(1, k + 1):
        plan = identity_plan(p, desired)
        assert list(plan.per_db[0]) == [((m, 1),) for m in range(1, k + 1)]
        assert validate_pir_plan(plan) == []


def test_determinism():
    p = SchemeParams.create(2, 3, 2)
    a = build_pir_plan(p, 1, stream("same"))
    b = build_pir_plan(p, 1, stream("same"))
    assert a == b
    c = build_pir_plan(p, 1, stream("other"))
    assert a != c


def test_validator_catches_index_reuse():
    p = SchemeParams.create(1, 3, 5)
    plan = PirPlan(p, 3, ((((1, 1),), ((2, 1),), ((2, 1),)),))
    problems = validate_pir_plan(plan)
    assert any("index reuse" in msg for msg in problems)


def test_validator_catches_missing_companion():
    p = SchemeParams.create(2, 2, 257)
    good = identity_plan(p, 1)
    broken_db2 = [r for r in good.per_db[1] if len(r) == 1]
    broken_db2.append(((1, 4), (2, 3)))  # companion b_3 nowhere
    plan = PirPlan(p, 1, (good.per_db[0], tuple(broken_db2)))
    problems = validate_pir_plan(plan)
    assert any("side-information missing" in msg for msg in problems)


def test_render_plan_layout():
    # a plan is shown through its masked table: one column per database
    p = SchemeParams.create(2, 2, 257)
    text = "\n".join(table_lines(assign_common_randomness(identity_plan(p, 1), p), p.L))
    assert "DB1" in text and "DB2" in text
    assert "W1[3]+W2[2]" in text
