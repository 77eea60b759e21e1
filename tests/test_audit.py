import itertools
from collections import Counter
from fractions import Fraction

import pytest

from spircr import audit
from spircr.audit import (
    Distribution,
    InstanceTooLarge,
    coin_count,
    cr_difference_audit,
    cr_difference_leak,
    database_privacy_audit,
    database_privacy_leak,
    query_distribution,
    reliability_audit,
    run_all_audits,
    statistical_user_privacy,
    tables_for_seed,
    user_privacy_audit,
)
from spircr.plan import SchemeParams
from spircr.scheme import MUTATIONS, SchemeError
from spircr.sim import DatabaseState, DecodeError, UserRandomness, answer_query, decode


def test_distribution_invariants():
    Distribution({b"a": Fraction(1, 2), b"b": Fraction(1, 2)})
    with pytest.raises(ValueError):
        Distribution({b"a": Fraction(1, 2)})
    with pytest.raises(ValueError):
        Distribution({b"a": Fraction(3, 2), b"b": Fraction(-1, 2)})


def test_single_db_marginal_query_distribution():
    # one database, three messages: 3 realizable queries, each 1/3, for
    # every desired index; conditioning on the pool index pins one of them
    p = SchemeParams.create(1, 3, 2)
    supports = []
    for desired in (1, 2, 3):
        dist = query_distribution(p, 1, desired)
        assert len(dist.mass) == 3
        assert all(m == Fraction(1, 3) for m in dist.mass.values())
        supports.append(set(dist.mass))
    assert supports[0] == supports[1] == supports[2]
    for u in (1, 2, 3):
        cond = query_distribution(p, 1, 2, user_cr_index=u)
        assert list(cond.mass.values()) == [Fraction(1)]
        assert set(cond.mass) <= supports[0]


def test_two_message_single_db_distribution():
    p = SchemeParams.create(1, 2, 2)
    dist = query_distribution(p, 1, 1)
    assert sorted(dist.mass.values()) == [Fraction(1, 2), Fraction(1, 2)]


def test_two_db_marginals_equal_across_desired():
    p = SchemeParams.create(2, 2, 2)
    for db in (1, 2):
        assert query_distribution(p, db, 1).mass == query_distribution(p, db, 2).mass


def test_query_distribution_bound():
    p = SchemeParams.create(2, 3, 2)
    with pytest.raises(InstanceTooLarge):
        query_distribution(p, 1, 1, bound=10)


def test_enumeration_completeness_two_db():
    # every coin flip lands on a table: 24*24 orderings times 2 relabelings,
    # collapsing pairwise to 576 distinct equally weighted tables
    p = SchemeParams.create(2, 2, 2)
    assert coin_count(p) == 1152
    for u in (1, 2, 3):
        entries = tables_for_seed(p, 1, u)
        assert sum(w for w, _ in entries) == 1152
        assert len(entries) == 576
        assert all(w == 2 for w, _ in entries)


@pytest.mark.parametrize("n,k,q", [(1, 2, 2), (1, 2, 3), (1, 3, 2), (1, 3, 3), (2, 2, 3)])
def test_all_audits_pass_single_db(n, k, q):
    p = SchemeParams.create(n, k, q)
    for report in run_all_audits(p):
        assert report.passed, report.line()
        assert report.exact


def test_reliability_two_db():
    p = SchemeParams.create(2, 2, 2)
    report = reliability_audit(p)
    assert report.passed
    assert report.details["outcomes"] == 3 * 1152 * 2**11
    assert report.details["tables"] == 2 * 3 * 576


@pytest.mark.parametrize("n,k,tables", [(1, 3, 9), (2, 2, 3456)])
def test_audits_report_equal_coverage(n, k, tables):
    # every audit walks every table of every desired index and user index
    reports = run_all_audits(SchemeParams.create(n, k, 2))
    assert [r.details["tables"] for r in reports] == [tables] * 4


def test_user_privacy_catches_seed_reuse():
    p = SchemeParams.create(1, 3, 2)
    report = user_privacy_audit(p, mutation="seed-reuse")
    assert not report.passed
    assert report.witness


def test_user_privacy_seed_reuse_symmetric_case_still_fails_somewhere():
    # with two databases and two messages the reuse is symmetric and user
    # privacy genuinely survives; the leak shows up against the database
    p = SchemeParams.create(2, 2, 2)
    assert user_privacy_audit(p, mutation="seed-reuse").passed
    assert not database_privacy_audit(p, mutation="seed-reuse").passed


def test_database_privacy_catches_unmasked_sum():
    p = SchemeParams.create(1, 2, 2)
    report = database_privacy_audit(p, mutation="unmask-one")
    assert not report.passed
    assert "I = 1 (exact)" in report.value
    assert report.witness


def test_cr_difference_catches_bare_companion():
    p = SchemeParams.create(2, 2, 2)
    report = cr_difference_audit(p, mutation="bare-companion")
    assert not report.passed
    assert report.witness


def test_reliability_reads_the_shipped_decode_plan(monkeypatch):
    # a decoder that files every recovered value under the next symbol
    p = SchemeParams.create(2, 2, 2)
    plan = audit.decode_plan
    monkeypatch.setattr(
        audit,
        "decode_plan",
        lambda *args: tuple((s % p.L + 1, src, comp) for s, src, comp in plan(*args)),
    )
    report = reliability_audit(p)
    assert not report.passed
    assert "decode misses W1[" in report.value
    assert report.witness


def test_reliability_catches_bare_companion():
    p = SchemeParams.create(2, 2, 2)
    report = reliability_audit(p, mutation="bare-companion")
    assert not report.passed


def test_audits_refuse_oversized_instance():
    p = SchemeParams.create(2, 3, 2)
    with pytest.raises(InstanceTooLarge):
        reliability_audit(p)
    with pytest.raises(InstanceTooLarge):
        database_privacy_audit(p)


def test_statistical_mode_smoke():
    p = SchemeParams.create(1, 3, 2)
    report = statistical_user_privacy(p, samples=300)
    assert report.passed
    assert not report.exact
    assert "statistical" in report.line()


# ---------------------------------------------------------------------------
# Rank identities against brute force over every (W, S)


def _log_q(ratio: Fraction, q: int) -> int:
    """log_q of an integer power of q; anything else fails the test."""
    num, den, e = ratio.numerator, ratio.denominator, 0
    while num % q == 0:
        num, e = num // q, e + 1
    while den % q == 0:
        den, e = den // q, e - 1
    assert num == den == 1, f"{ratio} is not a power of {q}"
    return e


def _information(pairs: Counter, q: int) -> Fraction:
    """Exact I(view; target) in q-ary units from (view, target) counts."""
    total = sum(pairs.values())
    views, targets = Counter(), Counter()
    for (v, t), c in pairs.items():
        views[v] += c
        targets[t] += c
    return sum(
        (Fraction(c, total) * _log_q(Fraction(c * total, views[v] * targets[t]), q)
         for (v, t), c in pairs.items()),
        Fraction(0),
    )


def _brute_force(params, desired, seed, table):
    """Run answer_query and sim.decode on every (W, S) under one query table.

    Returns whether decode returned W_desired on every outcome, and the two
    conditional informations the leak audits state, from exact counts.
    """
    k, length, q = params.K, params.L, params.q
    always_right = True
    db_pairs, cr_pairs = Counter(), Counter()
    for x in itertools.product(range(q), repeat=k * length + params.rs_size):
        messages = tuple(x[m * length:(m + 1) * length] for m in range(k))
        pool = x[k * length:]
        state = DatabaseState(params, x)
        answers = tuple(answer_query(reqs, state) for reqs in table)
        try:
            right = decode(params, desired, table, answers, UserRandomness(seed, pool[seed - 1]))
            right = right == messages[desired - 1]
        except DecodeError:
            right = False
        always_right = always_right and right
        view = (answers, pool[seed - 1])
        undesired = tuple(messages[m] for m in range(k) if m != desired - 1)
        rest_of_pool = tuple(p for i, p in enumerate(pool, start=1) if i != seed)
        db_pairs[(view, undesired)] += 1
        cr_pairs[((view, messages[desired - 1]), rest_of_pool)] += 1
    return always_right, _information(db_pairs, q), _information(cr_pairs, q)


def _identity_holds(params, desired, seed, table) -> bool:
    try:
        return not audit.misdecoded_symbols(params, desired, seed, table)
    except DecodeError:
        return False


@pytest.mark.parametrize(
    "n,k,q,picks",
    [(1, 2, 2, None), (1, 2, 3, None), (1, 3, 2, None), (2, 2, 2, (0, 575))],
)
def test_rank_audits_match_brute_force(n, k, q, picks):
    # picks=None checks every table; otherwise the listed table positions of
    # each (desired, seed, mutation) enumeration
    p = SchemeParams.create(n, k, q)
    leaky = undecodable = 0
    for mutation in (None, *MUTATIONS):
        for desired in range(1, k + 1):
            for seed in range(1, p.rs_size + 1):
                try:
                    weighted = tables_for_seed(p, desired, seed, mutation)
                except SchemeError:
                    continue  # the fault has no eligible request at this shape
                if picks is not None:
                    weighted = [weighted[i] for i in picks if i < len(weighted)]
                for _, table in weighted:
                    right, db_info, cr_info = _brute_force(p, desired, seed, table)
                    assert right == _identity_holds(p, desired, seed, table), table
                    assert db_info == database_privacy_leak(p, desired, seed, table), table
                    assert cr_info == cr_difference_leak(p, desired, seed, table), table
                    leaky += bool(db_info or cr_info)
                    undecodable += not right
    # the faults exercise both sides of the identities; a single database
    # decodes under every applicable fault
    assert leaky
    assert undecodable or n == 1
