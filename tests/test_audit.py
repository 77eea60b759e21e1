import inspect
import itertools
import textwrap
from collections import Counter
from fractions import Fraction

import pytest

from spircr import audit, scheme, sim
from spircr.audit import (
    AuditError,
    Distribution,
    InstanceTooLarge,
    TableCheck,
    coin_count,
    cr_difference_audit,
    database_privacy_audit,
    joint_space_outcomes,
    orbit_invariant,
    orbit_key,
    query_distribution,
    reliability_audit,
    run_all_audits,
    tables_for_seed,
    user_privacy_audit,
)
from spircr.fields import Seed, SeededStream
from spircr.plan import SchemeParams, plan_with_perms
from spircr.scheme import (
    MUTATIONS,
    SchemeError,
    SpirRequest,
    assign_common_randomness,
    canonical_table,
    permute_nonseed,
    relabel,
    select_query,
    shift_cell,
    variant_mappings,
)
from spircr.sim import (
    DatabaseState,
    DecodeError,
    UserRandomness,
    answer_query,
    decode,
    decode_plan,
    message_column,
    pool_column,
    query_columns,
    request_columns,
)
from spircr.wire import encode_query_payload

from _gf import rref
from _plan_oracle import assert_one_fault


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


def test_query_distribution_refuses_an_out_of_range_user_index():
    p = SchemeParams.create(1, 3, 2)
    for u in (0, 4, 7):
        with pytest.raises(ValueError, match=f"user index {u} outside"):
            query_distribution(p, 1, 1, user_cr_index=u)


def test_query_distribution_follows_select_query(monkeypatch):
    # the oracle enumerates the query select_query emits, not a model of it
    p = SchemeParams.create(1, 2, 2)
    real = select_query

    def first_request_bare(params, desired, user_cr_index, rng, mutation=None):
        table = real(params, desired, user_cr_index, rng, mutation)
        head, *rest = table[0]
        return ((SpirRequest(head.terms, None), *rest),) + table[1:]

    monkeypatch.setattr(audit, "select_query", first_request_bare)
    tables_for_seed.cache_clear()
    try:
        dist = query_distribution(p, 1, 1)
    finally:
        tables_for_seed.cache_clear()
    any_coins = SeededStream(Seed.from_text("any"))  # (1,2) draws nothing
    assert dist.mass == {
        encode_query_payload(p, first_request_bare(p, 1, u, any_coins)[0]): Fraction(1, 2)
        for u in (1, 2)
    }


def test_tables_for_seed_refuses_dependent_draw_ranges(monkeypatch):
    # equal weights per tape hold only while no draw range depends on an
    # earlier draw
    p = SchemeParams.create(1, 3, 2)
    real = select_query

    def dependent(params, desired, user_cr_index, rng, mutation=None):
        if rng.randrange(2):
            rng.randrange(3)
        return real(params, desired, user_cr_index, rng, mutation)

    monkeypatch.setattr(audit, "select_query", dependent)
    tables_for_seed.cache_clear()
    try:
        with pytest.raises(AuditError, match="not the probe's"):
            tables_for_seed(p, 1, 1)
    finally:
        tables_for_seed.cache_clear()


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
    assert report.details["representatives"] == 2


@pytest.mark.parametrize("n,k,representatives", [(1, 3, 3), (2, 2, 2), (3, 3, 3)])
def test_audits_report_equal_coverage(n, k, representatives):
    # every audit covers the same joint outcomes and checks one table per
    # desired index for them, user privacy at N = 1 included
    p = SchemeParams.create(n, k, 2)
    reports = run_all_audits(p)
    assert all(r.details["outcomes"] == joint_space_outcomes(p) for r in reports)
    assert [r.details["representatives"] for r in reports] == [representatives] * 4


def test_large_outcome_counts_print_compactly():
    # (3,3) has a 123-digit outcome count: the text gives four significant
    # digits, the details and JSON keep the integer
    p = SchemeParams.create(3, 3, 2)
    outcomes = joint_space_outcomes(p)
    assert len(str(outcomes)) == 123
    report = reliability_audit(p)
    assert report.line() == (
        "PASS reliability: decode exact on all 1.592e+122 joint outcomes per desired index"
    )
    assert report.details["outcomes"] == report.to_dict()["details"]["outcomes"] == outcomes
    assert audit._count_text(10**15 - 1) == "999999999999999"
    assert audit._count_text(10**15) == "1.000e+15"


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
    plan = sim.decode_plan
    monkeypatch.setattr(
        sim,
        "decode_plan",
        lambda *args: tuple((s % p.L + 1, src, comp) for s, src, comp in plan(*args)),
    )
    report = reliability_audit(p)
    assert not report.passed
    assert "decode misses W1[" in report.value
    assert report.witness


# a fault in how sim.decode applies a step: the text of sim.decode it
# replaces, and what it puts there
DECODE_FAULTS = {
    "adds": ("(flat[source] - (", "(flat[source] + ("),
    "reverses": ("for i in range(1, params.L + 1))", "for i in range(params.L, 0, -1))"),
    "drops-companion": ("else flat[companion]", "else 0"),
}


def _faulty_decode(fault):
    """sim.decode with one fault planted in its own source, reading sim's names."""
    old, new = DECODE_FAULTS[fault]
    source = textwrap.dedent(inspect.getsource(sim.decode))
    assert source.count(old) == 1, fault
    names = dict(vars(sim))
    exec(compile(source.replace(old, new), f"<sim.decode, {fault}>", "exec"), names)
    return names["decode"]


@pytest.mark.parametrize("fault", sorted(DECODE_FAULTS))
@pytest.mark.parametrize("n,k,q", [(2, 2, 257), (3, 2, 257), (2, 3, 3)])
def test_reliability_runs_the_shipped_decode(n, k, q, fault, monkeypatch):
    # the plan is sound; the fault is in the arithmetic of sim.decode itself
    p = SchemeParams.create(n, k, q)
    assert reliability_audit(p).passed
    monkeypatch.setattr(audit, "decode", _faulty_decode(fault))
    report = reliability_audit(p)
    assert not report.passed
    assert report.value.startswith("desired W1: decode misses W1["), report.value


def test_reliability_is_exact_mod_q_not_over_the_integers(monkeypatch):
    # over F_2, adding the companion is subtracting it: the decoder stays right
    monkeypatch.setattr(audit, "decode", _faulty_decode("adds"))
    assert reliability_audit(SchemeParams.create(2, 2, 2)).passed


def test_reliability_catches_bare_companion():
    p = SchemeParams.create(2, 2, 2)
    report = reliability_audit(p, mutation="bare-companion")
    assert not report.passed


def test_audits_refuse_oversized_instance():
    # the audits no longer enumerate, but the exact query distribution does
    p = SchemeParams.create(2, 3, 2)
    with pytest.raises(InstanceTooLarge):
        query_distribution(p, 1, 1)


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
        answers = tuple(answer_query(query_columns(params, reqs), state) for reqs in table)
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
        return not TableCheck(params, desired, seed, table).misdecoded_symbols()
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
                    check = TableCheck(p, desired, seed, table)
                    assert db_info == check.database_privacy_leak(), table
                    assert cr_info == check.cr_difference_leak(), table
                    leaky += bool(db_info or cr_info)
                    undecodable += not right
    # the faults exercise both sides of the identities; a single database
    # decodes under every applicable fault
    assert leaky
    assert undecodable or n == 1


# ---------------------------------------------------------------------------
# The sparse column audits against dense rows and _gf.rref


def _dense(p, columns):
    """The row over X = (W, S) that sums X at columns, counted with multiplicity."""
    row = [0] * (p.K * p.L + p.rs_size)
    for c in columns:
        row[c] += 1
    return row


def _dense_information(p, view, target_columns):
    """rank V + rank B - rank [V; B] with B the unit rows on target_columns."""
    target = [_dense(p, [c]) for c in target_columns]
    ranks = [len(rref(rows, p.q)[0]) for rows in (view, target, view + target)]
    return ranks[0] + ranks[1] - ranks[2]


def _dense_values(p, desired, seed, table):
    """Reliability identity and both leaks from dense rows over X: the
    oracle for the column audits."""
    rows = [_dense(p, request_columns(p, sr)) for db_reqs in table for sr in db_reqs]
    pool_row = _dense(p, [pool_column(p, seed)])
    try:
        steps = decode_plan(p, desired, table, seed)
    except DecodeError:
        decodes = None
    else:
        decodes = []
        for sym, source, companion in steps:
            sub = pool_row if companion is None else rows[companion]
            want = _dense(p, [message_column(p, desired, sym)])
            if any((a - b - t) % p.q for a, b, t in zip(rows[source], sub, want)):
                decodes.append(sym)
    desired_rows = [_dense(p, [message_column(p, desired, s)]) for s in range(1, p.L + 1)]
    undesired = [
        message_column(p, m, s) for m in range(1, p.K + 1) if m != desired for s in range(1, p.L + 1)
    ]
    other_pool = [pool_column(p, i) for i in range(1, p.rs_size + 1) if i != seed]
    return (
        decodes,
        _dense_information(p, rows + [pool_row], undesired),
        _dense_information(p, rows + [pool_row] + desired_rows, other_pool),
    )


def _sparse_values(p, desired, seed, table):
    check = TableCheck(p, desired, seed, table)
    try:
        decodes = check.misdecoded_symbols()
    except DecodeError:
        decodes = None
    return decodes, check.database_privacy_leak(), check.cr_difference_leak()


@pytest.mark.parametrize("q", [2, 3, 257])
@pytest.mark.parametrize("n,k", [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2), (3, 3), (2, 4)])
def test_sparse_audits_match_dense_rows(n, k, q):
    # the representative of every desired index, and one emitted query per
    # desired index, so that seeds other than 1 are read too
    p = SchemeParams.create(n, k, q)
    seen = set()
    for mutation in (None, *MUTATIONS):
        try:
            tables = [
                (d, 1, canonical_table(p, d, mutation)) for d in range(1, k + 1)
            ]
        except SchemeError:
            # the fault has no eligible request at this shape, for either path
            with pytest.raises(SchemeError):
                run_all_audits(p, mutation)
            continue
        for d in range(1, k + 1):
            rng = SeededStream(Seed.from_text(f"dense-{n}-{k}-{q}-{mutation}-{d}"))
            u = rng.randrange(p.rs_size) + 1
            tables.append((d, u, select_query(p, d, u, rng, mutation)))
        for desired, seed, table in tables:
            values = _sparse_values(p, desired, seed, table)
            assert values == _dense_values(p, desired, seed, table), (mutation, desired, table)
            seen.add((values[0] == [], values[1] > 0, values[2] > 0))
    # both outcomes of every check occur somewhere on the grid's faults
    assert (True, False, False) in seen
    assert any(db for _, db, _ in seen)


@pytest.mark.parametrize("q", [2, 3])
def test_reliability_digits_hold_a_term_repeated_past_a_k_sized_width(q):
    # db1 sums W1[1] c times; its companion at db2 carries the mask alone, so
    # the step decodes c * W1[1], right exactly when c = 1 mod q. A width sized
    # from K (longest request K + 1 columns) holds digits up to 7 in size, so
    # it misreads c - 1 from c = 9 on.
    p = SchemeParams.create(2, 2, q)
    rest = [SpirRequest(((1, s),), 1) for s in range(2, p.L + 1)]
    for c in range(2, 20):
        table = ((SpirRequest(((1, 1),) * c, 2), *rest[:2]), (SpirRequest((), 2), *rest[2:]))
        want = _dense_values(p, 1, 1, table)
        assert want[0] == ([] if c % q == 1 else [1])
        assert _sparse_values(p, 1, 1, table) == want, c


# ---------------------------------------------------------------------------
# One representative per desired index: the orbit argument, checked


def _relabel(table, sigma, tau):
    """g.T for g = (sigma, tau): symbol s of message m becomes sigma[m-1][s-1],
    pool index i becomes tau[i], and each database's requests are re-sorted."""
    return tuple(
        tuple(sorted(
            (
                SpirRequest(
                    tuple((m, sigma[m - 1][s - 1]) for m, s in sr.terms),
                    None if sr.cr is None else tau[sr.cr],
                )
                for sr in db_reqs
            ),
            key=lambda sr: (len(sr.terms), sr.terms),  # canonical order
        ))
        for db_reqs in table
    )


@pytest.mark.parametrize("n,k,distinct", [(2, 2, 3456), (1, 3, 3)])
def test_every_emitted_table_relabels_the_representative(n, k, distinct):
    # every coin select_query can draw (symbol orderings, non-seed variant,
    # user index) emits g.T_k, with g's symbol part read off the orderings
    # and its pool part found by matching terms; and tables_for_seed, which
    # replays select_query, weighs the tables as these composed steps do
    p = SchemeParams.create(n, k, 2)
    identity = {i: i for i in range(1, p.rs_size + 1)}
    emitted_union = set()
    composed: dict = {}
    for desired in range(1, k + 1):
        rep = canonical_table(p, desired)
        for perms in itertools.product(itertools.permutations(range(p.L)), repeat=k):
            sigma = [[x + 1 for x in perm] for perm in perms]
            relabeled = _relabel(rep, sigma, identity)
            table = assign_common_randomness(plan_with_perms(p, desired, perms), p)
            for vmap in variant_mappings(p, 1):
                for u in range(1, p.rs_size + 1):
                    emitted = shift_cell(permute_nonseed(table, 1, vmap), u - 1)
                    tau = {a.cr: b.cr for x, y in zip(relabeled, emitted) for a, b in zip(x, y)}
                    assert sorted(tau) == sorted(tau.values()) == list(identity)
                    assert tau[1] == u
                    assert relabel(relabeled, tau, None) == emitted
                    emitted_union.add(emitted)
                    composed.setdefault((desired, u), Counter())[emitted] += 1
    assert len(emitted_union) == distinct
    for (desired, u), counts in composed.items():
        assert Counter({t: w for w, t in tables_for_seed(p, desired, u)}) == counts


@pytest.mark.parametrize("n,k", [(1, 3), (2, 2), (3, 2)])
def test_a_mutated_canonical_table_is_the_fault_at_seed_one(n, k):
    # one request of T_k changes, and select_query, which relabels the
    # faulty T_k, changes one request of the honest query it would emit
    # from the same coins
    p = SchemeParams.create(n, k, 2)
    for desired in range(1, k + 1):
        honest = canonical_table(p, desired)
        for mutation in MUTATIONS:
            try:
                faulty = canonical_table(p, desired, mutation)
            except SchemeError:  # bare-companion needs a larger sum, which N = 1 lacks
                assert (n, mutation) == (1, "bare-companion")
                continue
            assert_one_fault(honest, faulty, 1, mutation)
            for i in range(4):
                u = i % p.rs_size + 1
                label = f"fault-{n}-{k}-{desired}-{mutation}-{i}"
                emitted = select_query(p, desired, u, SeededStream(Seed.from_text(label)), mutation)
                query = select_query(p, desired, u, SeededStream(Seed.from_text(label)))
                assert_one_fault(query, emitted, u, mutation)


def test_each_canonical_plan_is_masked_once(monkeypatch):
    # one T_k build per desired index, whatever the fault and however
    # canonical_table is called
    p = SchemeParams.create(2, 2, 2)
    built = []
    real = scheme.plan_layout

    def counted(params, desired, perms):
        built.append(desired)
        return real(params, desired, perms)

    monkeypatch.setattr(scheme, "plan_layout", counted)
    scheme._honest_table.cache_clear()
    audit._representative.cache_clear()
    run_all_audits(p)
    run_all_audits(p, "unmask-one")
    for desired in range(1, p.K + 1):
        select_query(p, desired, 1, SeededStream(Seed.from_text(f"once-{desired}")))
        select_query(p, desired, 2, SeededStream(Seed.from_text(f"once-{desired}")), "seed-reuse")
    assert sorted(built) == list(range(1, p.K + 1))


@pytest.mark.parametrize("n,k", [(1, 8), (2, 3)])
def test_the_rank_audits_derive_each_request_columns_once(n, k, monkeypatch):
    # reliability and both leak audits read one set of columns per T_k
    p = SchemeParams.create(n, k, 2)
    derived = []
    real = audit.request_columns

    def counted(params, sr):
        derived.append(sr)
        return real(params, sr)

    monkeypatch.setattr(audit, "request_columns", counted)
    audit._representative.cache_clear()
    assert all(r.passed for r in run_all_audits(p))
    # each database of T_k sends one request per pool index
    assert len(derived) == k * p.N * p.rs_size
    assert derived == [sr for d in range(1, k + 1) for reqs in canonical_table(p, d) for sr in reqs]


def _rank_values(p, desired, seed, table):
    check = TableCheck(p, desired, seed, table)
    return (
        _identity_holds(p, desired, seed, table),
        check.database_privacy_leak(),
        check.cr_difference_leak(),
    )


@pytest.mark.parametrize("n,k", [(2, 3), (3, 2)])
def test_sampled_queries_carry_the_representative_ranks(n, k):
    p = SchemeParams.create(n, k, 2)
    for mutation in (None, *MUTATIONS):
        for desired in range(1, k + 1):
            want = _rank_values(p, desired, 1, canonical_table(p, desired, mutation))
            for i in range(8):
                rng = SeededStream(Seed.from_text(f"orbit-{n}-{k}-{mutation}-{desired}-{i}"))
                u = rng.randrange(p.rs_size) + 1
                table = select_query(p, desired, u, rng, mutation)
                assert _rank_values(p, desired, u, table) == want, (mutation, desired, u)


def _seed_of(db_query, message):
    """The pool index on the query's 1-sum of message."""
    for sr in db_query:
        if len(sr.terms) == 1 and sr.terms[0][0] == message:
            return sr.cr
    return None


def _enumerated(p, mutation):
    """The audits as they were when they enumerated: every table of every
    (desired, user index) from tables_for_seed, with its weight. Returns the
    reliability verdict, the exact I of both leak audits per desired index,
    and the user-privacy verdict from query counts."""
    decodes, db_info, cr_info = True, [], []
    cond: dict = {}
    for k in range(1, p.K + 1):
        weighted = [
            (u, w, t) for u in range(1, p.rs_size + 1)
            for w, t in tables_for_seed(p, k, u, mutation)
        ]
        total = sum(w for _, w, _ in weighted)
        decodes = decodes and all(_identity_holds(p, k, u, t) for u, _, t in weighted)
        checks = [(w, TableCheck(p, k, u, t)) for u, w, t in weighted]
        db_info.append(Fraction(sum(w * c.database_privacy_leak() for w, c in checks), total))
        cr_info.append(Fraction(sum(w * c.cr_difference_leak() for w, c in checks), total))
        for u, w, t in weighted:
            for db, dq in enumerate(t):
                cond.setdefault((k, u, db), Counter())[dq] += w
    marg: dict = {}
    for (k, _, db), counts in cond.items():
        marg.setdefault((k, db), Counter()).update(counts)
    private = all(marg[k, db] == marg[1, db] for k, db in marg) and all(
        counts[dq] == cond.get((k2, _seed_of(dq, k2), db), Counter())[dq]
        for (k, _, db), counts in cond.items()
        for dq in counts
        for k2 in range(1, p.K + 1)
        if k2 != k
    )
    return decodes, db_info, cr_info, private


def _reported_leak(report):
    return Fraction(report.details["leak"]) if not report.passed else Fraction(0)


@pytest.mark.parametrize("mutation", [None, *MUTATIONS])
@pytest.mark.parametrize(
    "n,k,q", [(1, 2, 2), (1, 2, 3), (1, 3, 2), (1, 3, 3), (1, 4, 2), (2, 2, 2), (2, 2, 3)]
)
def test_representatives_match_enumeration(n, k, q, mutation):
    p = SchemeParams.create(n, k, q)
    try:
        decodes, db_info, cr_info, private = _enumerated(p, mutation)
    except SchemeError:
        # the fault has no eligible request at this shape, for either path
        with pytest.raises(SchemeError):
            run_all_audits(p, mutation)
        return
    reliability, user, database, cr = run_all_audits(p, mutation)
    assert reliability.passed == decodes
    assert user.passed == private
    for report, info, leak in ((database, db_info, TableCheck.database_privacy_leak),
                               (cr, cr_info, TableCheck.cr_difference_leak)):
        # every table of desired k has T_k's rank values, so the weighted I
        # is T_k's own, and the audit reports the first nonzero one
        assert info == [
            leak(TableCheck(p, d, 1, canonical_table(p, d, mutation))) for d in range(1, k + 1)
        ]
        assert _reported_leak(report) == next((i for i in info if i), 0)


def test_orbit_invariant_refuses_repeated_symbols():
    p = SchemeParams.create(2, 2, 2)
    db_query = canonical_table(p, 1)[0]
    assert orbit_invariant(db_query) == ([((1,),), ((1, 2),), ((2,),)], [])
    doubled = db_query + (SpirRequest(db_query[0].terms, None),)
    with pytest.raises(AuditError, match="appears twice"):
        orbit_invariant(doubled)


def test_single_db_orbit_key_is_cyclic():
    # at N = 1 the scheme relabels the pool only by cyclic shifts: under
    # seed-reuse, T_1 and T_2 share which messages share an index, but no
    # shift maps one onto the other, and only the cyclic key tells them apart
    p = SchemeParams.create(1, 4, 2)
    t1, t2 = (canonical_table(p, k, "seed-reuse")[0] for k in (1, 2))
    assert [sr.cr for sr in t1] == [1, 1, 3, 4]
    assert [sr.cr for sr in t2] == [1, 1, 2, 3]
    assert [sr.terms for sr in t1] == [sr.terms for sr in t2] == [((m, 1),) for m in range(1, 5)]
    assert orbit_invariant(t1) == orbit_invariant(t2)
    assert orbit_key(p, t1) != orbit_key(p, t2)
    shifted = shift_cell((t1,), 2)[0]
    assert orbit_key(p, shifted) == orbit_key(p, t1)
    report = user_privacy_audit(p, mutation="seed-reuse")
    assert not report.passed
    assert report.witness == (
        "db1: no relabeling the scheme emits maps q = W1+S1, W2+S1, W3+S3, W4+S4 "
        "for desired W1 onto q = W1+S1, W2+S1, W3+S2, W4+S3 for desired W2"
    )


def _encoded_orbit_key(p, db_query):
    """The N = 1 orbit key as it was: the least encoded query over the rs
    cyclic shifts of its pool indices."""
    shifts = (shift_cell((db_query,), d)[0] for d in range(p.rs_size))
    return min(encode_query_payload(p, shifted) for shifted in shifts)


@pytest.mark.parametrize("k", range(2, 9))
def test_single_db_orbit_key_splits_like_the_encoded_key(k):
    # every cyclic shift of every T_k[0], honest and under each fault: two
    # queries share a key exactly when they shared the encoded one
    p = SchemeParams.create(1, k, 2)
    for mutation in (None, *MUTATIONS):
        try:
            reps = [canonical_table(p, d, mutation)[0] for d in range(1, k + 1)]
        except SchemeError:
            continue  # bare-companion needs a larger sum, which N = 1 lacks
        queries = [shift_cell((rep,), d)[0] for rep in reps for d in range(p.rs_size)]
        new = [orbit_key(p, dq) for dq in queries]
        old = [_encoded_orbit_key(p, dq) for dq in queries]
        for i, j in itertools.combinations(range(len(queries)), 2):
            assert (new[i] == new[j]) == (old[i] == old[j]), (mutation, queries[i], queries[j])
        assert len(set(new)) == len(set(old))


@pytest.mark.parametrize("n,k", [(1, 3), (2, 2)])
def test_audits_enumerate_no_coins(n, k, monkeypatch):
    # coin_count stays reachable: it is the closed form behind "outcomes"
    def refuse(*args, **kwargs):
        raise AssertionError("an audit enumerated the coin space")

    for name in ("tables_for_seed", "select_query"):
        monkeypatch.setattr(audit, name, refuse)
    p = SchemeParams.create(n, k, 2)
    for mutation in (None, "seed-reuse", "unmask-one"):
        run_all_audits(p, mutation)
