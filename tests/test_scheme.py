import itertools
from fractions import Fraction

import pytest

import spircr
from spircr.fields import Seed, SeededStream
from spircr.plan import PirPlan, SchemeParams, build_pir_plan, identity_plan, messages
from spircr.scheme import (
    MUTATIONS,
    SchemeError,
    SpirRequest,
    apply_mutation,
    assign_common_randomness,
    canonical_family,
    family_json,
    measured_rates,
    permute_nonseed,
    sample_variant,
    select_query,
    shift_cell,
    variant_count,
    variant_mappings,
)
from spircr.sim import DecodeError, decode_plan

from _gf import rref
from _plan_oracle import assert_one_fault, validate_pir_plan

GRID = [(n, k) for n in (1, 2, 3) for k in (2, 3)]


def stream(label: str) -> SeededStream:
    return SeededStream(Seed.from_text(label))


def table_of(table):
    return [[(sr.terms, sr.cr) for sr in db_reqs] for db_reqs in table]


def test_single_db_assignment_golden():
    p = SchemeParams.create(1, 3, 5)
    table = assign_common_randomness(identity_plan(p, 1), p)
    assert table_of(table) == [[((((1, 1),)), 1), ((((2, 1),)), 2), ((((3, 1),)), 3)]]


def test_two_db_assignment_golden():
    # canonical first block: seed on both desired 1-sums, the undesired
    # 1-sums take fresh labels in database order, the mixed sums inherit
    # their companion's label from the other database
    p = SchemeParams.create(2, 2, 257)
    table = assign_common_randomness(identity_plan(p, 1), p)
    assert table_of(table) == [
        [(((1, 1),), 1), (((2, 1),), 2), (((1, 3), (2, 2)), 3)],
        [(((1, 2),), 1), (((2, 2),), 3), (((1, 4), (2, 1)), 2)],
    ]


def test_two_db_swap_variant_golden():
    # the second block of the fixture family: non-seed labels 2 and 3 swapped
    p = SchemeParams.create(2, 2, 257)
    table = assign_common_randomness(identity_plan(p, 1), p)
    swapped = permute_nonseed(table, 1, {2: 3, 3: 2})
    assert table_of(swapped) == [
        [(((1, 1),), 1), (((2, 1),), 3), (((1, 3), (2, 2)), 2)],
        [(((1, 2),), 1), (((2, 2),), 2), (((1, 4), (2, 1)), 3)],
    ]


def test_permute_nonseed_rejects_bad_maps():
    p = SchemeParams.create(2, 2, 257)
    table = assign_common_randomness(identity_plan(p, 1), p)
    with pytest.raises(SchemeError):
        permute_nonseed(table, 1, {1: 2, 2: 1})  # touches the seed
    with pytest.raises(SchemeError):
        permute_nonseed(table, 1, {2: 2, 3: 2})  # not a bijection


def test_permute_then_inverse_is_identity():
    p = SchemeParams.create(2, 3, 2)
    table = assign_common_randomness(identity_plan(p, 2), p)
    fwd = {2: 5, 5: 2, 3: 4, 4: 3, 6: 7, 7: 6}
    assert permute_nonseed(permute_nonseed(table, 1, fwd), 1, fwd) == table


def test_shift_cell_moves_seed_and_wraps():
    p = SchemeParams.create(1, 3, 5)
    table = assign_common_randomness(identity_plan(p, 1), p)
    shifted = shift_cell(table, 1)
    assert table_of(shifted) == [[(((1, 1),), 2), (((2, 1),), 3), (((3, 1),), 1)]]


def test_cycle_cells_family():
    # cycling the canonical table lands its seed (the desired 1-sums' index)
    # on every pool index once, and the family holds exactly those tables
    p = SchemeParams.create(2, 2, 257)
    table = assign_common_randomness(identity_plan(p, 1), p)
    seeds = [shift_cell(table, d)[0][0].cr for d in range(p.rs_size)]
    assert seeds == [1, 2, 3]
    family = canonical_family(p)
    assert family[2][0][1] == shift_cell(table, 1)
    # a full cycle returns to the start
    assert shift_cell(table, p.rs_size) == table


def test_fresh_cr_count_two_db_three_messages():
    p = SchemeParams.create(2, 3, 2)
    table = assign_common_randomness(identity_plan(p, 1), p)
    labels = set()
    for db_reqs in table:
        for sr in db_reqs:
            labels.add(sr.cr)
    assert labels == set(range(1, 8))  # 1 + 2 + 4 fresh indices


@pytest.mark.parametrize("n,k", GRID)
def test_per_db_cr_coverage(n, k):
    # within one database the pool labels form a bijection with requests
    p = SchemeParams.create(n, k)
    for desired in range(1, k + 1):
        table = assign_common_randomness(identity_plan(p, desired), p)
        assert decode_plan(p, desired, table, 1)
        for db_reqs in table:
            labels = sorted(sr.cr for sr in db_reqs)
            assert labels == list(range(1, p.rs_size + 1))


def test_variant_mappings_count():
    assert variant_count(SchemeParams.create(1, 3)) == 1
    assert variant_count(SchemeParams.create(2, 2)) == 2
    assert variant_count(SchemeParams.create(2, 3)) == 720
    maps = variant_mappings(SchemeParams.create(2, 2), 1)
    assert {frozenset(m.items()) for m in maps} == {
        frozenset({(2, 2), (3, 3)}), frozenset({(2, 3), (3, 2)})
    }


def test_select_query_single_db_golden():
    # user holds pool index 3 and wants the second message
    p = SchemeParams.create(1, 3, 5)
    table = select_query(p, 2, 3, stream("any"))
    assert [(sr.terms, sr.cr) for sr in table[0]] == [
        (((1, 1),), 2), (((2, 1),), 3), (((3, 1),), 1)
    ]


def test_select_query_structure_valid():
    for n, k in GRID:
        p = SchemeParams.create(n, k)
        table = select_query(p, 1, 1, stream(f"sq-{n}-{k}"))
        stripped = PirPlan(p, 1, tuple(tuple(sr.terms for sr in db_reqs) for db_reqs in table))
        assert validate_pir_plan(stripped) == []
        for db_reqs in table:
            assert sorted(sr.cr for sr in db_reqs) == list(range(1, p.rs_size + 1))


def test_select_query_seed_lands_on_user_index():
    p = SchemeParams.create(2, 2, 2)
    for u in (1, 2, 3):
        table = select_query(p, 1, u, stream(f"seed-{u}"))
        for db_reqs in table:
            for sr in db_reqs:
                if messages(sr.terms) == (1,):
                    assert sr.cr == u


def test_select_query_determinism():
    p = SchemeParams.create(2, 3, 2)
    assert select_query(p, 2, 4, stream("det")) == select_query(p, 2, 4, stream("det"))
    assert select_query(p, 2, 4, stream("det")) != select_query(p, 2, 4, stream("det2"))


def _composed_query(p, desired, u, rng):
    """The honest query as the public steps compose it: build the plan with
    drawn orderings, mask it at seed 1, draw a non-seed variant (N >= 2),
    shift the seed to u."""
    table = assign_common_randomness(build_pir_plan(p, desired, rng), p)
    if p.N >= 2:
        table = permute_nonseed(table, 1, sample_variant(p, rng))
    return shift_cell(table, u - 1)


@pytest.mark.parametrize("n,k", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2)])
def test_select_query_relabels_like_the_composed_steps(n, k):
    # one relabeling of the cached T_k must give the composed table byte
    # for byte and consume the same draws; N >= 3 exercises the slot
    # tie-breaks (tau)
    p = SchemeParams.create(n, k, 2)
    mutations = [m for m in MUTATIONS if n >= 2 or m != "bare-companion"]
    for seed in range(20):
        label = f"relabel-{n}-{k}-{seed}"
        for desired in range(1, k + 1):
            for u in range(1, p.rs_size + 1):
                theirs = stream(label)
                composed = _composed_query(p, desired, u, theirs)
                after = theirs.randrange(1 << 30)
                for mutation in (None, *mutations):
                    ours = stream(label)
                    emitted = select_query(p, desired, u, ours, mutation)
                    if mutation is None:
                        assert emitted == composed, (seed, desired, u)
                    else:
                        assert_one_fault(composed, emitted, u, mutation)
                    assert ours.randrange(1 << 30) == after


@pytest.mark.parametrize("n,k", [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_every_request_is_one_object(n, k):
    # a request is (terms, mask) and nothing more: terms a tuple of
    # (message, symbol) int pairs, messages strictly increasing
    p = SchemeParams.create(n, k, 2)
    mutations = [m for m in MUTATIONS if n >= 2 or m != "bare-companion"]
    for desired in range(1, k + 1):
        for mutation in (None, *mutations):
            rng = stream(f"one-object-{n}-{k}-{desired}-{mutation}")
            table = select_query(p, desired, 1 + desired % p.rs_size, rng, mutation)
            for sr in (sr for db_reqs in table for sr in db_reqs):
                assert type(sr) is SpirRequest
                assert type(sr.terms) is tuple and sr.terms
                assert all(
                    type(t) is tuple and len(t) == 2 and all(type(x) is int for x in t)
                    for t in sr.terms
                )
                ms = [m for m, _ in sr.terms]
                assert all(a < b for a, b in zip(ms, ms[1:])), sr.terms
    assert not hasattr(spircr, "SymbolRequest")
    assert "SymbolRequest" not in spircr.__all__


def test_measured_rates_golden():
    assert measured_rates(SchemeParams.create(1, 3)).as_strings() == {
        "d": "3", "rho_s": "3", "rho_u": "1"
    }
    r22 = measured_rates(SchemeParams.create(2, 2))
    assert (r22.d, r22.rho_s, r22.rho_u) == (Fraction(3, 2), Fraction(3, 4), Fraction(1, 4))
    r23 = measured_rates(SchemeParams.create(2, 3))
    assert (r23.d, r23.rho_s, r23.rho_u) == (Fraction(7, 4), Fraction(7, 8), Fraction(1, 8))


def test_desired_only_exposure():
    # rank oracle: combinations of answers and the user's pool entry that
    # eliminate every pool symbol span exactly the desired message symbols
    for n, k in [(1, 2), (1, 3), (2, 2)]:
        q = 2
        p = SchemeParams.create(n, k, q)
        desired, user = 1, 1
        table = select_query(p, desired, user, stream(f"span-{n}-{k}"))
        pool_cols, msg_cols = p.rs_size, p.K * p.L
        rows = []
        for db_reqs in table:
            for sr in db_reqs:
                vec = [0] * (pool_cols + msg_cols)
                vec[sr.cr - 1] = 1
                for m, s in sr.terms:
                    vec[pool_cols + (m - 1) * p.L + (s - 1)] = 1
                rows.append(vec)
        user_row = [0] * (pool_cols + msg_cols)
        user_row[user - 1] = 1
        rows.append(user_row)
        reduced, pivots = rref(rows, q)
        pure = [r for r in reduced if not any(r[:pool_cols])]
        # everything derivable without pool residue touches only desired symbols
        desired_cols = {pool_cols + (desired - 1) * p.L + i for i in range(p.L)}
        support = set()
        for r in pure:
            support |= {i for i, x in enumerate(r) if x}
        assert support == desired_cols
        assert len(pure) == p.L


def test_mutations_change_the_right_slot():
    p = SchemeParams.create(2, 2, 2)
    table = select_query(p, 1, 1, stream("mut"))
    reused = apply_mutation(table, 1, "seed-reuse")
    flat = [sr for db in reused for sr in db]
    assert sum(1 for sr in flat if sr.cr == 1) == 3  # seed now on one undesired sum too

    unmasked = apply_mutation(table, 1, "unmask-one")
    assert any(sr.cr is None and messages(sr.terms) == (2,) for db in unmasked for sr in db)

    bare = apply_mutation(table, 1, "bare-companion")
    assert any(sr.cr is None and len(sr.terms) == 2 for db in bare for sr in db)

    with pytest.raises(SchemeError):
        apply_mutation(select_query(SchemeParams.create(1, 2, 2), 1, 1, stream("m")), 1, "bare-companion")
    assert set(MUTATIONS) == {"seed-reuse", "unmask-one", "bare-companion"}


def test_validate_query_cell_flags_seed_misuse():
    # the decoder refuses a desired 1-sum masked with anything but the seed
    p = SchemeParams.create(2, 2, 257)
    table = assign_common_randomness(identity_plan(p, 1), p)
    broken = tuple(
        tuple(
            SpirRequest(sr.terms, 2 if messages(sr.terms) == (1,) and db == 0 else sr.cr)
            for sr in db_reqs
        )
        for db, db_reqs in enumerate(table)
    )
    assert decode_plan(p, 1, table, 1)
    with pytest.raises(DecodeError, match="masked with S2, user holds S1"):
        decode_plan(p, 1, broken, 1)


def test_canonical_family_shape_and_json():
    p = SchemeParams.create(2, 2, 257)
    fam = canonical_family(p)
    assert sorted(fam) == [1, 2, 3]
    assert all(len(variants) == 2 for variants in fam.values())
    assert all(sorted(v) == [1, 2] for variants in fam.values() for v in variants)
    doc = family_json(p, fam)
    assert len(doc["cells"]) == 6
    assert doc["params"]["rs_size"] == 3

