import random
from fractions import Fraction

import pytest

from spircr.plan import SchemeParams
from spircr.region import (
    Baselines,
    baselines,
    boundary_rows,
    check_region,
    classical_point,
    corner_point,
    geometric_sum,
    tail_sum,
    time_share_plan,
)
from spircr.scheme import RateTriple, measured_rates, scheme_rates

GRID = [(n, k) for n in (1, 2, 3) for k in (2, 3, 4)]


def triple(d, rs, ru) -> RateTriple:
    return RateTriple(Fraction(d), Fraction(rs), Fraction(ru))


def test_geometric_sums():
    assert geometric_sum(2, 2) == Fraction(3, 2)
    assert geometric_sum(2, 3) == Fraction(7, 4)
    assert tail_sum(2, 2) == Fraction(1, 2)
    assert tail_sum(3, 3) == Fraction(4, 9)


@pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 8) for k in range(1, 13)] + [(3, 400)])
def test_geometric_sum_closed_form_equals_the_term_by_term_sum(n, k):
    assert geometric_sum(n, k) == sum((Fraction(1, n**i) for i in range(k)), Fraction(0))


@pytest.mark.parametrize("n,k,expected", [
    (1, 3, ("3", "3", "1")),
    (2, 2, ("3/2", "3/4", "1/4")),
    (3, 2, ("4/3", "4/9", "1/9")),
    (2, 3, ("7/4", "7/8", "1/8")),
])
def test_corner_points(n, k, expected):
    c = corner_point(n, k)
    assert (str(c.d), str(c.rho_s), str(c.rho_u)) == expected


@pytest.mark.parametrize("n,k", GRID)
def test_scheme_rates_sit_on_every_boundary(n, k):
    rates = measured_rates(SchemeParams.create(n, k))
    assert rates == scheme_rates(n, k) == corner_point(n, k)
    verdict = check_region(n, k, rates)
    assert verdict.inside
    assert all(c.tight for c in verdict.checks)


def test_classical_point_feasible_with_download_slack():
    verdict = check_region(2, 2, triple(2, 1, 0))
    assert verdict.inside
    by_name = {c.name: c for c in verdict.checks}
    download = by_name["download"]
    assert download.lhs - download.rhs == Fraction(1, 2)
    assert by_name["download-user-tradeoff"].tight
    assert by_name["server-user-tradeoff"].tight


def test_region_rejections():
    assert not check_region(2, 2, triple("3/2", "3/4", "1/3")).inside  # gap too small
    assert not check_region(2, 2, triple(1, 1, 1)).inside  # download below floor
    assert not check_region(1, 2, triple(2, 2, ".5")).inside  # single-db user floor
    with pytest.raises(ValueError):
        check_region(2, 1, triple(1, 1, 1))
    with pytest.raises(ValueError):
        check_region(0, 2, triple(1, 1, 1))
    with pytest.raises(ValueError, match="single database cannot serve"):
        classical_point(1, 3)
    with pytest.raises(ValueError, match="steps must be positive"):
        boundary_rows(2, 2, steps=0)


def test_single_db_constraints():
    verdict = check_region(1, 3, triple(3, 3, 1))
    assert verdict.inside and all(c.tight for c in verdict.checks)
    assert [c.name for c in verdict.checks] == ["download", "randomness-gap", "user-floor"]


@pytest.mark.parametrize("n,k,c_pir,c_spir", [
    (2, 2, "2/3", "1/2"),
    (3, 3, "18/13", None),
    (1, 4, "1/4", "0"),
])
def test_baseline_capacities(n, k, c_pir, c_spir):
    b = baselines(n, k)
    if n == 3:
        # 1 / (1 + 1/3 + 1/9) = 9/13
        assert b.c_pir == Fraction(9, 13)
    else:
        assert b.c_pir == Fraction(c_pir)
    if c_spir is not None:
        assert b.c_spir == Fraction(c_spir)
    if n == 1:
        assert b.d_spir is None and b.rho_s_classical is None
    else:
        assert b.d_spir == 1 / b.c_spir
        assert b.rho_s_classical == Fraction(1, n - 1)


def test_classical_reduction_binding():
    # with no user randomness the region collapses to the classical rates
    for n in (2, 3, 4):
        d_min = Fraction(n, n - 1)
        rs_min = Fraction(1, n - 1)
        for k in (2, 3):
            assert check_region(n, k, RateTriple(d_min, rs_min, Fraction(0))).inside
            eps = Fraction(1, 1000)
            assert not check_region(n, k, RateTriple(d_min - eps, rs_min, Fraction(0))).inside
            assert not check_region(n, k, RateTriple(d_min, rs_min - eps, Fraction(0))).inside


def test_time_share_endpoints_and_midpoint():
    assert time_share_plan(2, 2, triple("3/2", "3/4", "1/4")).weight_corner == 1
    assert time_share_plan(2, 2, triple(2, 1, 0)).weight_corner == 0
    mid = time_share_plan(2, 2, triple("7/4", "7/8", "1/8"))
    assert mid.weight_corner == Fraction(1, 2)
    assert mid.padding == triple(0, 0, 0)


def test_time_share_padding_for_interior_points():
    plan = time_share_plan(2, 2, triple(3, 2, "1/4"))
    assert plan.weight_corner == 1
    assert plan.padding.d == Fraction(3, 2)
    assert plan.padding.rho_s == Fraction(5, 4)
    assert plan.padding.rho_u == 0
    big_ru = time_share_plan(2, 2, triple(2, 2, 1))
    assert big_ru.weight_corner == 1
    assert big_ru.padding.rho_u == Fraction(3, 4)


def test_time_share_infeasible_and_single_db():
    assert time_share_plan(2, 2, triple(1, 0, 0)) is None
    with pytest.raises(ValueError):
        time_share_plan(1, 3, triple(3, 3, 1))


def test_region_monotone_in_padding():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randrange(2, 5)
        k = rng.randrange(2, 5)
        base = corner_point(n, k)
        pad = [Fraction(rng.randrange(0, 8), 8) for _ in range(3)]
        bigger = RateTriple(base.d + pad[0], base.rho_s + pad[1] + pad[2], base.rho_u + pad[2])
        assert check_region(n, k, bigger).inside


def test_boundary_rows_shape():
    rows = boundary_rows(2, 2, steps=4)
    assert rows[0] == (Fraction(0), Fraction(2), Fraction(1))
    assert rows[-1] == (Fraction(1, 4), Fraction(3, 2), Fraction(3, 4))
    ds = [d for _, d, _ in rows]
    assert ds == sorted(ds, reverse=True)
    assert boundary_rows(1, 3) == [(Fraction(1), Fraction(3), Fraction(3))]
