"""Achievable rate region and reference rates, all in exact rationals.

A rate point is a triple (download per message symbol, server common
randomness per symbol, user common randomness per symbol). The region for a
given number of databases and messages is an intersection of half-spaces;
membership, tightness, corner points, and time-sharing certificates are all
computed with Fraction arithmetic so verdicts are exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .scheme import RateTriple


def geometric_sum(n_db: int, terms: int) -> Fraction:
    """1 + 1/N + ... + 1/N^(terms-1), in closed form; terms >= 1."""
    if n_db == 1:
        return Fraction(terms)
    return Fraction(n_db**terms - 1, (n_db - 1) * n_db ** (terms - 1))


def tail_sum(n_db: int, n_msg: int) -> Fraction:
    """1/N + ... + 1/N^(K-1)."""
    return geometric_sum(n_db, n_msg) - 1


@dataclass(frozen=True)
class ConstraintCheck:
    """One half-space: holds when lhs >= rhs."""

    name: str
    lhs: Fraction
    rhs: Fraction

    @property
    def ok(self) -> bool:
        return self.lhs >= self.rhs

    @property
    def tight(self) -> bool:
        return self.lhs == self.rhs

    def line(self) -> str:
        rel = "=" if self.tight else (">" if self.ok else "<")
        return f"{self.name}: {self.lhs} {rel} {self.rhs} ({'ok' if self.ok else 'violated'})"


@dataclass(frozen=True)
class RegionVerdict:
    n_db: int
    n_msg: int
    point: RateTriple
    checks: tuple[ConstraintCheck, ...]

    @property
    def inside(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "n_db": self.n_db,
            "n_msg": self.n_msg,
            "point": self.point.as_strings(),
            "inside": self.inside,
            "checks": [
                {"name": c.name, "lhs": str(c.lhs), "rhs": str(c.rhs), "ok": c.ok, "tight": c.tight}
                for c in self.checks
            ],
        }


def _validate_nk(n_db: int, n_msg: int) -> None:
    if n_db < 1:
        raise ValueError("need at least one database")
    if n_msg < 2:
        raise ValueError("need at least two messages")


def check_region(n_db: int, n_msg: int, point: RateTriple) -> RegionVerdict:
    """Test a rate triple against every boundary of the achievable region."""
    _validate_nk(n_db, n_msg)
    d, rs, ru = point.d, point.rho_s, point.rho_u
    if n_db == 1:
        checks = (
            ConstraintCheck("download", d, Fraction(n_msg)),
            ConstraintCheck("randomness-gap", rs - ru, Fraction(n_msg - 1)),
            ConstraintCheck("user-floor", ru, Fraction(1)),
        )
    else:
        n = Fraction(n_db)
        checks = (
            ConstraintCheck("download", d, geometric_sum(n_db, n_msg)),
            ConstraintCheck("randomness-gap", rs - ru, tail_sum(n_db, n_msg)),
            ConstraintCheck("download-user-tradeoff", (n - 1) / n * d + ru, Fraction(1)),
            ConstraintCheck("server-user-tradeoff", n / (n - 1) * ru + n * rs, n / (n - 1)),
        )
    return RegionVerdict(n_db, n_msg, point, checks)


def corner_point(n_db: int, n_msg: int) -> RateTriple:
    """The extreme point the concrete scheme achieves."""
    _validate_nk(n_db, n_msg)
    if n_db == 1:
        return RateTriple(Fraction(n_msg), Fraction(n_msg), Fraction(1))
    return RateTriple(
        geometric_sum(n_db, n_msg),
        Fraction(n_db**n_msg - 1, (n_db - 1) * n_db**n_msg),
        Fraction(1, n_db**n_msg),
    )


def classical_point(n_db: int, n_msg: int) -> RateTriple:
    """Best rates with no user-side randomness at all."""
    _validate_nk(n_db, n_msg)
    if n_db == 1:
        raise ValueError("a single database cannot serve without user-side randomness")
    return RateTriple(Fraction(n_db, n_db - 1), Fraction(1, n_db - 1), Fraction(0))


@dataclass(frozen=True)
class Baselines:
    """Reference capacities: retrieval alone, and symmetric retrieval.

    Symmetric retrieval from a single database is impossible, so there
    c_spir is zero and the two classical costs are undefined.
    """

    c_pir: Fraction
    c_spir: Fraction
    d_pir: Fraction
    d_spir: Fraction | None
    rho_s_classical: Fraction | None

    def to_dict(self) -> dict:
        return {
            "c_pir": str(self.c_pir),
            "c_spir": str(self.c_spir),
            "d_pir": str(self.d_pir),
            "d_spir": None if self.d_spir is None else str(self.d_spir),
            "rho_s_classical": None
            if self.rho_s_classical is None
            else str(self.rho_s_classical),
        }


def baselines(n_db: int, n_msg: int) -> Baselines:
    _validate_nk(n_db, n_msg)
    if n_db == 1:
        return Baselines(Fraction(1, n_msg), Fraction(0), Fraction(n_msg), None, None)
    c_pir = 1 / geometric_sum(n_db, n_msg)
    c_spir = Fraction(n_db - 1, n_db)
    return Baselines(c_pir, c_spir, 1 / c_pir, 1 / c_spir, Fraction(1, n_db - 1))


@dataclass(frozen=True)
class TimeSharePlan:
    """Certificate that a target point is achievable.

    Run the corner-point scheme a weight_corner fraction of the time and the
    classical zero-user-randomness scheme the rest, then absorb the leftover
    resources as padding. Padding is componentwise nonnegative exactly when
    the target lies in the region.
    """

    target: RateTriple
    weight_corner: Fraction
    corner: RateTriple
    classical: RateTriple
    mix: RateTriple
    padding: RateTriple

    def to_dict(self) -> dict:
        return {
            "target": self.target.as_strings(),
            "weight_corner": str(self.weight_corner),
            "corner": self.corner.as_strings(),
            "classical": self.classical.as_strings(),
            "mix": self.mix.as_strings(),
            "padding": self.padding.as_strings(),
        }


def _mix(a: RateTriple, b: RateTriple, lam: Fraction) -> RateTriple:
    return RateTriple(
        lam * a.d + (1 - lam) * b.d,
        lam * a.rho_s + (1 - lam) * b.rho_s,
        lam * a.rho_u + (1 - lam) * b.rho_u,
    )


def time_share_plan(n_db: int, n_msg: int, target: RateTriple) -> TimeSharePlan | None:
    """Decompose target into corner/classical time sharing plus padding.

    Returns None when the target lies outside the region. The mixing weight
    is chosen so the user-randomness rate is met without padding whenever
    possible; the two tradeoff boundaries are tight along the whole mixing
    segment, which forces the remaining padding to be nonnegative.
    """
    _validate_nk(n_db, n_msg)
    if n_db == 1:
        raise ValueError("time sharing needs the classical point, absent for one database")
    if not check_region(n_db, n_msg, target).inside:
        return None
    a, b = corner_point(n_db, n_msg), classical_point(n_db, n_msg)
    lam = min(target.rho_u / a.rho_u, Fraction(1))
    mixed = _mix(a, b, lam)
    padding = RateTriple(
        target.d - mixed.d, target.rho_s - mixed.rho_s, target.rho_u - mixed.rho_u
    )
    if min(padding.d, padding.rho_s, padding.rho_u) < 0:
        raise AssertionError("padding went negative for an in-region target")
    return TimeSharePlan(target, lam, a, b, mixed, padding)


def boundary_rows(n_db: int, n_msg: int, steps: int = 8) -> list[tuple[Fraction, Fraction, Fraction]]:
    """(rho_u, minimal d, minimal rho_s) samples along the lower boundary."""
    _validate_nk(n_db, n_msg)
    if steps < 1:
        raise ValueError("steps must be positive")
    if n_db == 1:
        return [(Fraction(1), Fraction(n_msg), Fraction(n_msg))]
    n = Fraction(n_db)
    ru_star = Fraction(1, n_db**n_msg)
    d_pir, tail = geometric_sum(n_db, n_msg), tail_sum(n_db, n_msg)
    rows = []
    for i in range(steps + 1):
        ru = ru_star * Fraction(i, steps)
        d_min = max(d_pir, (1 - ru) * n / (n - 1))
        rs_min = max(ru + tail, (1 - ru) / (n - 1))
        rows.append((ru, d_min, rs_min))
    return rows
