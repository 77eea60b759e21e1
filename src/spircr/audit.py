"""Exhaustive, exact audits of the retrieval scheme's guarantees.

Every audit walks the complete space of query tables an instance can emit:
each pool index the user can hold and every coin the user can flip while
building a query, merged into distinct tables with integer weights. Nothing
is sampled, so a PASS is a proof for that instance rather than a statistical
statement.

The scheme is linear over F_q. Under a fixed query table T, every answer is
a 0/1 row over the unknowns X = (W, S), all message symbols followed by all
pool symbols, and so is the user's own pool entry S_u. X is uniform on
F_q^n, and for any matrix A the vector AX is uniform on A's column space, so
H(AX | T) = rank(A) q-ary units. For view rows V and target rows B,

    I(VX; BX | T) = rank V + rank B - rank [V; B].

T is drawn from the coins and from u alone, and neither depends on X, so
I(T; BX) = 0 and I((T, VX); BX) = sum over T of P(T) * I(VX; BX | T): an
exact Fraction, reached without enumerating X, at a cost that does not grow
with q. A PASS therefore covers every joint (messages, pool, user index,
coins) outcome.

Audits:
  reliability        every step sim.decode plans leaves exactly the desired
                     symbol's row, so decode is right for every (W, S)
  user-privacy       per-database query distribution forgets the desired index
  database-privacy   I(T, answers, S_u; undesired message symbols) = 0
  cr-difference      I(T, answers, S_u, W_k; pool symbols other than S_u) = 0
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .plan import SchemeParams, plan_with_perms
from .scheme import (
    Mutation,
    QueryTable,
    SpirRequest,
    apply_mutation,
    assign_common_randomness,
    format_request,
    permute_nonseed,
    relabel_table,
    shift_mapping,
    variant_count,
    variant_mappings,
)
from .sim import (
    DecodeError,
    RetrievalSeeds,
    decode_plan,
    message_column,
    pool_column,
    request_columns,
    run_retrieval,
)
from .fields import Seed
from .wire import encode_query_payload

DEFAULT_BOUND = 10**7


class AuditError(Exception):
    pass


class InstanceTooLarge(AuditError):
    """The instance has more query tables than the configured bound."""

    def __init__(self, tables: int, bound: int):
        super().__init__(
            f"{tables} query tables exceed the bound of {bound}; "
            "raise the bound or use the sampled statistical mode"
        )
        self.tables = tables
        self.bound = bound


# ---------------------------------------------------------------------------
# Exact distribution container


@dataclass(frozen=True)
class Distribution:
    """Probability masses over a finite outcome alphabet, summing to one."""

    mass: dict

    def __post_init__(self) -> None:
        if any(p <= 0 for p in self.mass.values()):
            raise ValueError("distribution has a non-positive mass")
        if sum(self.mass.values()) != 1:
            raise ValueError("distribution masses must sum to exactly 1")


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class AuditReport:
    name: str
    passed: bool
    value: str
    witness: str | None = None
    exact: bool = True
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        extra = f"  [{self.witness}]" if self.witness else ""
        mode = "" if self.exact else " (statistical, non-exact)"
        return f"{tag} {self.name}: {self.value}{mode}{extra}"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "value": self.value,
            "witness": self.witness,
            "exact": self.exact,
            "details": self.details,
        }


# ---------------------------------------------------------------------------
# Coin-space enumeration: every query table the user can emit, with weights


def coin_count(params: SchemeParams) -> int:
    return math.factorial(params.L) ** params.K * variant_count(params)


def table_space_outcomes(params: SchemeParams) -> int:
    return params.rs_size * coin_count(params)


def joint_space_outcomes(params: SchemeParams) -> int:
    return table_space_outcomes(params) * params.q ** (params.K * params.L + params.rs_size)


_SEED1_CACHE: dict = {}
_TABLE_CACHE: dict = {}


def _seed1_tables(params: SchemeParams, desired: int) -> list[tuple[int, QueryTable]]:
    """Distinct canonical-seed query tables with coin multiplicities."""
    key = (params, desired)
    if key in _SEED1_CACHE:
        return _SEED1_CACHE[key]
    counts: dict[QueryTable, int] = {}
    perms_per_msg = list(itertools.permutations(range(params.L)))
    vmaps = variant_mappings(params, 1)
    for perms in itertools.product(perms_per_msg, repeat=params.K):
        table = assign_common_randomness(plan_with_perms(params, desired, perms), params)
        for vmap in vmaps:
            variant = permute_nonseed(table, 1, vmap)
            counts[variant] = counts.get(variant, 0) + 1
    out = sorted(counts.items(), key=lambda kv: repr(kv[0]))
    result = [(w, t) for t, w in out]
    _SEED1_CACHE[key] = result
    return result


def tables_for_seed(
    params: SchemeParams, desired: int, seed: int, mutation: Mutation | None = None
) -> list[tuple[int, QueryTable]]:
    """Distinct query tables emitted for (desired, user index), with weights."""
    key = (params, desired, seed, mutation)
    if key in _TABLE_CACHE:
        return _TABLE_CACHE[key]
    shift = shift_mapping(params.rs_size, seed - 1)
    counts: dict[QueryTable, int] = {}
    for w, table in _seed1_tables(params, desired):
        shifted = relabel_table(table, shift)
        if mutation is not None:
            shifted = apply_mutation(shifted, desired, seed, mutation)
        counts[shifted] = counts.get(shifted, 0) + w
    result = [(w, t) for t, w in sorted(counts.items(), key=lambda kv: repr(kv[0]))]
    _TABLE_CACHE[key] = result
    return result


def _check_bound(tables: int, bound: int) -> None:
    if tables > bound:
        raise InstanceTooLarge(tables, bound)


def _render_db_query(db_reqs: tuple[SpirRequest, ...], length: int) -> str:
    return ", ".join(format_request(sr, length) for sr in db_reqs)


def _render_table(table: QueryTable, length: int) -> str:
    return " | ".join(
        f"db{i}: {_render_db_query(reqs, length)}" for i, reqs in enumerate(table, 1)
    )


# ---------------------------------------------------------------------------
# Query distributions and user privacy


def query_distribution(
    params: SchemeParams,
    db: int,
    desired: int,
    user_cr_index: int | None = None,
    mutation: Mutation | None = None,
    bound: int = DEFAULT_BOUND,
) -> Distribution:
    """Exact distribution of the serialized query database db receives.

    With user_cr_index given, the distribution is conditioned on that pool
    choice; with None it is marginalized over the uniform pool choice.
    """
    if not 1 <= db <= params.N:
        raise ValueError(f"database index {db} outside [1, {params.N}]")
    _check_bound(table_space_outcomes(params), bound)
    seeds = [user_cr_index] if user_cr_index is not None else range(1, params.rs_size + 1)
    coins = coin_count(params)
    counts: dict[bytes, int] = {}
    for s in seeds:
        for w, table in tables_for_seed(params, desired, s, mutation):
            key = encode_query_payload(params, table[db - 1])
            counts[key] = counts.get(key, 0) + w
    denom = coins * len(list(seeds))
    return Distribution({k: Fraction(v, denom) for k, v in counts.items()})


def _per_db_count_maps(params: SchemeParams, desired: int, mutation: Mutation | None):
    """cond[u][db] and marg[db]: integer counts of per-database queries."""
    rs, n_db = params.rs_size, params.N
    cond: dict[int, list[dict]] = {}
    marg: list[dict] = [dict() for _ in range(n_db)]
    for u in range(1, rs + 1):
        cond[u] = [dict() for _ in range(n_db)]
        for w, table in tables_for_seed(params, desired, u, mutation):
            for db in range(n_db):
                dq = table[db]
                cond[u][db][dq] = cond[u][db].get(dq, 0) + w
                marg[db][dq] = marg[db].get(dq, 0) + w
    return cond, marg


def _seed_of(db_query: tuple[SpirRequest, ...], message: int) -> int | None:
    for sr in db_query:
        if sr.size == 1 and sr.terms[0][0] == message:
            return sr.cr
    return None


def user_privacy_audit(
    params: SchemeParams,
    mutation: Mutation | None = None,
    bound: int = DEFAULT_BOUND,
) -> AuditReport:
    """Queries must look identical to each database whatever is desired.

    Two exact checks per database: (a) the pool-marginalized query
    distributions coincide for every desired index, and (b) realization by
    realization, the query's probability given (desired k, the pool index it
    pins for k) equals its probability given (k', the index it pins for k').
    """
    _check_bound(table_space_outcomes(params) * params.K, bound)
    name = "user-privacy"
    data = {
        k: _per_db_count_maps(params, k, mutation) for k in range(1, params.K + 1)
    }

    for db in range(params.N):
        base = data[1][1][db]
        for k in range(2, params.K + 1):
            other = data[k][1][db]
            if other != base:
                diff = [q for q in set(base) | set(other) if base.get(q, 0) != other.get(q, 0)]
                q = sorted(diff, key=repr)[0]
                denom = coin_count(params) * params.rs_size
                return AuditReport(
                    name,
                    False,
                    "query distributions depend on the desired index",
                    witness=(
                        f"db{db+1}: count(q | desired W1) = {base.get(q, 0)}/{denom} vs "
                        f"count(q | desired W{k}) = {other.get(q, 0)}/{denom} for q = "
                        f"{_render_db_query(q, params.L)}"
                    ),
                )

    for db in range(params.N):
        for k in range(1, params.K + 1):
            cond_k = data[k][0]
            for k2 in range(1, params.K + 1):
                if k2 == k:
                    continue
                cond_k2 = data[k2][0]
                for u in range(1, params.rs_size + 1):
                    for q, c in cond_k[u][db].items():
                        r2 = _seed_of(q, k2)
                        c2 = cond_k2[r2][db].get(q, 0) if r2 is not None else 0
                        if c2 != c:
                            return AuditReport(
                                name,
                                False,
                                "conditional query distributions do not match",
                                witness=(
                                    f"db{db+1}: P(q | W{k}, S{u}) = {c} but "
                                    f"P(q | W{k2}, S{r2}) = {c2} for q = "
                                    f"{_render_db_query(q, params.L)}"
                                ),
                            )
    return AuditReport(
        name,
        True,
        "per-database query distributions are identical across desired indices",
        details={"tables": _table_count(params, mutation)},
    )


# ---------------------------------------------------------------------------
# Rank identities over F_q, one query table at a time


def rank_mod(rows: list[list[int]], q: int) -> int:
    """Rank of integer row vectors over the prime field F_q."""
    basis: dict[int, list[int]] = {}  # leading column -> row, 1 there, 0 before
    for row in rows:
        row = [x % q for x in row]
        for lead in sorted(basis):
            f = row[lead]
            if f:
                row = [(x - f * y) % q for x, y in zip(row, basis[lead])]
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is not None:
            inv = pow(row[lead], -1, q)
            basis[lead] = [(x * inv) % q for x in row]
    return len(basis)


def _unit(params: SchemeParams, column: int) -> list[int]:
    row = [0] * (params.K * params.L + params.rs_size)
    row[column] = 1
    return row


def _message_rows(params: SchemeParams, message: int) -> list[list[int]]:
    return [_unit(params, message_column(params, message, s)) for s in range(1, params.L + 1)]


def _pool_row(params: SchemeParams, index: int) -> list[int]:
    return _unit(params, pool_column(params, index))


def answer_rows(params: SchemeParams, table: QueryTable) -> list[list[int]]:
    """Each answer as a 0/1 row over X, database by database: ones at the
    columns sim.answer_query sums."""
    rows = []
    for db_reqs in table:
        for sr in db_reqs:
            row = [0] * (params.K * params.L + params.rs_size)
            for c in request_columns(params, sr):
                row[c] = 1
            rows.append(row)
    return rows


def misdecoded_symbols(
    params: SchemeParams, desired: int, seed: int, table: QueryTable
) -> list[int]:
    """Desired symbols whose sim.decode_plan step is not exactly that symbol.

    A step subtracts its companion's row (or the user's pool row) from its
    source row; decode returns W_desired for every (W, S) exactly when each
    difference is the unit row of its symbol mod q, so an empty list is a
    proof. Raises DecodeError wherever sim.decode_plan does.
    """
    rows = answer_rows(params, table)
    wrong = []
    for sym, source, companion in decode_plan(params, desired, table, seed):
        sub = _pool_row(params, seed) if companion is None else rows[companion]
        want = _unit(params, message_column(params, desired, sym))
        if any((a - b - t) % params.q for a, b, t in zip(rows[source], sub, want)):
            wrong.append(sym)
    return wrong


def _information(view: list[list[int]], target: list[list[int]], q: int) -> int:
    return rank_mod(view, q) + rank_mod(target, q) - rank_mod(view + target, q)


def database_privacy_leak(params: SchemeParams, desired: int, seed: int, table: QueryTable) -> int:
    """I(answers, S_seed; undesired message symbols | T) in q-ary units."""
    view = answer_rows(params, table) + [_pool_row(params, seed)]
    target = [
        row for m in range(1, params.K + 1) if m != desired for row in _message_rows(params, m)
    ]
    return _information(view, target, params.q)


def cr_difference_leak(params: SchemeParams, desired: int, seed: int, table: QueryTable) -> int:
    """I(answers, S_seed, W_desired; pool symbols other than S_seed | T)."""
    view = (
        answer_rows(params, table) + [_pool_row(params, seed)] + _message_rows(params, desired)
    )
    target = [_pool_row(params, i) for i in range(1, params.rs_size + 1) if i != seed]
    return _information(view, target, params.q)


def _weighted_tables(params: SchemeParams, desired: int, mutation: Mutation | None):
    for u in range(1, params.rs_size + 1):
        for w, table in tables_for_seed(params, desired, u, mutation):
            yield u, w, table


def _table_count(params: SchemeParams, mutation: Mutation | None) -> int:
    """Distinct query tables over every desired index and user index."""
    return sum(
        len(tables_for_seed(params, desired, u, mutation))
        for desired in range(1, params.K + 1)
        for u in range(1, params.rs_size + 1)
    )


def _passed(
    name: str, value: str, params: SchemeParams, mutation: Mutation | None
) -> AuditReport:
    outcomes = joint_space_outcomes(params)
    tables = _table_count(params, mutation)
    return AuditReport(
        name,
        True,
        f"{value} on all {outcomes} joint outcomes per desired index",
        details={"outcomes": outcomes, "tables": tables},
    )


def reliability_audit(
    params: SchemeParams,
    mutation: Mutation | None = None,
    bound: int = DEFAULT_BOUND,
) -> AuditReport:
    """Decode must return the stored desired message on every joint outcome."""
    _check_bound(table_space_outcomes(params), bound)
    name = "reliability"
    for desired in range(1, params.K + 1):
        for u, _, table in _weighted_tables(params, desired, mutation):
            try:
                wrong = misdecoded_symbols(params, desired, u, table)
            except DecodeError as e:
                value = f"desired W{desired}: structurally undecodable ({e})"
            else:
                if not wrong:
                    continue
                value = f"desired W{desired}: decode misses W{desired}{wrong} on some (W, S)"
            return AuditReport(
                name, False, value, witness=f"user S{u}, query {_render_table(table, params.L)}"
            )
    return _passed(name, "decode exact", params, mutation)


def _leak_audit(
    params: SchemeParams,
    mutation: Mutation | None,
    bound: int,
    name: str,
    leak,
) -> AuditReport:
    _check_bound(table_space_outcomes(params), bound)
    weight_total = coin_count(params) * params.rs_size
    for desired in range(1, params.K + 1):
        total = 0
        witness = None
        for u, w, table in _weighted_tables(params, desired, mutation):
            units = leak(params, desired, u, table)
            if units and witness is None:
                witness = (
                    f"I(view; target | T) = {units} at user S{u}, "
                    f"T = {_render_table(table, params.L)}"
                )
            total += w * units
        if total:
            info = Fraction(total, weight_total)
            return AuditReport(
                name,
                False,
                f"desired W{desired}: information leak, I = {info} (exact)",
                witness=witness,
                details={"leak": str(info)},
            )
    return _passed(name, "I = 0 (exact factorization)", params, mutation)


def database_privacy_audit(
    params: SchemeParams,
    mutation: Mutation | None = None,
    bound: int = DEFAULT_BOUND,
) -> AuditReport:
    """User's whole view must be independent of the undesired messages.

    View = (query table, answers, user pool entry); target = every message
    symbol outside the desired message.
    """
    return _leak_audit(params, mutation, bound, "database-privacy", database_privacy_leak)


def cr_difference_audit(
    params: SchemeParams,
    mutation: Mutation | None = None,
    bound: int = DEFAULT_BOUND,
) -> AuditReport:
    """View plus the decoded message must reveal nothing about the rest of
    the pool (the shared-randomness symbols the user does not hold)."""
    return _leak_audit(params, mutation, bound, "cr-difference", cr_difference_leak)


def run_all_audits(
    params: SchemeParams,
    mutation: Mutation | None = None,
    bound: int = DEFAULT_BOUND,
) -> list[AuditReport]:
    return [
        reliability_audit(params, mutation, bound),
        user_privacy_audit(params, mutation, bound),
        database_privacy_audit(params, mutation, bound),
        cr_difference_audit(params, mutation, bound),
    ]


# ---------------------------------------------------------------------------
# Sampled statistical fallback (clearly non-exact)


def statistical_user_privacy(
    params: SchemeParams,
    samples: int = 2000,
    seed: Seed | None = None,
) -> AuditReport:
    """Chi-square comparison of sampled per-database query frequencies.

    A smoke test for instances beyond the enumeration bound: approximate by
    construction, and labeled as such. PASS means the two-sample chi-square
    statistic stays within five standard deviations of its mean for every
    database and desired pair.
    """
    if samples < 1:
        raise ValueError("statistical mode needs at least one sample per desired index")
    seed = seed or Seed.from_text("statistical-user-privacy")
    counts: list[list[dict[bytes, int]]] = []
    for k in range(1, params.K + 1):
        per_db: list[dict[bytes, int]] = [dict() for _ in range(params.N)]
        for i in range(samples):
            seeds = RetrievalSeeds.from_master(seed.derive(f"k{k}-run{i}"))
            t = run_retrieval(params, k, seeds)
            for db, reqs in enumerate(t.query):
                key = encode_query_payload(params, reqs)
                per_db[db][key] = per_db[db].get(key, 0) + 1
        counts.append(per_db)

    worst = 0.0
    worst_desc = ""
    for db in range(params.N):
        for k2 in range(1, params.K):
            c1, c2 = counts[0][db], counts[k2][db]
            support = set(c1) | set(c2)
            stat = 0.0
            for key in support:
                a, b = c1.get(key, 0), c2.get(key, 0)
                if a + b:
                    stat += (a - b) ** 2 / (a + b)
            dof = max(len(support) - 1, 1)
            z = (stat - dof) / math.sqrt(2 * dof)
            if z > worst:
                worst, worst_desc = z, f"db{db+1}, desired W1 vs W{k2+1}"
    passed = worst <= 5.0
    return AuditReport(
        "user-privacy-sampled",
        passed,
        f"max chi-square z-score {worst:.2f} over {samples} samples per desired",
        witness=None if passed else worst_desc,
        exact=False,
    )
