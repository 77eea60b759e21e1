"""Exact audits of the retrieval scheme's guarantees, one table per desired index.

The scheme is linear over F_q. Under a fixed query table T, every answer is
a 0/1 row over the unknowns X = (W, S), all message symbols followed by all
pool symbols, and so is the user's own pool entry S_u. X is uniform on
F_q^n, and for any matrix A the vector AX is uniform on A's column space, so
H(AX | T) = rank(A) q-ary units. For view rows V and target rows B,

    I(VX; BX | T) = rank V + rank B - rank [V; B].

T is drawn from the coins and from u alone, and neither depends on X, so
I(T; BX) = 0 and I((T, VX); BX) = sum over T of P(T) * I(VX; BX | T): an
exact Fraction, at a cost that does not grow with q.

Why one table per desired index is exact. Let T_k be
assign_common_randomness(identity_plan(params, k)): identity symbol
orderings and seed 1, with any mutation applied at seed 1.

  * plan_with_perms(perms) is the identity plan with the symbols of each
    message relabeled, because its take() reads nothing but perms. So
    assign_common_randomness of that plan is T_k with the same symbol
    relabeling and some pool relabeling tau that fixes index 1; tau comes
    from tie-breaks in undesired_only_slots at N >= 3.
  * At N >= 2, sample_variant is uniform on the bijections that fix 1, so
    variant o tau is too, and shift_cell then moves 1 to the user's uniform
    index u. The emitted table is therefore g.T_k with g uniform on
    G = S_L^K x S_rs. At N = 1, L = 1, the variant is the identity and g is
    the cyclic shift by u - 1.
  * apply_mutation commutes with every relabeling, so a mutated emitted
    table is g applied to the mutated T_k.
  * g permutes the columns of X and carries the user's pool row S_1 to S_u.
    Ranks do not change when columns are permuted, so every table in the
    orbit has T_k's rank values, and the P(T)-weighted I is T_k's own value,
    at every N. A PASS therefore covers every joint (messages, pool, user
    index, coins) outcome.

User privacy. Database db sees g.T_k[db] with g uniform on the group the
scheme draws from, so its query is uniform on the orbit O_k of T_k[db].
  (a) The per-database query distributions coincide across desired indices
      iff, for each database, the orbit key of T_k[db] is the same for
      every k.
  (b) The conditional ones then coincide too. u is a function of the query,
      the index on that database's single W_k 1-sum, which no fault
      changes, and P(u) = 1/rs, so P(q | k, u) = rs/|O_k| for every k, and
      the O_k are one orbit by (a).
The orbit key names the orbit under that group (orbit_key):
  * At N >= 2, G = S_L^K x S_rs. When no (message, symbol) appears twice in
    one database's query, the key is orbit_invariant: the sorted multiset,
    over pool indices, of the sorted message subsets sharing that index,
    plus the sorted message subsets of the unmasked requests.
  * At N = 1, L = 1 and the variant is the identity, so the emitted pool
    maps are the rs cyclic shifts. orbit_invariant allows every pool
    bijection and so equates queries no shift maps onto each other (T_1[0]
    and T_2[0] at (1,4) under seed-reuse). The key is the least
    encode_query_payload over the rs shifts of T_k[0], an exact canonical
    form of the orbit with no precondition. No nonzero shift fixes a query,
    because it moves the index on the W_k 1-sum, so |O_k| = rs and
    P(q | k, u) = 1.

Audits:
  reliability        every step sim.decode plans leaves exactly the desired
                     symbol's row, so decode is right for every (W, S)
  user-privacy       per-database query distribution forgets the desired index
  database-privacy   I(T, answers, S_u; undesired message symbols) = 0
  cr-difference      I(T, answers, S_u, W_k; pool symbols other than S_u) = 0
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar

from .plan import SchemeParams, identity_plan, plan_with_perms
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
    decode_plan,
    message_column,
    pool_column,
    request_columns,
)
from .wire import encode_query_payload

DEFAULT_BOUND = 10**7


class AuditError(Exception):
    pass


class InstanceTooLarge(AuditError):
    """The instance has more query tables than query_distribution's bound."""

    def __init__(self, tables: int, bound: int):
        super().__init__(f"{tables} query tables exceed the bound of {bound}")
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
    details: dict = field(default_factory=dict)
    # every audit is exact; readers of reports and their JSON still check it
    exact: ClassVar[bool] = True

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        extra = f"  [{self.witness}]" if self.witness else ""
        return f"{tag} {self.name}: {self.value}{extra}"

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
# One representative table per desired index


@functools.lru_cache(maxsize=256)
def representative_table(
    params: SchemeParams, desired: int, mutation: Mutation | None = None
) -> QueryTable:
    """T_k: identity symbol orderings and seed 1, with the mutation applied
    at seed 1. Every table the user can emit for desired k is a relabeling of
    it (module docstring)."""
    table = assign_common_randomness(identity_plan(params, desired), params)
    return table if mutation is None else apply_mutation(table, desired, 1, mutation)


def _coverage(params: SchemeParams, representatives: int) -> dict:
    return {"representatives": representatives, "outcomes": joint_space_outcomes(params)}


def _passed(name: str, value: str, params: SchemeParams) -> AuditReport:
    coverage = _coverage(params, params.K)
    return AuditReport(
        name,
        True,
        f"{value} on all {coverage['outcomes']} joint outcomes per desired index",
        details=coverage,
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


def orbit_invariant(db_query: tuple[SpirRequest, ...]) -> tuple:
    """What one database's query keeps under every relabeling of symbol and
    pool indices: the sorted multiset, over pool indices, of the sorted
    message subsets sharing that index, and the sorted message subsets of the
    unmasked requests. It names the query's orbit only when no (message,
    symbol) appears twice in the query; AuditError otherwise.
    """
    seen: set[tuple[int, int]] = set()
    by_index: dict[int, list[tuple[int, ...]]] = {}
    unmasked = []
    for sr in db_query:
        for term in sr.terms:
            if term in seen:
                raise AuditError(
                    f"W{term[0]}[{term[1]}] appears twice in one database's query, "
                    "so its orbit invariant is incomplete"
                )
            seen.add(term)
        subsets = unmasked if sr.cr is None else by_index.setdefault(sr.cr, [])
        subsets.append(sr.base.messages())
    return sorted(tuple(sorted(s)) for s in by_index.values()), sorted(unmasked)


def orbit_key(params: SchemeParams, db_query: tuple[SpirRequest, ...]):
    """Equal for two queries of one database exactly when some relabeling
    the scheme emits maps one onto the other (module docstring). At N >= 2
    it is orbit_invariant, under that function's precondition."""
    if params.N >= 2:
        return orbit_invariant(db_query)
    shifts = (shift_mapping(params.rs_size, d) for d in range(params.rs_size))
    return min(
        encode_query_payload(params, relabel_table((db_query,), shift)[0]) for shift in shifts
    )


def user_privacy_audit(params: SchemeParams, mutation: Mutation | None = None) -> AuditReport:
    """Queries must look identical to each database whatever is desired.

    Each database's orbit key of T_k must be the same for every desired
    index k; that is condition (a), and (b) follows from it (module
    docstring).
    """
    tables = [representative_table(params, k, mutation) for k in range(1, params.K + 1)]
    coverage = _coverage(params, len(tables))
    for db in range(params.N):
        base = orbit_key(params, tables[0][db])
        for k in range(2, params.K + 1):
            if orbit_key(params, tables[k - 1][db]) != base:
                return AuditReport(
                    "user-privacy",
                    False,
                    "query distributions depend on the desired index",
                    witness=(
                        f"db{db+1}: no relabeling the scheme emits maps "
                        f"q = {_render_db_query(tables[0][db], params.L)} for desired W1 "
                        f"onto q = {_render_db_query(tables[k - 1][db], params.L)} "
                        f"for desired W{k}"
                    ),
                    details=coverage,
                )
    return AuditReport(
        "user-privacy",
        True,
        "per-database query distributions are identical across desired indices",
        details=coverage,
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


def reliability_audit(params: SchemeParams, mutation: Mutation | None = None) -> AuditReport:
    """Decode must return the stored desired message on every joint outcome."""
    name = "reliability"
    for desired in range(1, params.K + 1):
        table = representative_table(params, desired, mutation)
        try:
            wrong = misdecoded_symbols(params, desired, 1, table)
        except DecodeError as e:
            value = f"desired W{desired}: structurally undecodable ({e})"
        else:
            if not wrong:
                continue
            value = f"desired W{desired}: decode misses W{desired}{wrong} on some (W, S)"
        return AuditReport(
            name,
            False,
            value,
            witness=f"user S1, query {_render_table(table, params.L)}",
            details=_coverage(params, desired),
        )
    return _passed(name, "decode exact", params)


def _leak_audit(params: SchemeParams, mutation: Mutation | None, name: str, leak) -> AuditReport:
    for desired in range(1, params.K + 1):
        table = representative_table(params, desired, mutation)
        units = leak(params, desired, 1, table)
        if units:
            return AuditReport(
                name,
                False,
                f"desired W{desired}: information leak, I = {units} (exact)",
                witness=(
                    f"I(view; target | T) = {units} at user S1, "
                    f"T = {_render_table(table, params.L)}"
                ),
                details={"leak": str(units), **_coverage(params, desired)},
            )
    return _passed(name, "I = 0 (exact factorization)", params)


def database_privacy_audit(
    params: SchemeParams, mutation: Mutation | None = None
) -> AuditReport:
    """User's whole view must be independent of the undesired messages.

    View = (query table, answers, user pool entry); target = every message
    symbol outside the desired message.
    """
    return _leak_audit(params, mutation, "database-privacy", database_privacy_leak)


def cr_difference_audit(params: SchemeParams, mutation: Mutation | None = None) -> AuditReport:
    """View plus the decoded message must reveal nothing about the rest of
    the pool (the shared-randomness symbols the user does not hold)."""
    return _leak_audit(params, mutation, "cr-difference", cr_difference_leak)


def run_all_audits(params: SchemeParams, mutation: Mutation | None = None) -> list[AuditReport]:
    return [
        reliability_audit(params, mutation),
        user_privacy_audit(params, mutation),
        database_privacy_audit(params, mutation),
        cr_difference_audit(params, mutation),
    ]
