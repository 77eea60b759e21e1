"""Exact audits of the retrieval scheme's guarantees, one table per desired index.

The scheme is linear over F_q. Under a fixed query table T, every answer is
a 0/1 row over the unknowns X = (W, S), all message symbols followed by all
pool symbols: ones at the columns sim.request_columns gives, the columns
sim.answer_query sums. So is the user's own pool entry S_u. X is uniform on
F_q^n, and for any matrix A the vector AX is uniform on A's column space, so
H(AX | T) = rank(A) q-ary units. For view rows V and target rows B,

    I(VX; BX | T) = rank V + rank B - rank [V; B].

Every target here is the unit rows B on a set C of columns: the undesired
messages' symbols, or the pool symbols other than S_u. Subtracting rows of
B clears the C columns of V without changing the span, so
rank [V; B] = |C| + rank(V without the columns C), rank B = |C|, and

    I(VX; BX | T) = rank V - rank(V without the columns C).

_leak counts that difference by one sparse elimination mod q over the
answers' columns, with the C columns pivoted last; no dense row is built.

T is drawn from the coins and from u alone, and neither depends on X, so
I(T; BX) = 0 and I((T, VX); BX) = sum over T of P(T) * I(VX; BX | T): an
exact Fraction, at a cost that does not grow with q.

Why one table per desired index is exact. Let T_k be
scheme.canonical_table(params, k, mutation): identity symbol orderings and
seed 1, with the mutation, if any, applied at seed 1.

  * select_query emits g.T_k by construction: it relabels
    canonical_table(params, k, mutation) itself, the symbols by the
    orderings it draws and the pool indices by shift o variant o tau. tau
    fixes index 1 and depends on the orderings alone: it is the reordering
    of mask slots whose ties the relabeled terms break (identity at
    N <= 2).
  * At N >= 2, sample_variant is uniform on the bijections that fix 1, so
    variant o tau is too, and the shift then moves 1 to the user's uniform
    index u. The emitted table is therefore g.T_k with g uniform on
    G = S_L^K x S_rs. At N = 1, L = 1, the variant is the identity and g is
    the cyclic shift by u - 1.
  * tables_for_seed, the gate's oracle below, enumerates select_query
    over every draw tape, so its tables are the ones select_query emits.
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
    and T_2[0] at (1,4) under seed-reuse). The key is the least, over the
    rs shifts of T_k[0], of the tuple ((terms, mask), ...) in request
    order, with mask 0 for an unmasked request; pool indices start at 1,
    so 0 names none. A shift keeps the request order and the tuple is
    injective, so its least image over the orbit is an exact canonical form
    with no precondition. One shift gives it: every shift keeps the terms
    and each unmasked request's 0, and takes the first masked request's
    index through each of 1..rs once, so the tuples first differ there and
    the least is the shift taking that index to 1 (any shift if none is
    masked). No nonzero shift fixes a query, because it moves the index on
    the W_k 1-sum, so |O_k| = rs and P(q | k, u) = 1.

Audits:
  reliability        every step sim.decode plans leaves exactly the desired
                     symbol's column, mod q, so decode is right for every (W, S)
  user-privacy       per-database query distribution forgets the desired index
  database-privacy   I(T, answers, S_u; undesired message symbols) = 0
  cr-difference      I(T, answers, S_u, W_k; pool symbols other than S_u) = 0

The exact query distribution is the acceptance gate's oracle, not an audit
path: query_distribution enumerates every coin through tables_for_seed into
a Distribution, and _check_bound raises InstanceTooLarge past its bound.
They stay here because the gate imports query_distribution; no audit calls
any of them.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import ClassVar

from .plan import SchemeParams, messages
from .scheme import (
    Mutation,
    QueryTable,
    SpirRequest,
    assign_common_randomness,  # noqa: F401  perfbench/tracing.py wraps it by name
    canonical_table,
    format_request,
    permute_nonseed,  # noqa: F401  perfbench/tracing.py wraps it by name
    select_query,
    variant_count,
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


class _Tape:
    """A draw stream that replays tape, then draws 0, and records the range
    of every draw. A draw is reduced mod its range, so it is always valid;
    tables_for_seed refuses a replay whose ranges differ from the probe's."""

    def __init__(self, tape: tuple[int, ...] = ()):
        self.draws, self.ranges = iter(tape), []

    def randrange(self, n: int) -> int:
        self.ranges.append(n)
        return next(self.draws, 0) % n


@functools.lru_cache(maxsize=256)
def tables_for_seed(
    params: SchemeParams, desired: int, seed: int, mutation: Mutation | None = None
) -> list[tuple[int, QueryTable]]:
    """Distinct query tables select_query emits for (desired, user index),
    each weighted by the number of draw tapes that emit it.

    A probe call records the range of every draw, and every tape in the
    product of those ranges is replayed. Fisher-Yates draw ranges do not
    depend on earlier draws, so the tapes are equally likely; a replay that
    asks for other ranges raises AuditError.
    """
    probe = _Tape()
    select_query(params, desired, seed, probe, mutation)
    counts: dict[QueryTable, int] = {}
    for tape in itertools.product(*map(range, probe.ranges)):
        replay = _Tape(tape)
        table = select_query(params, desired, seed, replay, mutation)
        if replay.ranges != probe.ranges:
            raise AuditError(f"tape {tape} draws from {replay.ranges}, not the probe's ranges")
        counts[table] = counts.get(table, 0) + 1
    return [(w, t) for t, w in counts.items()]


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


def _coverage(params: SchemeParams, representatives: int) -> dict:
    return {"representatives": representatives, "outcomes": joint_space_outcomes(params)}


def _count_text(count: int) -> str:
    """The count itself up to 15 digits, four significant digits beyond."""
    return str(count) if count < 10**15 else f"{Decimal(count):.3e}"


def _passed(name: str, value: str, params: SchemeParams) -> AuditReport:
    coverage = _coverage(params, params.K)
    return AuditReport(
        name,
        True,
        f"{value} on all {_count_text(coverage['outcomes'])} joint outcomes per desired index",
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
        subsets.append(messages(sr.terms))
    return sorted(tuple(sorted(s)) for s in by_index.values()), sorted(unmasked)


def orbit_key(params: SchemeParams, db_query: tuple[SpirRequest, ...]):
    """Equal for two queries of one database exactly when some relabeling
    the scheme emits maps one onto the other (module docstring): at N >= 2
    orbit_invariant, under its precondition, and at N = 1 the least shift."""
    if params.N >= 2:
        return orbit_invariant(db_query)
    rs = params.rs_size
    first = next((sr.cr for sr in db_query if sr.cr is not None), 1)
    return tuple((sr.terms, 0 if sr.cr is None else (sr.cr - first) % rs + 1) for sr in db_query)


def user_privacy_audit(params: SchemeParams, mutation: Mutation | None = None) -> AuditReport:
    """Queries must look identical to each database whatever is desired.

    Each database's orbit key of T_k must be the same for every desired
    index k; that is condition (a), and (b) follows from it (module
    docstring).
    """
    tables = [canonical_table(params, k, mutation) for k in range(1, params.K + 1)]
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
# Rank identities over F_q, on the columns each answer sums


def _table_columns(params: SchemeParams, table: QueryTable) -> list[list[int]]:
    """request_columns of every request, database by database."""
    return [request_columns(params, sr) for db_reqs in table for sr in db_reqs]


def _row(plus: list[int], minus: list[int], q: int) -> dict[int, int]:
    """The nonzero coefficients mod q of the sum of X at the plus columns
    minus the sum at the minus ones, each counted with multiplicity."""
    row: dict[int, int] = {}
    for c in plus:
        row[c] = row.get(c, 0) + 1
    for c in minus:
        row[c] = row.get(c, 0) - 1
    return {c: x % q for c, x in row.items() if x % q}


def _leak(params: SchemeParams, view: list[list[int]], target: set[int]) -> int:
    """rank V - rank(V without the target columns) over F_q, for view rows
    given as columns counted with multiplicity, as sim.answer_query sums.

    Each row pivots on its least column in an order that puts the target
    columns last, so a row that pivots on a target column is zero off the
    target. The rows that pivot off the target span V without the target
    columns, and the rest, counted here, number rank V minus its rank.
    """
    q, last = params.q, params.K * params.L + params.rs_size
    basis: dict[int, dict[int, int]] = {}  # pivot -> row, 1 at the pivot, 0 before
    leak = 0
    for cols in view:
        row: dict[int, int] = {}  # column -> count, the target columns moved last
        for c in cols:
            c = c + last if c in target else c
            row[c] = row.get(c, 0) + 1
        if len(row) < len(cols):  # a column repeats, so a count may reach q
            row = {c: x % q for c, x in row.items() if x % q}
        while row:
            lead = min(row)
            pivot_row = basis.get(lead)
            f = row[lead]
            if pivot_row is None:
                if f != 1:
                    inv = pow(f, -1, q)
                    row = {c: x * inv % q for c, x in row.items()}
                basis[lead] = row
                leak += lead >= last
                break
            for c, y in pivot_row.items():
                x = (row.get(c, 0) - f * y) % q
                if x:
                    row[c] = x
                else:  # present: f and y are nonzero, so a missing c gives x != 0
                    del row[c]
    return leak


def misdecoded_symbols(
    params: SchemeParams, desired: int, seed: int, table: QueryTable
) -> list[int]:
    """Desired symbols whose sim.decode_plan step is not exactly that symbol.

    A step subtracts its companion's columns (or the user's pool column)
    from its source's; decode returns W_desired for every (W, S) exactly
    when what is left is the symbol's own column once, mod q, so an empty
    list is a proof. Raises DecodeError wherever sim.decode_plan does.
    """
    requests = [sr for db_reqs in table for sr in db_reqs]
    shared: dict[int, list[int]] = {}  # companion -> its columns; one step reads each source
    wrong = []
    for sym, source, companion in decode_plan(params, desired, table, seed):
        if companion is not None and companion not in shared:
            shared[companion] = request_columns(params, requests[companion])
        sub = [pool_column(params, seed)] if companion is None else shared[companion]
        sub = sub + [message_column(params, desired, sym)]
        if _row(request_columns(params, requests[source]), sub, params.q):
            wrong.append(sym)
    return wrong


def database_privacy_leak(params: SchemeParams, desired: int, seed: int, table: QueryTable) -> int:
    """I(answers, S_seed; undesired message symbols | T) in q-ary units."""
    view = _table_columns(params, table) + [[pool_column(params, seed)]]
    target = {
        message_column(params, m, s)
        for m in range(1, params.K + 1)
        if m != desired
        for s in range(1, params.L + 1)
    }
    return _leak(params, view, target)


def cr_difference_leak(params: SchemeParams, desired: int, seed: int, table: QueryTable) -> int:
    """I(answers, S_seed, W_desired; pool symbols other than S_seed | T)."""
    view = (
        _table_columns(params, table)
        + [[pool_column(params, seed)]]
        + [[message_column(params, desired, s)] for s in range(1, params.L + 1)]
    )
    target = {pool_column(params, i) for i in range(1, params.rs_size + 1) if i != seed}
    return _leak(params, view, target)


def reliability_audit(params: SchemeParams, mutation: Mutation | None = None) -> AuditReport:
    """Decode must return the stored desired message on every joint outcome."""
    name = "reliability"
    for desired in range(1, params.K + 1):
        table = canonical_table(params, desired, mutation)
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
        table = canonical_table(params, desired, mutation)
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
