"""Masking layer: shared-randomness assignment over a retrieval plan.

Each database holds the same pool of rs_size uniform symbols S_1..S_rs in
addition to the messages; the user holds exactly one of them. A query is a
retrieval plan whose requests each carry one pool index:

  * every 1-sum of the desired message carries the seed index, which must be
    the one the user holds, or nothing the user gets back is decodable;
  * every undesired-only sum carries its own fresh index;
  * every larger sum containing the desired message inherits the index of
    its companion undesired-only sum at another database, so subtracting the
    companion answer cancels mask and side information together.

A request is (terms, mask): a plan request's sum of single message symbols
plus the pool symbol with index cr, which pads it as a one-time pad does.
A query is a QueryTable: one tuple of such requests per database. The
canonical table T_k (canonical_table) is the identity plan for desired
index k with seed index 1, and any injected fault applied there. Every
query select_query emits is one relabeling of T_k: each message's symbols
by a uniform ordering, and the pool indices by a uniform bijection that
carries the seed to the user's index (at N >= 2; at N = 1 by the cyclic
shift alone). That relabeling is what makes the per-database query
distribution independent of which message is desired.

T_k is built in one pass: plan.plan_layout gives each request its pool
index as it creates it, the fresh indices in creation order, which under
identity orderings is fresh_masks' slot order (plan_layout says why).
assign_common_randomness masks a finished plan by searching it; it is the
oracle the one-pass build is tested against.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, NamedTuple, get_args

from .fields import DrawStream, Permutation, identity_permutation, sample_permutation
from .plan import (
    PirPlan,
    SchemeParams,
    Terms,
    build_pir_plan,  # noqa: F401  perfbench/tracing.py wraps scheme.build_pir_plan
    cr_pool_size,
    format_terms,
    message_length,
    messages,
    plan_layout,
    sample_orderings,
    total_download,
)


class SchemeError(Exception):
    pass


Mutation = Literal["seed-reuse", "unmask-one", "bare-companion"]
MUTATIONS: tuple[str, ...] = get_args(Mutation)


class SpirRequest(NamedTuple):
    """One request as a database receives it: (terms, mask). terms is a plan
    request, ((message, symbol), ...) with messages strictly increasing, and
    cr the index of the pool symbol added to its answer; None only in
    deliberately broken (fault-injected) queries. A tuple, so that the many
    a query table holds are cheap to build, hash and compare; relabel
    builds them with tuple.__new__, without a Python-level call each.
    """

    terms: Terms
    cr: int | None

    def to_dict(self) -> dict:
        """The request object of every transcript and table document."""
        return {"terms": [[m, s] for m, s in self.terms], "cr": self.cr}


DbRequests = tuple[SpirRequest, ...]
QueryTable = tuple[DbRequests, ...]


@dataclass(frozen=True)
class RateTriple:
    """Download, per-database randomness, and user randomness per symbol."""

    d: Fraction
    rho_s: Fraction
    rho_u: Fraction

    def as_strings(self) -> dict[str, str]:
        return {"d": str(self.d), "rho_s": str(self.rho_s), "rho_u": str(self.rho_u)}


def fresh_masks(slots: list[tuple[int, Terms, object]], desired: int, n_msg: int) -> dict:
    """Pool indices 2..rs, one for each undesired-only request, in slot
    order: (size, database, cyclic subset rank, terms). slots holds
    (database, terms, tag) for each such request; the result maps every tag
    to its index. Only the terms break ties, between requests over one
    subset at one database (N >= 3)."""
    # The cyclic subset rank: messages ranked cyclically starting at the
    # desired index, so the desired message's own subsets come first.
    order = sorted(
        (len(terms), db, tuple(sorted([(m - desired) % n_msg for m, _ in terms])), terms, i)
        for i, (db, terms, _) in enumerate(slots)
    )
    return {slots[key[-1]][2]: index for index, key in enumerate(order, start=2)}


def assign_common_randomness(plan: PirPlan, params: SchemeParams) -> QueryTable:
    """Attach pool indices to a plan, producing the canonical table whose
    seed is pool index 1."""
    desired = plan.desired
    # dict(terms) maps each message of a request to its symbol
    home = {
        terms: db
        for db, reqs in enumerate(plan.per_db)
        for terms in reqs
        if desired not in dict(terms)
    }
    if len(home) != params.rs_size - 1:
        raise SchemeError(f"expected {params.rs_size - 1} fresh mask slots, found {len(home)}")
    label = fresh_masks([(db, terms, terms) for terms, db in home.items()], desired, params.K)
    per_db = []
    for db, reqs in enumerate(plan.per_db):
        out = []
        for terms in reqs:
            if terms in label:  # undesired-only
                out.append(SpirRequest(terms, label[terms]))
            elif len(terms) == 1:
                out.append(SpirRequest(terms, 1))
            else:
                rest = tuple([t for t in terms if t[0] != desired])
                if home.get(rest, db) == db:
                    raise SchemeError(f"companion sum not found for {format_terms(terms)}")
                out.append(SpirRequest(terms, label[rest]))
        per_db.append(tuple(out))
    return tuple(per_db)


@functools.lru_cache(maxsize=256)
def _honest_table(params: SchemeParams, desired: int) -> QueryTable:
    per_db = plan_layout(params, desired, (identity_permutation(params.L),) * params.K)
    return tuple(
        tuple([SpirRequest(terms, index) for _, terms, index in sorted(reqs)]) for reqs in per_db
    )


def canonical_table(
    params: SchemeParams, desired: int, mutation: Mutation | None = None
) -> QueryTable:
    """T_k: the seed-1 table of the identity plan for desired index k, with
    the mutation, if any, applied at seed 1. It is built once per
    (params, k), whatever the mutation, in one pass: plan_layout creates
    each request with its pool index, and each database's requests are put
    in canonical order. It equals assign_common_randomness on the identity
    plan, with no search over the finished plan."""
    table = _honest_table(params, desired)
    return table if mutation is None else apply_mutation(table, desired, mutation)


def _relabel_terms(symbols: tuple[Permutation, ...], terms: Terms) -> Terms:
    return tuple([(m, symbols[m - 1][s - 1] + 1) for m, s in terms])


def relabel(
    table: QueryTable, pool: dict[int, int] | list[int], symbols: tuple[Permutation, ...] | None
) -> QueryTable:
    """Rename pool index i to pool[i] and, given symbols, symbol s of
    message m to symbols[m - 1][s - 1] + 1, restoring each database's
    canonical request order. Unmasked requests stay unmasked."""
    out = []
    for db_reqs in table:
        # One sort for both: a table relabeled by its pool alone keeps its
        # order. Canonical order, then the position in db_reqs, so no two
        # keys tie.
        keyed, end = [], 0
        if symbols is not None:  # every term of the database in one pass
            renamed = [(m, symbols[m - 1][s - 1] + 1) for sr in db_reqs for m, s in sr.terms]
        for i, sr in enumerate(db_reqs):
            terms = sr.terms
            if symbols is not None:
                end += len(terms)
                terms = tuple(renamed[end - len(terms) : end])
            keyed.append((len(terms), terms, i, sr.cr))
        keyed.sort()
        out.append(tuple([
            tuple.__new__(SpirRequest, (terms, None if cr is None else pool[cr]))
            for _, terms, _, cr in keyed
        ]))
    return tuple(out)


def permute_nonseed(table: QueryTable, seed: int, mapping: dict[int, int]) -> QueryTable:
    """Relabel non-seed pool indices by a bijection; the seed must stay put."""
    # every database masks exactly one request with each pool index
    nonseed = set(range(1, len(table[0]) + 1)) - {seed}
    if set(mapping) != nonseed or set(mapping.values()) != nonseed:
        raise SchemeError("mapping must be a bijection on the non-seed indices")
    return relabel(table, {**mapping, seed: seed}, None)


def shift_cell(table: QueryTable, delta: int) -> QueryTable:
    """Add delta (mod pool size) to every index; the seed moves with the rest."""
    rs = len(table[0])
    return relabel(table, [0] + [(i + delta) % rs + 1 for i in range(rs)], None)


def variant_mappings(params: SchemeParams, seed: int) -> list[dict[int, int]]:
    """Admissible non-seed relabelings for a table with this seed.

    A single database replicated alone (N = 1) needs none: cycling already
    realizes every matching the scheme is allowed to emit, and adding more
    would change the emitted query distribution. With N >= 2 every bijection
    of the non-seed indices is admissible and all of them are required for
    the per-database query distribution to forget the desired index.
    """
    rs = params.rs_size
    cycle = [(seed - 1 + i) % rs + 1 for i in range(1, rs)]  # from just after the seed
    if params.N == 1:
        return [{i: i for i in cycle}]
    return [
        {cycle[i]: cycle[p[i]] for i in range(len(cycle))}
        for p in itertools.permutations(range(len(cycle)))
    ]


def variant_count(params: SchemeParams) -> int:
    if params.N == 1:
        return 1
    return math.factorial(params.rs_size - 1)


def sample_variant(params: SchemeParams, rng: DrawStream) -> dict[int, int]:
    """A uniform relabeling of the non-seed indices of a seed-1 table; only
    N >= 2 draws one (variant_mappings)."""
    # the non-seed indices of a seed-1 table are 2..rs in cyclic order
    p = sample_permutation(params.rs_size - 1, rng)
    return {i + 2: j + 2 for i, j in enumerate(p)}


def apply_mutation(table: QueryTable, desired: int, mutation: Mutation) -> QueryTable:
    """Deliberately break one masking rule of a seed-1 table; used for
    fault-injection audits.

    seed-reuse masks an undesired 1-sum with the seed index 1, unmask-one
    sends that 1-sum bare, and bare-companion sends a larger desired sum
    bare. The request is the first eligible one, database by database, in
    request order. Faults live only in T_k: canonical_table applies them
    there, and select_query carries each wherever its relabeling moves that
    request.
    """
    if mutation not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutation!r}")
    for db, db_reqs in enumerate(table):
        for i, sr in enumerate(db_reqs):
            subset = messages(sr.terms)
            if mutation == "bare-companion":
                eligible = len(subset) >= 2 and desired in subset
            else:
                eligible = len(subset) == 1 and subset[0] != desired
            if eligible:
                bad = SpirRequest(sr.terms, 1 if mutation == "seed-reuse" else None)
                return table[:db] + (db_reqs[:i] + (bad,) + db_reqs[i + 1 :],) + table[db + 1 :]
    raise SchemeError(f"no request eligible for mutation {mutation!r}")


def select_query(
    params: SchemeParams,
    desired: int,
    user_cr_index: int,
    rng: DrawStream,
    mutation: Mutation | None = None,
) -> QueryTable:
    """Build the query a user holding pool index user_cr_index transmits.

    rng draws one symbol ordering per message, then (N >= 2) a relabeling
    of the non-seed indices. The query is canonical_table(params, desired,
    mutation) relabeled once: symbols by the orderings, pool indices by
    shift o variant o tau, where the shift moves the seed to the user's
    index and tau is the relabeling that assign_common_randomness would
    make on the plan with these orderings.
    """
    if not 1 <= user_cr_index <= params.rs_size:
        raise ValueError(f"user index {user_cr_index} outside [1, {params.rs_size}]")
    symbols = sample_orderings(params, rng)
    tau = {}
    if params.N >= 3:
        # The terms break ties between fresh mask slots over one subset at
        # one database, so relabeling the symbols can reorder those slots.
        # tau reads the honest T_k: a mutated slot has lost its mask.
        tau = fresh_masks(
            [
                (db, _relabel_terms(symbols, sr.terms), sr.cr)
                for db, db_reqs in enumerate(canonical_table(params, desired))
                for sr in db_reqs
                if desired not in messages(sr.terms)
            ],
            desired,
            params.K,
        )
    variant = sample_variant(params, rng) if params.N >= 2 else {}
    rs = params.rs_size
    pool = [0]  # pool[i] is index i's new label; 0 pads the 1-based list
    for i in range(1, rs + 1):
        j = tau.get(i, i)
        pool.append((variant.get(j, j) + user_cr_index - 2) % rs + 1)
    return relabel(canonical_table(params, desired, mutation), pool, symbols)


def scheme_rates(n_db: int, n_msg: int) -> RateTriple:
    """Exact per-symbol costs of the scheme from the plan's sizes alone, so
    at any shape: SchemeParams' wire-format limit does not apply."""
    length = message_length(n_db, n_msg)
    download, pool = total_download(n_db, n_msg), cr_pool_size(n_db, n_msg)
    return RateTriple(Fraction(download, length), Fraction(pool, length), Fraction(1, length))


@functools.lru_cache(maxsize=256)
def measured_rates(params: SchemeParams) -> RateTriple:
    """Exact per-symbol costs of the scheme at these parameters."""
    return scheme_rates(params.N, params.K)


def format_request(sr: SpirRequest, length: int) -> str:
    body = format_terms(sr.terms, length)
    return body if sr.cr is None else f"{body}+S{sr.cr}"


def table_lines(table: QueryTable, length: int) -> list[str]:
    cols = [[format_request(sr, length) for sr in db_reqs] for db_reqs in table]
    if len(cols) == 1:
        return cols[0]
    widths = [max(len(x) for x in col + [f"DB{i+1}"]) for i, col in enumerate(cols)]
    head = "  ".join(f"DB{i+1}".ljust(w) for i, w in enumerate(widths))
    depth = max(len(c) for c in cols)
    rows = [
        "  ".join(
            (col[r] if r < len(col) else "").ljust(w) for col, w in zip(cols, widths)
        ).rstrip()
        for r in range(depth)
    ]
    return [head] + rows


Family = dict[int, list[dict[int, QueryTable]]]


def render_family_text(params: SchemeParams, families: Family) -> str:
    """Text emitter for the full family, grouped by seed then variant.

    families maps each seed to its variants; each variant maps every desired
    index to its table.
    """
    lines = [f"N={params.N} K={params.K} q={params.q} L={params.L} pool=S1..S{params.rs_size}"]
    for seed in sorted(families):
        for v, tables in enumerate(families[seed]):
            tag = f"seed S{seed}" + (f", variant {v + 1}" if len(families[seed]) > 1 else "")
            lines.append(f"-- {tag} --")
            for desired in sorted(tables):
                lines.append(f"desired W{desired}:")
                for ln in table_lines(tables[desired], params.L):
                    lines.append(f"  {ln}")
    return "\n".join(lines)


def family_json(params: SchemeParams, families: Family) -> dict:
    return {
        "params": params.to_dict(),
        "cells": [
            {
                "seed": seed,
                "variant": v + 1,
                "choices": {
                    str(desired): [[sr.to_dict() for sr in db_reqs] for db_reqs in tables[desired]]
                    for desired in sorted(tables)
                },
            }
            for seed in sorted(families)
            for v, tables in enumerate(families[seed])
        ],
    }


def canonical_family(params: SchemeParams) -> Family:
    """Display family: identity orderings, every seed, every variant."""
    base = {desired: canonical_table(params, desired) for desired in range(1, params.K + 1)}
    out: Family = {}
    for delta in range(params.rs_size):
        seed = delta + 1
        shifted = {desired: shift_cell(table, delta) for desired, table in base.items()}
        out[seed] = [
            {desired: permute_nonseed(table, seed, m) for desired, table in shifted.items()}
            for m in variant_mappings(params, seed)
        ]
    return out
