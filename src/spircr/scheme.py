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

A query is a QueryTable: one tuple of masked requests per database. The
canonical table carries seed index 1; cycling the seed through the whole
pool (shift_cell) and permuting the non-seed indices (permute_nonseed) make
the per-database query distribution independent of which message is
desired.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

from .fields import DrawStream, sample_permutation
from .plan import (
    PirPlan,
    SchemeParams,
    SymbolRequest,
    build_pir_plan,
    format_terms,
    identity_plan,
    request_sort_key,
    total_download,
    undesired_only_slots,
)


class SchemeError(Exception):
    pass


Mutation = Literal["seed-reuse", "unmask-one", "bare-companion"]
MUTATIONS: tuple[str, ...] = ("seed-reuse", "unmask-one", "bare-companion")


@dataclass(frozen=True, order=True)
class SpirRequest:
    """A plan request plus the shared-randomness index masking its answer.

    cr is None only in deliberately broken (fault-injected) queries.
    """

    base: SymbolRequest
    cr: int | None

    @property
    def terms(self) -> tuple[tuple[int, int], ...]:
        return self.base.terms

    @property
    def size(self) -> int:
        return self.base.size

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


def nonseed_cycle(params: SchemeParams, seed: int) -> list[int]:
    """Non-seed pool indices in cyclic order starting just after the seed."""
    rs = params.rs_size
    return [((seed - 1 + i) % rs) + 1 for i in range(1, rs)]


def assign_common_randomness(plan: PirPlan, params: SchemeParams | None = None) -> QueryTable:
    """Attach pool indices to a plan, producing the canonical table whose
    seed is pool index 1."""
    params = params or plan.params
    seed = 1
    label: dict[tuple[tuple[int, int], ...], int] = {}
    slot_db: dict[tuple[tuple[int, int], ...], int] = {}
    cycle = nonseed_cycle(params, seed)
    slots = undesired_only_slots(plan)
    if len(slots) != params.rs_size - 1:
        raise SchemeError(
            f"expected {params.rs_size - 1} fresh mask slots, found {len(slots)}"
        )
    for (db, req), idx in zip(slots, cycle):
        label[req.terms] = idx
        slot_db[req.terms] = db

    per_db: list[list[SpirRequest]] = []
    for db, reqs in enumerate(plan.per_db, start=1):
        out = []
        for r in reqs:
            if plan.desired not in r.messages():
                out.append(SpirRequest(r, label[r.terms]))
            elif r.size == 1:
                out.append(SpirRequest(r, seed))
            else:
                rest = r.without(plan.desired)
                idx = label.get(rest.terms)
                if idx is None or slot_db[rest.terms] == db:
                    raise SchemeError(
                        f"companion sum not found for {format_terms(r.terms)}"
                    )
                out.append(SpirRequest(r, idx))
        out.sort(key=lambda sr: request_sort_key(sr.terms))
        per_db.append(out)
    return tuple(tuple(x) for x in per_db)


def relabel_table(table: QueryTable, mapping: dict[int, int]) -> QueryTable:
    """Rename every pool index by mapping; unmasked requests stay unmasked."""
    return tuple(
        tuple(SpirRequest(sr.base, None if sr.cr is None else mapping[sr.cr]) for sr in db_reqs)
        for db_reqs in table
    )


def shift_mapping(rs_size: int, delta: int) -> dict[int, int]:
    """Pool index i -> i + delta, cyclically over 1..rs_size."""
    return {i: ((i - 1 + delta) % rs_size) + 1 for i in range(1, rs_size + 1)}


def _pool_size(table: QueryTable) -> int:
    # every database masks exactly one request with each pool index
    return len(table[0])


def permute_nonseed(table: QueryTable, seed: int, mapping: dict[int, int]) -> QueryTable:
    """Relabel non-seed pool indices by a bijection; the seed must stay put."""
    nonseed = set(range(1, _pool_size(table) + 1)) - {seed}
    if set(mapping) != nonseed or set(mapping.values()) != nonseed:
        raise SchemeError("mapping must be a bijection on the non-seed indices")
    return relabel_table(table, {**mapping, seed: seed})


def shift_cell(table: QueryTable, delta: int) -> QueryTable:
    """Add delta (mod pool size) to every index; the seed moves with the rest."""
    return relabel_table(table, shift_mapping(_pool_size(table), delta))


def variant_mappings(params: SchemeParams, seed: int) -> list[dict[int, int]]:
    """Admissible non-seed relabelings for a table with this seed.

    A single database replicated alone (N = 1) needs none: cycling already
    realizes every matching the scheme is allowed to emit, and adding more
    would change the emitted query distribution. With N >= 2 every bijection
    of the non-seed indices is admissible and all of them are required for
    the per-database query distribution to forget the desired index.
    """
    cycle = nonseed_cycle(params, seed)
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
    cycle = nonseed_cycle(params, 1)
    p = sample_permutation(len(cycle), rng)
    return {cycle[i]: cycle[p[i]] for i in range(len(cycle))}


def apply_mutation(table: QueryTable, desired: int, seed: int, mutation: Mutation) -> QueryTable:
    """Deliberately break one masking rule; used for fault-injection audits.

    seed-reuse masks an undesired 1-sum with the seed index, unmask-one
    sends that 1-sum bare, and bare-companion sends a larger desired sum
    bare. The request is the smallest by a key that no relabeling of symbol
    or pool indices changes: (database, message) for the 1-sums, and
    (database, size, message subset, cyclic offset of the database holding
    its companion) for the larger sums, a key that is unique at size 2. So
    mutating a relabeled table equals relabeling the mutated table.
    """
    if mutation not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutation!r}")
    home = {
        sr.terms: db
        for db, db_reqs in enumerate(table)
        for sr in db_reqs
        if desired not in sr.base.messages()
    }
    picks = []
    for db, db_reqs in enumerate(table):
        for i, sr in enumerate(db_reqs):
            messages = sr.base.messages()
            if mutation == "bare-companion":
                if sr.size >= 2 and desired in messages:
                    offset = (home[sr.base.without(desired).terms] - db) % len(table)
                    picks.append(((db, sr.size, messages, offset), i))
            elif sr.size == 1 and messages[0] != desired:
                picks.append(((db, messages), i))
    if not picks:
        raise SchemeError(f"no request eligible for mutation {mutation!r}")
    (db, *_), i = min(picks)
    rows = [list(db_reqs) for db_reqs in table]
    rows[db][i] = SpirRequest(rows[db][i].base, seed if mutation == "seed-reuse" else None)
    return tuple(tuple(x) for x in rows)


def select_query(
    params: SchemeParams,
    desired: int,
    user_cr_index: int,
    rng: DrawStream,
    mutation: Mutation | None = None,
) -> QueryTable:
    """Build the query a user holding pool index user_cr_index transmits.

    Fresh symbol orderings and a fresh non-seed relabeling are drawn from
    rng; the table is then cycled so its seed lands on the user's index.
    """
    if not 1 <= user_cr_index <= params.rs_size:
        raise ValueError(f"user index {user_cr_index} outside [1, {params.rs_size}]")
    plan = build_pir_plan(params, desired, rng)
    table = assign_common_randomness(plan, params)
    if params.N >= 2:
        table = permute_nonseed(table, 1, sample_variant(params, rng))
    table = shift_cell(table, user_cr_index - 1)
    if mutation is not None:
        table = apply_mutation(table, desired, user_cr_index, mutation)
    return table


def measured_rates(params: SchemeParams) -> RateTriple:
    """Exact per-symbol costs of the scheme at these parameters."""
    return RateTriple(
        d=Fraction(total_download(params.N, params.K), params.L),
        rho_s=Fraction(params.rs_size, params.L),
        rho_u=Fraction(1, params.L),
    )


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
    base = {
        desired: assign_common_randomness(identity_plan(params, desired), params)
        for desired in range(1, params.K + 1)
    }
    out: Family = {}
    for delta in range(params.rs_size):
        seed = delta + 1
        shifted = {desired: shift_cell(table, delta) for desired, table in base.items()}
        out[seed] = [
            {desired: permute_nonseed(table, seed, m) for desired, table in shifted.items()}
            for m in variant_mappings(params, seed)
        ]
    return out
