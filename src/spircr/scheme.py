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

Cycling the seed through the whole pool and permuting the non-seed indices
make the per-database query distribution independent of which message is
desired.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Literal

from .fields import DrawStream, Permutation, sample_permutation
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


DbRequests = tuple[SpirRequest, ...]
QueryTable = tuple[DbRequests, ...]


@dataclass(frozen=True)
class QueryCell:
    """One masked query table per desired choice, all built on one seed."""

    params: SchemeParams
    seed: int
    per_choice: dict[int, QueryTable]
    variant: Permutation  # non-seed relabeling applied, over cyclic positions

    def requests_for(self, desired: int) -> QueryTable:
        if desired not in self.per_choice:
            raise SchemeError(f"cell has no query for desired W{desired}")
        return self.per_choice[desired]


@dataclass(frozen=True)
class QueryCellFamily:
    """The rs_size cells obtained by cycling a cell's indices."""

    params: SchemeParams
    cells: tuple[QueryCell, ...]

    def cell_with_seed(self, seed: int) -> QueryCell:
        for c in self.cells:
            if c.seed == seed:
                return c
        raise SchemeError(f"no cell with seed {seed}")


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


def assign_common_randomness(plan: PirPlan, params: SchemeParams | None = None) -> QueryCell:
    """Attach pool indices to a plan, producing the canonical seed-1 cell."""
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

    table: QueryTable = tuple(tuple(x) for x in per_db)
    return QueryCell(
        params=params,
        seed=seed,
        per_choice={plan.desired: table},
        variant=tuple(range(params.rs_size - 1)),
    )


def merge_cells(cells: Iterable[QueryCell]) -> QueryCell:
    """Combine same-seed cells for different desired choices into one."""
    cells = list(cells)
    first = cells[0]
    merged: dict[int, QueryTable] = {}
    for c in cells:
        if c.seed != first.seed or c.params != first.params:
            raise SchemeError("cells disagree on seed or parameters")
        merged.update(c.per_choice)
    return replace(first, per_choice=merged)


def relabel_table(table: QueryTable, mapping: dict[int, int]) -> QueryTable:
    """Rename every pool index by mapping; unmasked requests stay unmasked."""
    return tuple(
        tuple(SpirRequest(sr.base, None if sr.cr is None else mapping[sr.cr]) for sr in db_reqs)
        for db_reqs in table
    )


def shift_mapping(rs_size: int, delta: int) -> dict[int, int]:
    """Pool index i -> i + delta, cyclically over 1..rs_size."""
    return {i: ((i - 1 + delta) % rs_size) + 1 for i in range(1, rs_size + 1)}


def _relabel(cell: QueryCell, mapping: dict[int, int], new_seed: int, variant: Permutation) -> QueryCell:
    per_choice = {k: relabel_table(table, mapping) for k, table in cell.per_choice.items()}
    return QueryCell(params=cell.params, seed=new_seed, per_choice=per_choice, variant=variant)


def permute_nonseed(cell: QueryCell, mapping: dict[int, int]) -> QueryCell:
    """Relabel non-seed pool indices by a bijection; the seed must stay put."""
    rs = cell.params.rs_size
    nonseed = set(range(1, rs + 1)) - {cell.seed}
    if set(mapping) != nonseed or set(mapping.values()) != nonseed:
        raise SchemeError("mapping must be a bijection on the non-seed indices")
    full = dict(mapping)
    full[cell.seed] = cell.seed
    cycle = nonseed_cycle(cell.params, cell.seed)
    pos = {idx: i for i, idx in enumerate(cycle)}
    variant = tuple(pos[full[cycle[cell.variant[i]]]] for i in range(rs - 1))
    return _relabel(cell, full, cell.seed, variant)


def shift_cell(cell: QueryCell, delta: int) -> QueryCell:
    """Add delta (mod pool size) to every index; seed moves with the rest."""
    mapping = shift_mapping(cell.params.rs_size, delta)
    return _relabel(cell, mapping, mapping[cell.seed], cell.variant)


def cycle_cells(cell: QueryCell) -> QueryCellFamily:
    """All rs_size cells reachable by cycling the given cell's indices."""
    rs = cell.params.rs_size
    cells = tuple(shift_cell(cell, d) for d in range(rs))
    return QueryCellFamily(params=cell.params, cells=cells)


def variant_mappings(params: SchemeParams, seed: int) -> list[dict[int, int]]:
    """Admissible non-seed relabelings for one cell.

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


def sample_variant(params: SchemeParams, seed: int, rng: DrawStream) -> dict[int, int]:
    cycle = nonseed_cycle(params, seed)
    if params.N == 1:
        return {i: i for i in cycle}
    p = sample_permutation(len(cycle), rng)
    return {cycle[i]: cycle[p[i]] for i in range(len(cycle))}


def apply_mutation(table: QueryTable, desired: int, seed: int, mutation: Mutation) -> QueryTable:
    """Deliberately break one masking rule; used for fault-injection audits."""
    if mutation not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutation!r}")
    rows = [list(db_reqs) for db_reqs in table]
    for db_reqs in rows:
        for i, sr in enumerate(db_reqs):
            if mutation in ("seed-reuse", "unmask-one"):
                if sr.size == 1 and sr.terms[0][0] != desired:
                    db_reqs[i] = SpirRequest(sr.base, seed if mutation == "seed-reuse" else None)
                    return tuple(tuple(x) for x in rows)
            else:
                if sr.size >= 2 and desired in sr.base.messages():
                    db_reqs[i] = SpirRequest(sr.base, None)
                    return tuple(tuple(x) for x in rows)
    raise SchemeError(f"no request eligible for mutation {mutation!r}")


def select_query(
    params: SchemeParams,
    desired: int,
    user_cr_index: int,
    rng: DrawStream,
    mutation: Mutation | None = None,
) -> QueryTable:
    """Build the query a user holding pool index user_cr_index transmits.

    Fresh symbol orderings and a fresh non-seed relabeling are drawn from
    rng; the cell is then cycled so its seed lands on the user's index.
    """
    if not 1 <= user_cr_index <= params.rs_size:
        raise ValueError(f"user index {user_cr_index} outside [1, {params.rs_size}]")
    plan = build_pir_plan(params, desired, rng)
    cell = assign_common_randomness(plan, params)
    if params.N >= 2:
        cell = permute_nonseed(cell, sample_variant(params, cell.seed, rng))
    cell = shift_cell(cell, user_cr_index - cell.seed)
    table = cell.requests_for(desired)
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


def validate_query_cell(cell: QueryCell) -> list[str]:
    """Masking invariants for every desired choice present in the cell."""
    problems: list[str] = []
    rs = cell.params.rs_size
    for desired, table in cell.per_choice.items():
        by_terms: dict[tuple, tuple[int, int | None]] = {}
        for db, db_reqs in enumerate(table, start=1):
            seen = set()
            for sr in db_reqs:
                if sr.cr is not None:
                    seen.add(sr.cr)
                by_terms[sr.terms] = (db, sr.cr)
            if seen != set(range(1, rs + 1)):
                problems.append(
                    f"desired W{desired} db{db}: pool coverage {sorted(seen)} != 1..{rs}"
                )
        for db, db_reqs in enumerate(table, start=1):
            for sr in db_reqs:
                msgs = sr.base.messages()
                if sr.size == 1 and msgs[0] == desired and sr.cr != cell.seed:
                    problems.append(
                        f"desired W{desired} db{db}: desired 1-sum carries {sr.cr}, not seed {cell.seed}"
                    )
                if desired in msgs and sr.size >= 2:
                    comp = by_terms.get(sr.base.without(desired).terms)
                    if comp is None:
                        problems.append(
                            f"desired W{desired} db{db}: companion missing for {format_terms(sr.terms)}"
                        )
                    elif comp[0] == db or comp[1] != sr.cr:
                        problems.append(
                            f"desired W{desired} db{db}: companion mask mismatch for {format_terms(sr.terms)}"
                        )
    return problems


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


def render_family_text(params: SchemeParams, families: dict[int, list[QueryCell]]) -> str:
    """Text emitter for the full cell family, grouped by seed then variant.

    families maps each seed to its variant cells; each cell carries every
    desired choice as built by merge_cells.
    """
    lines = [f"N={params.N} K={params.K} q={params.q} L={params.L} pool=S1..S{params.rs_size}"]
    for seed in sorted(families):
        for v, cell in enumerate(families[seed]):
            tag = f"seed S{seed}" + (f", variant {v + 1}" if len(families[seed]) > 1 else "")
            lines.append(f"-- {tag} --")
            for desired in sorted(cell.per_choice):
                lines.append(f"desired W{desired}:")
                for ln in table_lines(cell.per_choice[desired], params.L):
                    lines.append(f"  {ln}")
    return "\n".join(lines)


def family_json(params: SchemeParams, families: dict[int, list[QueryCell]]) -> dict:
    def req_obj(sr: SpirRequest) -> dict:
        return {
            "terms": [[m, s] for m, s in sr.terms],
            "cr": sr.cr,
        }

    return {
        "params": {"N": params.N, "K": params.K, "q": params.q, "L": params.L,
                   "rs_size": params.rs_size, "ru_size": params.ru_size},
        "cells": [
            {
                "seed": seed,
                "variant": v + 1,
                "choices": {
                    str(desired): [
                        [req_obj(sr) for sr in db_reqs]
                        for db_reqs in cell.per_choice[desired]
                    ]
                    for desired in sorted(cell.per_choice)
                },
            }
            for seed in sorted(families)
            for v, cell in enumerate(families[seed])
        ],
    }


def canonical_family(params: SchemeParams) -> dict[int, list[QueryCell]]:
    """Display family: identity orderings, every seed, every variant."""
    base_cells = []
    for desired in range(1, params.K + 1):
        base_cells.append(assign_common_randomness(identity_plan(params, desired), params))
    base = merge_cells(base_cells)
    out: dict[int, list[QueryCell]] = {}
    for delta in range(params.rs_size):
        shifted = shift_cell(base, delta)
        cells = [
            permute_nonseed(shifted, m) if params.N >= 2 else shifted
            for m in variant_mappings(params, shifted.seed)
        ]
        out[shifted.seed] = cells
    return out
