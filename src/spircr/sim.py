"""In-process protocol simulator: dealer, databases, user, transcript.

A trusted dealer samples the messages, the shared randomness pool
(replicated at every database), and the user's single pool symbol. The user
builds a query from its own seed, each database answers every request by
summing its state X (messages, then pool) at the request's columns, and the
user decodes by subtracting either its own pool symbol or a companion
answer. Everything is driven by explicit seeds so a retrieval replays
exactly.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .fields import Seed, SeededStream
from .plan import SchemeParams
from .scheme import (
    Mutation,
    QueryTable,
    RateTriple,
    SpirRequest,
    measured_rates,
    select_query,
)


class SimError(Exception):
    pass


class DecodeError(SimError):
    pass


def column_bases(params: SchemeParams) -> tuple[int, int]:
    """(offset, pool_base): in X, W_m[s] is column m * L + s + offset and
    S_i is column pool_base + i."""
    return -params.L - 1, params.K * params.L - 1


def message_column(params: SchemeParams, message: int, symbol: int) -> int:
    return message * params.L + symbol + column_bases(params)[0]


def pool_column(params: SchemeParams, index: int) -> int:
    return column_bases(params)[1] + index


def request_columns(params: SchemeParams, sr: SpirRequest) -> list[int]:
    """The columns of X that a request sums: its terms, then its mask.

    X = (W_1[1..L], ..., W_K[1..L], S_1..S_rs) is what every database holds,
    so an answer is the sum of X at these columns and, over F_q, a 0/1 row
    with ones at them.
    """
    cols = []
    for m, s in sr.terms:
        if not (1 <= m <= params.K and 1 <= s <= params.L):
            raise SimError(f"request term W{m}[{s}] out of range")
        cols.append(message_column(params, m, s))
    if sr.cr is not None:
        if not 1 <= sr.cr <= params.rs_size:
            raise SimError(f"mask index {sr.cr} outside [1, {params.rs_size}]")
        cols.append(pool_column(params, sr.cr))
    return cols


@dataclass(frozen=True)
class DatabaseState:
    """X: the K messages of L symbols, then the pool S_1..S_rs that every
    database holds, values in [0, q). A state file stores X in this order."""

    params: SchemeParams
    x: tuple[int, ...]

    def message(self, k: int) -> tuple[int, ...]:
        start = message_column(self.params, k, 1)
        return self.x[start : start + self.params.L]


@dataclass(frozen=True)
class UserRandomness:
    """The one pool entry the user holds: its index and its value."""

    index: int
    value: int


@dataclass(frozen=True)
class RetrievalSeeds:
    messages: Seed
    pool: Seed
    user: Seed
    query: Seed

    @classmethod
    def from_master(cls, master: Seed) -> "RetrievalSeeds":
        return cls(
            messages=master.derive("messages"),
            pool=master.derive("pool"),
            user=master.derive("user"),
            query=master.derive("query"),
        )


def deal(
    params: SchemeParams, msg_seed: Seed, pool_seed: Seed, user_seed: Seed
) -> tuple[DatabaseState, UserRandomness]:
    """Sample messages, pool, and the user's pool entry from seeds."""
    mrng = SeededStream(msg_seed)
    messages = [mrng.randrange(params.q) for _ in range(params.K * params.L)]
    prng = SeededStream(pool_seed)
    pool = [prng.randrange(params.q) for _ in range(params.rs_size)]
    urng = SeededStream(user_seed)
    index = urng.randrange(params.rs_size) + 1
    return (
        DatabaseState(params, tuple(messages + pool)),
        UserRandomness(index=index, value=pool[index - 1]),
    )


def answer_query(columns: list[list[int]], state: DatabaseState) -> tuple[int, ...]:
    """Evaluate each request from its columns (request_columns, or the
    server's decode_query_payload): the sum of X at them, mod q."""
    x, q = state.x, state.params.q
    return tuple([sum([x[c] for c in cols]) % q for cols in columns])


def query_columns(params: SchemeParams, requests: tuple[SpirRequest, ...]) -> list[list[int]]:
    """request_columns of each request of one database's query, in order."""
    return [request_columns(params, sr) for sr in requests]


DecodeStep = tuple[int, int, int | None]


def decode_plan(
    params: SchemeParams, desired: int, query: QueryTable, user_index: int
) -> tuple[DecodeStep, ...]:
    """How the user recovers the desired message from a query's answers.

    One step per request that carries a desired symbol: (symbol, source,
    companion), where positions count the query's requests database by
    database. A companion of None means the user's own pool value. 1-sums of
    the desired message are unmasked with that value; larger sums subtract
    the companion answer found at another database, which carries the same
    mask and the same side information.
    """
    # (terms, cr) of each undesired-only request -> (position, database);
    # only such a request can be a companion
    companions: dict[tuple, tuple[int, int]] = {}
    carriers = []  # (database, position, terms, cr, desired symbol)
    pos = 0
    for db, reqs in enumerate(query, start=1):
        for sr in reqs:
            terms = sr.terms
            for m, s in terms:
                if m == desired:
                    carriers.append((db, pos, terms, sr.cr, s))
                    break
            else:
                companions[(terms, sr.cr)] = (pos, db)
            pos += 1

    steps: list[DecodeStep] = []
    for db, source, terms, cr, sym in carriers:
        if len(terms) == 1:
            if cr != user_index:
                raise DecodeError(f"desired 1-sum masked with S{cr}, user holds S{user_index}")
            steps.append((sym, source, None))
        else:
            found = companions.get((tuple([t for t in terms if t[0] != desired]), cr))
            if found is None or found[1] == db:
                raise DecodeError(f"no companion answer for a {len(terms)}-sum at db{db}")
            steps.append((sym, source, found[0]))

    missing = sorted(set(range(1, params.L + 1)) - {sym for sym, _, _ in steps})
    if missing:
        raise DecodeError(f"undecoded desired symbols: {missing}")
    return tuple(steps)


def decode(
    params: SchemeParams,
    desired: int,
    query: QueryTable,
    answers: tuple[tuple[int, ...], ...],
    user: UserRandomness,
) -> tuple[int, ...]:
    """Recover the desired message, symbol by symbol, along decode_plan."""
    q = params.q
    if len(answers) != len(query):
        raise DecodeError("answer/query database count mismatch")
    for db, (reqs, vals) in enumerate(zip(query, answers), start=1):
        if len(reqs) != len(vals):
            raise DecodeError(f"db{db}: {len(vals)} answers for {len(reqs)} requests")
    flat = [v for vals in answers for v in vals]

    recovered: dict[int, int] = {}
    for sym, source, companion in decode_plan(params, desired, query, user.index):
        val = (flat[source] - (user.value if companion is None else flat[companion])) % q
        if recovered.setdefault(sym, val) != val:
            raise DecodeError(f"conflicting values for W{desired}[{sym}]")
    return tuple(recovered[i] for i in range(1, params.L + 1))


@dataclass(frozen=True)
class Transcript:
    """Full record of one retrieval; stable JSON for replay comparison."""

    params: SchemeParams
    desired: int
    user: UserRandomness
    query: QueryTable
    answers: tuple[tuple[int, ...], ...]
    decoded: tuple[int, ...]
    rates: RateTriple
    seeds: dict[str, str]

    def core(self) -> dict:
        """Transport-independent content (everything but seed bookkeeping)."""
        return {
            "params": self.params.to_dict(),
            "desired": self.desired,
            "user": {"index": self.user.index, "value": self.user.value},
            "query": [[sr.to_dict() for sr in reqs] for reqs in self.query],
            "answers": [list(a) for a in self.answers],
            "decoded": list(self.decoded),
            "rates": self.rates.as_strings(),
        }

    def to_json(self, *, indent: int | None = None) -> str:
        doc = self.core()
        doc["seeds"] = dict(sorted(self.seeds.items()))
        return json.dumps(doc, indent=indent)


def build_transcript(
    params: SchemeParams,
    desired: int,
    user: UserRandomness,
    query: QueryTable,
    answers: tuple[tuple[int, ...], ...],
    seeds: dict[str, str],
) -> Transcript:
    # decode checks one answer per request, so the download is the scheme's
    decoded = decode(params, desired, query, answers, user)
    return Transcript(
        params=params,
        desired=desired,
        user=user,
        query=query,
        answers=answers,
        decoded=decoded,
        rates=measured_rates(params),
        seeds=seeds,
    )


def run_retrieval(
    params: SchemeParams,
    desired: int,
    seeds: RetrievalSeeds,
    mutation: Mutation | None = None,
) -> Transcript:
    """Deal, query, answer, decode; returns the full transcript.

    Decoded output is checked against the dealt store, so a scheme or
    simulator regression cannot pass silently.
    """
    state, user = deal(params, seeds.messages, seeds.pool, seeds.user)
    query = select_query(params, desired, user.index, SeededStream(seeds.query), mutation)
    answers = tuple(answer_query(query_columns(params, reqs), state) for reqs in query)
    transcript = build_transcript(
        params,
        desired,
        user,
        query,
        answers,
        seeds={
            "messages": seeds.messages.hex(),
            "pool": seeds.pool.hex(),
            "user": seeds.user.hex(),
            "query": seeds.query.hex(),
        },
    )
    if transcript.decoded != state.message(desired):
        raise DecodeError("decoded message differs from the stored message")
    return transcript
