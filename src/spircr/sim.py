"""In-process protocol simulator: dealer, databases, user, transcript.

A trusted dealer samples the message store, the shared randomness pool
(replicated at every database), and the user's single pool symbol. The user
builds a query from its own seed, each database answers every request with
term-sum plus mask, and the user decodes by subtracting either its own pool
symbol or a companion answer. Everything is driven by explicit seeds so a
retrieval replays exactly.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .fields import Seed, SeededStream
from .plan import SchemeParams
from .scheme import (
    Mutation,
    QueryTable,
    RateTriple,
    SpirRequest,
    select_query,
)


class SimError(Exception):
    pass


class DecodeError(SimError):
    pass


@dataclass(frozen=True)
class MessageStore:
    """K messages of L symbols each, values in [0, q)."""

    params: SchemeParams
    messages: tuple[tuple[int, ...], ...]

    def symbol(self, message: int, index: int) -> int:
        return self.messages[message - 1][index - 1]


@dataclass(frozen=True)
class ServerRandomness:
    """The pool S_1..S_rs replicated at every database."""

    params: SchemeParams
    pool: tuple[int, ...]

    def value(self, index: int) -> int:
        if not 1 <= index <= len(self.pool):
            raise SimError(f"pool index {index} outside [1, {len(self.pool)}]")
        return self.pool[index - 1]


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
) -> tuple[MessageStore, ServerRandomness, UserRandomness]:
    """Sample messages, pool, and the user's pool entry from seeds."""
    mrng = SeededStream(msg_seed)
    messages = tuple(
        tuple(mrng.randrange(params.q) for _ in range(params.L))
        for _ in range(params.K)
    )
    prng = SeededStream(pool_seed)
    pool = tuple(prng.randrange(params.q) for _ in range(params.rs_size))
    urng = SeededStream(user_seed)
    index = urng.randrange(params.rs_size) + 1
    return (
        MessageStore(params, messages),
        ServerRandomness(params, pool),
        UserRandomness(index=index, value=pool[index - 1]),
    )


def answer_query(
    db: int,
    requests: tuple[SpirRequest, ...],
    store: MessageStore,
    randomness: ServerRandomness,
) -> tuple[int, ...]:
    """Evaluate each request: sum of its symbols plus its mask, mod q."""
    q = store.params.q
    out = []
    for sr in requests:
        total = 0
        for m, s in sr.terms:
            if not (1 <= m <= store.params.K and 1 <= s <= store.params.L):
                raise SimError(f"db{db}: request term W{m}[{s}] out of range")
            total += store.symbol(m, s)
        if sr.cr is not None:
            total += randomness.value(sr.cr)
        out.append(total % q)
    return tuple(out)


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
    position: dict[tuple, int] = {}
    origin: dict[tuple, int] = {}
    pos = 0
    for db, reqs in enumerate(query, start=1):
        for sr in reqs:
            position[(sr.terms, sr.cr)] = pos
            origin[(sr.terms, sr.cr)] = db
            pos += 1

    steps: list[DecodeStep] = []
    for db, reqs in enumerate(query, start=1):
        for sr in reqs:
            if desired not in sr.base.messages():
                continue
            sym = sr.base.symbol_of(desired)
            source = position[(sr.terms, sr.cr)]
            if sr.size == 1:
                if sr.cr != user_index:
                    raise DecodeError(
                        f"desired 1-sum masked with S{sr.cr}, user holds S{user_index}"
                    )
                steps.append((sym, source, None))
            else:
                key = (sr.base.without(desired).terms, sr.cr)
                if key not in position or origin[key] == db:
                    raise DecodeError(
                        f"no companion answer for a {sr.size}-sum at db{db}"
                    )
                steps.append((sym, source, position[key]))

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

    def downloaded_symbols(self) -> int:
        return sum(len(a) for a in self.answers)

    def core(self) -> dict:
        """Transport-independent content (everything but seed bookkeeping)."""
        return {
            "params": {
                "N": self.params.N,
                "K": self.params.K,
                "q": self.params.q,
                "L": self.params.L,
                "rs_size": self.params.rs_size,
                "ru_size": self.params.ru_size,
            },
            "desired": self.desired,
            "user": {"index": self.user.index, "value": self.user.value},
            "query": [
                [
                    {"terms": [[m, s] for m, s in sr.terms], "cr": sr.cr}
                    for sr in reqs
                ]
                for reqs in self.query
            ],
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
    decoded = decode(params, desired, query, answers, user)
    total = sum(len(a) for a in answers)
    rates = RateTriple(
        d=Fraction(total, params.L),
        rho_s=Fraction(params.rs_size, params.L),
        rho_u=Fraction(1, params.L),
    )
    return Transcript(
        params=params,
        desired=desired,
        user=user,
        query=query,
        answers=answers,
        decoded=decoded,
        rates=rates,
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
    store, randomness, user = deal(params, seeds.messages, seeds.pool, seeds.user)
    query = select_query(params, desired, user.index, SeededStream(seeds.query), mutation)
    answers = tuple(
        answer_query(db, reqs, store, randomness)
        for db, reqs in enumerate(query, start=1)
    )
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
    if transcript.decoded != store.messages[desired - 1]:
        raise DecodeError("decoded message differs from the stored message")
    return transcript
