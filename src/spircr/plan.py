"""Replicated-database retrieval plans built from k-sum requests.

A plan asks each of N non-colluding databases, all holding the same K
messages of L = N^K symbols, for sums of single symbols drawn from every
size-k subset of messages. Undesired-only sums double as side information:
each one is re-queried at every other database inside a larger sum that
adds exactly one fresh desired symbol, which is how all L desired symbols
become recoverable by subtraction.

A plan request is its terms, ((message, symbol), ...) with both indices
1-based and messages strictly increasing: the formal sum of those single
symbols. plan_layout creates each request with the pool index the scheme
layer masks it with, so that one pass builds the canonical table T_k.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import asdict, dataclass, field

from .fields import DrawStream, Permutation, is_prime, sample_permutation


def message_length(n_db: int, n_msg: int) -> int:
    return n_db**n_msg


def cr_pool_size(n_db: int, n_msg: int) -> int:
    """Number of shared-randomness symbols the scheme layer consumes."""
    if n_db == 1:
        return n_msg
    return (n_db**n_msg - 1) // (n_db - 1)


def total_download(n_db: int, n_msg: int) -> int:
    """Total request count across all databases."""
    return n_db * cr_pool_size(n_db, n_msg)


@dataclass(frozen=True)
class SchemeParams:
    """Instance shape: N databases and K messages over F_q. (N, K, q) is the
    whole input; the sizes they fix are derived, and kept as fields so that
    to_dict(), and every document built from it, carries them.

    L is the per-message symbol count, rs_size the shared-randomness pool
    size, ru_size how many of those symbols the user holds.
    """

    N: int
    K: int
    q: int
    L: int = field(init=False)
    rs_size: int = field(init=False)
    ru_size: int = field(init=False)

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError("need at least one database")
        if self.K < 2:
            raise ValueError("need at least two messages")
        # The wire's field widths come first: they bound the primality test
        # and N**K, which would otherwise run for as long as the input asks.
        if self.N >= 1 << 16 or self.K >= 1 << 16:
            raise ValueError("N and K must fit in 16 bits for the wire format")
        if self.q >= 1 << 32 or (self.N >= 2 and self.K >= 32):  # L = N**K >= 2**32
            raise ValueError("L and q must fit in 32 bits for the wire format")
        if not is_prime(self.q):
            raise ValueError(f"q={self.q} is not prime")
        object.__setattr__(self, "L", message_length(self.N, self.K))
        object.__setattr__(self, "rs_size", cr_pool_size(self.N, self.K))
        object.__setattr__(self, "ru_size", 1)
        if self.L >= 1 << 32:
            raise ValueError("L and q must fit in 32 bits for the wire format")
        # every lru_cache keyed by params hashes them: hash them once
        object.__setattr__(self, "_hash", hash((self.N, self.K, self.q)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def create(cls, n_db: int, n_msg: int, q: int = 2) -> "SchemeParams":
        return cls(n_db, n_msg, q)

    def to_dict(self) -> dict:
        """The fields in declaration order: the params object of every
        transcript, state file, user file and table document."""
        return asdict(self)


Terms = tuple[tuple[int, int], ...]


def messages(terms: Terms) -> tuple[int, ...]:
    """The messages a request sums a symbol of, in increasing order."""
    return tuple([m for m, _ in terms])


@dataclass(frozen=True)
class PirPlan:
    """Per-database request lists for one desired message, each in
    canonical order: by sum size, then message indices, then symbol
    indices."""

    params: SchemeParams
    desired: int
    per_db: tuple[tuple[Terms, ...], ...]


def _check_desired(params: SchemeParams, desired: int) -> None:
    if not 1 <= desired <= params.K:
        raise ValueError(f"desired index {desired} outside [1, {params.K}]")


def sample_orderings(params: SchemeParams, rng: DrawStream) -> tuple[Permutation, ...]:
    """One uniform symbol ordering per message, drawn message by message."""
    return tuple([sample_permutation(params.L, rng) for _ in range(params.K)])


def build_pir_plan(params: SchemeParams, desired: int, rng: DrawStream) -> PirPlan:
    """Sample fresh symbol orderings and lay out the request structure."""
    _check_desired(params, desired)
    return plan_with_perms(params, desired, sample_orderings(params, rng))


def plan_with_perms(
    params: SchemeParams, desired: int, perms: tuple[Permutation, ...]
) -> PirPlan:
    """Deterministic plan layout for fixed per-message symbol orderings:
    plan_layout's requests in canonical order, without their pool indices."""
    per_db = plan_layout(params, desired, perms)
    ordered = tuple(tuple([terms for _, terms, _ in sorted(reqs)]) for reqs in per_db)
    return PirPlan(params=params, desired=desired, per_db=ordered)


def plan_layout(
    params: SchemeParams, desired: int, perms: tuple[Permutation, ...]
) -> list[list[tuple[int, Terms, int]]]:
    """Every request of the plan with the pool index that masks it, one
    list per database in creation order, each as (size, terms, index): a
    list sorts into canonical order.

    Round t = 1..K lays out the t-sums (at N = 1 round 1 alone: later
    rounds would need (N-1)^(t-1) = 0 undesired-only sums and a companion
    at another database). In each round the databases go in turn, and at
    each one the t-subsets of the messages go by cyclic subset rank. A
    subset without the desired message gets (N-1)^(t-1) undesired-only
    sums, each of the next symbol of every message in it; a subset with it
    gets the desired 1-sum (t = 1) or, for each undesired-only sum of the
    rest at every other database in cyclic order, that sum plus the next
    desired symbol. Each message's symbols are taken in the order perms
    gives.

    The index is the one the masking layer gives (scheme module
    docstring): 1 on a desired 1-sum, the companion's on a larger desired
    sum, and on each undesired-only sum the next fresh index 2, 3, ... as
    it is created. Under identity orderings that creation order is
    scheme.fresh_masks' slot order (size, database, cyclic subset rank,
    terms): rounds go by size, then database, then rank, and the sums over
    one subset at one database take each message's next symbols, so their
    terms increase. So with identity orderings these are T_k's indices.
    """
    _check_desired(params, desired)
    n_db, n_msg = params.N, params.K
    symbols = [iter(perm) for perm in perms]  # each message's symbols, 0-based, in order of use
    per_db: list[list[tuple[int, Terms, int]]] = [[] for _ in range(n_db)]
    # Undesired-only sums with their indices by (database, message subset);
    # round t reuses each one of round t - 1 once at every other database.
    side: dict[tuple[int, tuple[int, ...]], list[tuple[Terms, int]]] = {}
    fresh = 2
    for t in range(1, (n_msg if n_db > 1 else 1) + 1):
        subsets = _ranked_subsets(n_msg, desired, t)
        for db in range(1, n_db + 1):
            out = per_db[db - 1]
            for subset in subsets:
                if desired not in subset:
                    made = side[db, subset] = []
                    for _ in range((n_db - 1) ** (t - 1)):
                        terms = tuple([(m, next(symbols[m - 1]) + 1) for m in subset])
                        made.append((terms, fresh))
                        out.append((t, terms, fresh))
                        fresh += 1
                elif t == 1:
                    out.append((1, ((desired, next(symbols[desired - 1]) + 1),), 1))
                else:
                    rest = tuple([m for m in subset if m != desired])
                    for other in _cyclic_others(db, n_db):
                        for comp, index in side[other, rest]:
                            own = (desired, next(symbols[desired - 1]) + 1)
                            out.append((t, tuple(sorted(comp + (own,))), index))
    return per_db


def _ranked_subsets(n_msg: int, desired: int, t: int) -> list[tuple[int, ...]]:
    """Every t-subset of the messages, ordered by cyclic subset rank (see
    scheme.fresh_masks): the combinations of the messages listed cyclically
    from the desired index come out in that order already."""
    cyclic = [(desired - 1 + o) % n_msg + 1 for o in range(n_msg)]
    return [tuple(sorted(c)) for c in itertools.combinations(cyclic, t)]


def _cyclic_others(db: int, n_db: int) -> list[int]:
    return [((db - 1 + k) % n_db) + 1 for k in range(1, n_db)]


@functools.lru_cache(maxsize=256)
def subset_counts(params: SchemeParams) -> dict[tuple[int, ...], int]:
    """How many requests over each message subset one database's query
    holds: (N-1)^(t-1) per t-subset, so at N = 1 each 1-sum once and
    nothing larger. Subsets that get none are left out. Read only."""
    return {
        subset: (params.N - 1) ** (t - 1)
        for t in range(1, params.K + 1)
        if params.N > 1 or t == 1
        for subset in itertools.combinations(range(1, params.K + 1), t)
    }


def subset_count_problems(
    params: SchemeParams, counts: dict[tuple[int, ...], int]
) -> list[str]:
    """One line per message subset, in subset order, whose count of
    requests at one database differs from subset_counts."""
    want = subset_counts(params)
    return [
        f"subset {subset} has {counts.get(subset, 0)} requests, expected {want.get(subset, 0)}"
        for t in range(1, params.K + 1)
        for subset in itertools.combinations(range(1, params.K + 1), t)
        if counts.get(subset, 0) != want.get(subset, 0)
    ]


def format_terms(terms: Terms, length: int | None = None) -> str:
    parts = []
    for m, s in terms:
        if length == 1:
            parts.append(f"W{m}")
        else:
            parts.append(f"W{m}[{s}]")
    return "+".join(parts)
