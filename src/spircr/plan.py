"""Replicated-database retrieval plans built from k-sum requests.

A plan asks each of N non-colluding databases, all holding the same K
messages of L = N^K symbols, for sums of single symbols drawn from every
size-k subset of messages. Undesired-only sums double as side information:
each one is re-queried at every other database inside a larger sum that
adds exactly one fresh desired symbol, which is how all L desired symbols
become recoverable by subtraction.

A plan request is its terms, ((message, symbol), ...) with both indices
1-based and messages strictly increasing: the formal sum of those single
symbols. The scheme layer adds the pool index that masks it.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import asdict, dataclass, field

from .fields import DrawStream, Permutation, identity_permutation, is_prime, sample_permutation


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
        if not is_prime(self.q):
            raise ValueError(f"q={self.q} is not prime")
        object.__setattr__(self, "L", message_length(self.N, self.K))
        object.__setattr__(self, "rs_size", cr_pool_size(self.N, self.K))
        object.__setattr__(self, "ru_size", 1)
        if self.L >= 1 << 32 or self.q >= 1 << 32:
            raise ValueError("L and q must fit in 32 bits for the wire format")

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
    canonical order."""

    params: SchemeParams
    desired: int
    per_db: tuple[tuple[Terms, ...], ...]


def request_sort_key(terms: Terms):
    # Canonical order: by sum size, then message indices, then symbol indices.
    return (len(terms), terms)


def _check_desired(params: SchemeParams, desired: int) -> None:
    if not 1 <= desired <= params.K:
        raise ValueError(f"desired index {desired} outside [1, {params.K}]")


def sample_orderings(params: SchemeParams, rng: DrawStream) -> tuple[Permutation, ...]:
    """One uniform symbol ordering per message, drawn message by message."""
    return tuple(sample_permutation(params.L, rng) for _ in range(params.K))


def build_pir_plan(params: SchemeParams, desired: int, rng: DrawStream) -> PirPlan:
    """Sample fresh symbol orderings and lay out the request structure."""
    _check_desired(params, desired)
    return plan_with_perms(params, desired, sample_orderings(params, rng))


def plan_with_perms(
    params: SchemeParams, desired: int, perms: tuple[Permutation, ...]
) -> PirPlan:
    """Deterministic plan layout for fixed per-message symbol orderings."""
    _check_desired(params, desired)
    n_db, n_msg = params.N, params.K
    next_pos = [0] * n_msg

    def take(message: int) -> int:
        p = perms[message - 1][next_pos[message - 1]]
        next_pos[message - 1] += 1
        return p + 1

    per_db: list[list[Terms]] = [[] for _ in range(n_db)]
    # Undesired-only sums by (database, message subset), in creation order;
    # round t reuses each one of round t - 1 once at every other database.
    side: dict[tuple[int, tuple[int, ...]], list[Terms]] = {}

    # At N = 1 later rounds would need (N-1)^(t-1) = 0 undesired-only sums
    # and a companion at another database, so round 1 is the whole plan.
    rounds = n_msg if n_db > 1 else 1
    for t in range(1, rounds + 1):
        subsets = _ranked_subsets(n_msg, desired, t)
        for db in range(1, n_db + 1):
            for subset in subsets:
                if desired not in subset:
                    count = (n_db - 1) ** (t - 1)
                    side[db, subset] = [tuple([(m, take(m)) for m in subset]) for _ in range(count)]
                    per_db[db - 1] += side[db, subset]
                elif t == 1:
                    per_db[db - 1].append(((desired, take(desired)),))
                else:
                    rest = tuple(m for m in subset if m != desired)
                    for other in _cyclic_others(db, n_db):
                        for comp in side[other, rest]:
                            per_db[db - 1].append(tuple(sorted(comp + ((desired, take(desired)),))))

    ordered = tuple(tuple(sorted(reqs, key=request_sort_key)) for reqs in per_db)
    return PirPlan(params=params, desired=desired, per_db=ordered)


def _ranked_subsets(n_msg: int, desired: int, t: int) -> list[tuple[int, ...]]:
    """Every t-subset of the messages, ordered by cyclic subset rank (see
    scheme.fresh_masks): the combinations of cyclic offsets from the desired
    index come out in that order already."""
    return [
        tuple(sorted([(desired - 1 + o) % n_msg + 1 for o in offsets]))
        for offsets in itertools.combinations(range(n_msg), t)
    ]


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


def identity_plan(params: SchemeParams, desired: int) -> PirPlan:
    """Plan with identity symbol orderings; used for display and fixtures."""
    perms = (identity_permutation(params.L),) * params.K
    return plan_with_perms(params, desired, perms)
