"""Seeds, replayable draw streams, uniform permutations, and primality.

Symbols are plain ints in [0, q) for a prime q, and every random draw flows
through a seedable stream so that a run can be replayed bit for bit from its
seeds.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Protocol

# The interpreter's own sha256 gives the same digests as hashlib's without
# loading OpenSSL, which adds about 3.5 MB to the RSS of every process that
# imports spircr (random.py takes its sha512 the same way).
try:
    from _sha256 import sha256  # Python 3.10 and 3.11
except ImportError:
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        from hashlib import sha256

# A permutation of range(n): position i maps to perm[i].
Permutation = tuple[int, ...]

SEED_BYTES = 16

DEFAULT_AUDIT_Q = 2
DEFAULT_DEMO_Q = 257


def is_prime(n: int) -> bool:
    """Deterministic primality check for the small moduli used here."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class Seed:
    """Fixed-length opaque seed; equal seeds give identical draw streams."""

    data: bytes

    def __post_init__(self) -> None:
        if len(self.data) != SEED_BYTES:
            raise ValueError(f"seed must be {SEED_BYTES} octets, got {len(self.data)}")

    @classmethod
    def from_text(cls, text: str) -> "Seed":
        # surrogateescape: a command-line argument that is not UTF-8 arrives
        # with its octets escaped, and hashes as those octets
        return cls(sha256(text.encode("utf-8", "surrogateescape")).digest()[:SEED_BYTES])

    def derive(self, label: str) -> "Seed":
        """Derive an independent sub-seed for a named role."""
        h = sha256(self.data + b"/" + label.encode("utf-8"))
        return Seed(h.digest()[:SEED_BYTES])

    def hex(self) -> str:
        return self.data.hex()


class DrawStream(Protocol):
    """Anything that yields bounded uniform draws."""

    def randrange(self, n: int) -> int: ...


class SeededStream:
    """Deterministic uniform draw stream derived from a Seed."""

    def __init__(self, seed: Seed):
        self._rng = random.Random(int.from_bytes(seed.data, "big"))

    def randrange(self, n: int) -> int:
        if n < 1:
            raise ValueError("randrange needs n >= 1")
        return self._rng.randrange(n)


def sample_permutation(n: int, stream: DrawStream) -> Permutation:
    """Uniform permutation of range(n) by Fisher-Yates.

    Consumes exactly n-1 draws with ranges n, n-1, ..., 2; the map from
    draw tapes to permutations is a bijection, so enumerating all tapes
    enumerates S_n with uniform weight.
    """
    if n < 1:
        raise ValueError("permutation length must be >= 1")
    items = list(range(n))
    for i in range(n - 1, 0, -1):
        j = stream.randrange(i + 1)
        items[i], items[j] = items[j], items[i]
    return tuple(items)


def identity_permutation(n: int) -> Permutation:
    return tuple(range(n))
