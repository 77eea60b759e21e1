import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from spircr.fields import (
    Seed,
    SeededStream,
    identity_permutation,
    is_prime,
    sample_permutation,
)


class TapeExhausted(Exception):
    pass


class TapeStream:
    """Replays a fixed tape of draws.

    Feeding every tape in the product of the draw ranges visits each branch
    of a randomized procedure exactly once.
    """

    def __init__(self, draws: tuple[int, ...] | list[int]):
        self._draws = list(draws)
        self._pos = 0

    def randrange(self, n: int) -> int:
        if self._pos >= len(self._draws):
            raise TapeExhausted(f"tape exhausted after {self._pos} draws")
        d = self._draws[self._pos]
        if not 0 <= d < n:
            raise ValueError(f"tape draw {d} outside range({n})")
        self._pos += 1
        return d

    def exhausted(self) -> bool:
        return self._pos == len(self._draws)


@pytest.mark.parametrize("n,expected", [
    (1, False), (2, True), (3, True), (4, False), (5, True), (9, False),
    (257, True), (1009, True), (1001, False),
])
def test_is_prime(n, expected):
    assert is_prime(n) == expected


def test_seed_material():
    s = Seed.from_text("alpha")
    assert len(s.data) == 16
    assert Seed.from_text("alpha") == s
    assert Seed.from_text("beta") != s
    assert s.derive("x") != s.derive("y")
    assert s.derive("x") == s.derive("x")
    with pytest.raises(ValueError):
        Seed(b"short")


def test_seed_text_that_is_not_utf8_hashes_as_its_octets():
    # how Python hands over a command-line argument holding the octet 0xff
    assert Seed.from_text("\udcff") == Seed(hashlib.sha256(b"\xff").digest()[:16])
    assert Seed.from_text("\u00ff") == Seed(hashlib.sha256("\u00ff".encode()).digest()[:16])


def test_stream_determinism():
    a = SeededStream(Seed.from_text("gamma"))
    b = SeededStream(Seed.from_text("gamma"))
    assert [a.randrange(1000) for _ in range(64)] == [b.randrange(1000) for _ in range(64)]
    c = SeededStream(Seed.from_text("delta"))
    assert [SeededStream(Seed.from_text("gamma")).randrange(1000) for _ in range(1)] \
        != [c.randrange(1000) for _ in range(1)]


def test_stream_uniformity_rough():
    # 3-sigma band around the expected count per residue
    stream = SeededStream(Seed.from_text("uniformity"))
    draws = 100_000
    counts = [0, 0, 0]
    for _ in range(draws):
        counts[stream.randrange(3)] += 1
    expected = draws / 3
    sigma = (draws * (1 / 3) * (2 / 3)) ** 0.5
    for c in counts:
        assert abs(c - expected) < 3 * sigma


def test_identity_permutation():
    assert identity_permutation(4) == (0, 1, 2, 3)


def test_sample_permutation_consumes_fixed_draws():
    # n-1 draws, ranges n down to 2; a tape of that exact length must finish
    tape = TapeStream([0, 0, 0])
    sample_permutation(4, tape)
    assert tape.exhausted()


def test_permutation_tape_enumeration_uniform():
    # every branch of the draw tape appears once and yields a distinct
    # permutation, so the sampler is exactly uniform over all 24
    counts: dict[tuple, Fraction] = {}
    for draws in itertools.product(range(4), range(3), range(2)):
        tape = TapeStream(list(draws))
        perm = sample_permutation(4, tape)
        assert tape.exhausted()
        counts[perm] = counts.get(perm, Fraction(0)) + Fraction(1, 24)
    assert len(counts) == 24
    assert all(p == Fraction(1, 24) for p in counts.values())
    assert sum(counts.values()) == 1


def test_random_permutations_are_valid():
    rng = SeededStream(Seed.from_text("perm"))
    for _ in range(50):
        perm = sample_permutation(7, rng)
        assert sorted(perm) == list(range(7))


def test_tape_errors():
    tape = TapeStream([5])
    with pytest.raises(ValueError):
        tape.randrange(3)  # recorded draw out of range for the request
    short = TapeStream([])
    with pytest.raises(TapeExhausted):
        short.randrange(2)


def test_tape_matches_seeded_stream():
    rng = SeededStream(Seed.from_text("replay"))
    draws = [rng.randrange(n) for n in (7, 6, 5, 4, 3, 2)]
    replay = TapeStream(draws)
    rng2 = SeededStream(Seed.from_text("replay"))
    assert sample_permutation(7, rng2) == sample_permutation(7, replay)
