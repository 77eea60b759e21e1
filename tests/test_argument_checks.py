"""Argument checks that no other test reaches, each with its message."""
import pytest

from spircr.audit import query_distribution
from spircr.fields import Seed, SeededStream, identity_permutation, sample_permutation
from spircr.plan import SchemeParams, plan_with_perms


def stream() -> SeededStream:
    return SeededStream(Seed.from_text("checks"))


P22 = SchemeParams.create(2, 2)
P13 = SchemeParams.create(1, 3, 2)
IDENTITY22 = tuple(identity_permutation(P22.L) for _ in range(P22.K))


@pytest.mark.parametrize("call,match", [
    (lambda: stream().randrange(0), r"^randrange needs n >= 1$"),
    # without the check, length 0 gives the empty permutation
    (lambda: sample_permutation(0, stream()), r"^permutation length must be >= 1$"),
    (lambda: plan_with_perms(P22, 0, IDENTITY22), r"^desired index 0 outside \[1, 2\]$"),
    (lambda: plan_with_perms(P22, 3, IDENTITY22), r"^desired index 3 outside \[1, 2\]$"),
    # without the check, database 0 reads the last database's queries
    (lambda: query_distribution(P13, 0, 1), r"^database index 0 outside \[1, 1\]$"),
    (lambda: query_distribution(P22, 3, 1), r"^database index 3 outside \[1, 2\]$"),
], ids=["randrange", "sample_permutation", "desired-0", "desired-3", "db-0", "db-3"])
def test_argument_check_refuses_with_its_message(call, match):
    with pytest.raises(ValueError, match=match):
        call()
