import json

import pytest

from spircr import sim
from spircr.fields import Seed, SeededStream
from spircr.plan import SchemeParams
from spircr.scheme import SpirRequest, select_query
from spircr.sim import (
    DatabaseState,
    DecodeError,
    RetrievalSeeds,
    SimError,
    UserRandomness,
    answer_query,
    build_transcript,
    deal,
    decode,
    query_columns,
    run_retrieval,
)

GRID = [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)]


def seeds(label: str) -> RetrievalSeeds:
    return RetrievalSeeds.from_master(Seed.from_text(label))


def test_deal_deterministic():
    p = SchemeParams.create(2, 2, 2)
    s = seeds("deal")
    a = deal(p, s.messages, s.pool, s.user)
    b = deal(p, s.messages, s.pool, s.user)
    assert a == b


def test_deal_shapes_and_subset_property():
    p = SchemeParams.create(2, 2, 2)
    s = seeds("shapes")
    state, user = deal(p, s.messages, s.pool, s.user)
    # X holds two messages of 4 symbols, then the pool of 3
    assert len(state.x) == 11 and all(len(state.message(k)) == 4 for k in (1, 2))
    assert state.x[:8] == state.message(1) + state.message(2)
    assert 1 <= user.index <= 3
    assert user.value == state.x[8 + user.index - 1]
    # space sizes the exhaustive audits rely on: 2^8 stores, 2^3 pools, 3 indices
    assert p.q ** (p.K * p.L) == 256 and p.q ** p.rs_size == 8 and p.rs_size == 3


def test_user_index_varies_with_seed():
    p = SchemeParams.create(2, 2, 2)
    indices = set()
    for i in range(30):
        s = seeds(f"u{i}")
        _, user = deal(p, s.messages, s.pool, s.user)
        indices.add(user.index)
    assert indices == {1, 2, 3}


def test_answer_query_golden_single_db():
    # the fixture row: answers are (W1+S1, W2+S2, W3+S3) evaluated pointwise
    p = SchemeParams.create(1, 3, 5)
    state = DatabaseState(p, (2, 3, 4, 1, 2, 3))
    reqs = tuple(SpirRequest(((m, 1),), m) for m in (1, 2, 3))
    assert answer_query(query_columns(p, reqs), state) == (3, 0, 2)


def test_answer_query_gf2_wraps():
    p = SchemeParams.create(1, 2, 2)
    state = DatabaseState(p, (1, 0, 1, 0))
    reqs = (SpirRequest(((1, 1),), 1),)
    assert answer_query(query_columns(p, reqs), state) == (0,)


def test_answer_query_range_errors():
    p = SchemeParams.create(1, 2, 2)
    state = DatabaseState(p, (1, 0, 1, 0))
    # past either end of a range, including indices that would wrap around
    # X from the back if they reached it
    for terms, cr in [(((1, 2),), 1), (((1, 0),), 1), (((0, 1),), 1),
                      (((1, 1),), 9), (((1, 1),), 0), (((1, 1),), -1)]:
        with pytest.raises(SimError):
            answer_query(query_columns(p, (SpirRequest(terms, cr),)), state)


@pytest.mark.parametrize("n,k", GRID)
def test_retrieval_roundtrip_grid(n, k):
    p = SchemeParams.create(n, k, 257)
    for desired in range(1, k + 1):
        for trial in range(4):
            s = seeds(f"run-{n}-{k}-{desired}-{trial}")
            t = run_retrieval(p, desired, s)
            state, _ = deal(p, s.messages, s.pool, s.user)
            assert t.decoded == state.message(desired)
            assert sum(len(a) for a in t.answers) == t.rates.d * p.L


def test_query_not_influenced_by_messages():
    # scrubbing the store must leave the transmitted query untouched
    p = SchemeParams.create(2, 2, 257)
    s1 = seeds("content-a")
    s2 = RetrievalSeeds(
        messages=Seed.from_text("totally-different").derive("messages"),
        pool=s1.pool,
        user=s1.user,
        query=s1.query,
    )
    t1 = run_retrieval(p, 1, s1)
    t2 = run_retrieval(p, 1, s2)
    assert t1.query == t2.query
    assert t1.decoded != t2.decoded or t1.answers != t2.answers


def test_transcript_json_stable():
    p = SchemeParams.create(2, 2, 257)
    t1 = run_retrieval(p, 2, seeds("stable"))
    t2 = run_retrieval(p, 2, seeds("stable"))
    assert t1.to_json(indent=2) == t2.to_json(indent=2)
    doc = json.loads(t1.to_json())
    assert doc["params"]["N"] == 2
    assert doc["rates"]["d"] == "3/2"
    assert list(doc["seeds"]) == sorted(doc["seeds"])


def _answered(p, label, mutation=None):
    """Query for message 1 from seeds(label), answered honestly: (query,
    answers, user)."""
    s = seeds(label)
    state, user = deal(p, s.messages, s.pool, s.user)
    query = select_query(p, 1, user.index, SeededStream(s.query), mutation)
    return query, tuple(answer_query(query_columns(p, reqs), state) for reqs in query), user


def test_decode_requires_matching_user_index():
    p = SchemeParams.create(1, 2, 5)
    query, answers, user = _answered(p, "mismatch")
    wrong = UserRandomness(index=(user.index % 2) + 1, value=user.value)
    with pytest.raises(DecodeError):
        decode(p, 1, query, answers, wrong)


def test_decode_detects_missing_companion():
    p = SchemeParams.create(2, 2, 5)
    query, answers, user = _answered(p, "chop", mutation="bare-companion")
    with pytest.raises(DecodeError):
        decode(p, 1, query, answers, user)


def test_decode_refuses_answers_that_do_not_fit_the_query():
    p = SchemeParams.create(2, 2, 5)
    query, answers, user = _answered(p, "fit")
    with pytest.raises(DecodeError, match="^answer/query database count mismatch$"):
        decode(p, 1, query, answers[:1], user)
    with pytest.raises(DecodeError, match="^db2: 2 answers for 3 requests$"):
        decode(p, 1, query, (answers[0], answers[1][:2]), user)


def test_decode_refuses_two_values_for_one_symbol():
    # at (1,2) the first request is the desired 1-sum: send it twice, with
    # answers one apart
    p = SchemeParams.create(1, 2, 5)
    ((first, *rest),), ((value, *others),), user = _answered(p, "twice")
    query = ((first, first, *rest),)
    answers = ((value, (value + 1) % p.q, *others),)
    with pytest.raises(DecodeError, match=r"^conflicting values for W1\[1\]$"):
        decode(p, 1, query, answers, user)


def test_decode_refuses_a_query_without_a_desired_symbol():
    p = SchemeParams.create(1, 2, 5)
    query, answers, user = _answered(p, "missing")
    with pytest.raises(DecodeError, match=r"^undecoded desired symbols: \[1\]$"):
        decode(p, 1, (query[0][1:],), (answers[0][1:],), user)


def test_run_retrieval_checks_the_decoded_message_against_the_store(monkeypatch):
    # a database that adds 1 to its first answer, the desired 1-sum at
    # (1,2): the decode goes through, and the check against the store fails
    real = sim.answer_query

    def off_by_one(columns, state):
        first, *rest = real(columns, state)
        return ((first + 1) % state.params.q, *rest)

    monkeypatch.setattr(sim, "answer_query", off_by_one)
    with pytest.raises(DecodeError, match="^decoded message differs from the stored message$"):
        run_retrieval(SchemeParams.create(1, 2, 257), 1, seeds("off-by-one"))


def test_build_transcript_rates():
    p = SchemeParams.create(2, 3, 2)
    t = run_retrieval(p, 1, seeds("rates"))
    assert t.rates.as_strings() == {"d": "7/4", "rho_s": "7/8", "rho_u": "1/8"}
    core = t.core()
    assert set(core) >= {"params", "desired", "query", "answers", "decoded", "rates"}
    assert "seeds" not in core
