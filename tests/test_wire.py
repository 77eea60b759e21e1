import random
import struct
from collections import Counter

import pytest

from spircr import wire
from spircr.fields import Seed, SeededStream
from spircr.plan import SchemeParams, format_terms, subset_count_problems, subset_counts
from spircr.scheme import SpirRequest, select_query
from spircr.sim import column_bases, request_columns
from spircr.wire import (
    MAGIC,
    VERSION,
    MAX_PAYLOAD,
    Frame,
    FrameBuffer,
    FrameType,
    WireError,
    decode_answer_payload,
    decode_error_payload,
    decode_frame,
    decode_query_payload,
    encode_answer_payload,
    encode_error_payload,
    encode_frame,
    encode_query_payload,
)


def sample_query(n=2, k=2, q=257, desired=1, user=1, label="wire"):
    p = SchemeParams.create(n, k, q)
    return p, select_query(p, desired, user, SeededStream(Seed.from_text(label)))


def test_hello_frame_is_ten_octets():
    data = encode_frame(Frame(FrameType.HELLO, b""))
    assert len(data) == 10
    assert data[:4] == MAGIC
    assert data[4] == VERSION
    assert decode_frame(data) == Frame(FrameType.HELLO, b"")


@pytest.mark.parametrize("ftype", list(FrameType))
def test_frame_roundtrip(ftype):
    frame = Frame(ftype, b"\x01\x02\x03")
    assert decode_frame(encode_frame(frame)) == frame


def test_query_payload_roundtrip():
    p, query = sample_query()
    for db_reqs in query:
        payload = encode_query_payload(p, db_reqs)
        assert decode_query_payload(payload, p) == [request_columns(p, sr) for sr in db_reqs]


def test_query_payload_counts():
    p, query = sample_query()
    assert all(len(db_reqs) == 3 for db_reqs in query)


@pytest.mark.parametrize("n,k", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (2, 4)])
def test_one_pass_parser_matches_request_columns(n, k):
    # every honest query is admitted, and parses to the columns the
    # in-process answerer reads
    p = SchemeParams.create(n, k, 2)
    for seed in range(10):
        for desired in range(1, k + 1):
            for u in range(1, p.rs_size + 1):
                rng = SeededStream(Seed.from_text(f"columns-{n}-{k}-{seed}"))
                for db_reqs in select_query(p, desired, u, rng):
                    payload = encode_query_payload(p, db_reqs)
                    want = [request_columns(p, sr) for sr in db_reqs]
                    assert decode_query_payload(payload, p) == want
                    assert wire._admission(p)(payload) == want  # from one unpack


def _fields(p, db_reqs):
    """The payload's fields, as one struct unpack reads them, and the kind
    of each: head, tc (term count), m, s or cr."""
    fields, kinds = [p.N, p.K, p.q, p.L, len(db_reqs)], ["head"] * 5
    for sr in db_reqs:
        fields.append(len(sr.terms))
        kinds.append("tc")
        for m, s in sr.terms:
            fields += [m, s]
            kinds += ["m", "s"]
        fields.append(sr.cr)
        kinds.append("cr")
    return fields, kinds


def _mutant(p, db_reqs, rng):
    """An honest payload with one or two fields copied, swapped or nudged,
    or two requests of one size swapped, and sometimes an octet changed,
    cut or added: mostly near misses, and some admissible payloads."""
    fields, kinds = _fields(p, db_reqs)
    for _ in range(rng.choice((1, 1, 2))):
        how = rng.choice(("copy", "swap", "nudge", "requests"))
        i = rng.randrange(5, len(fields))
        same = [j for j, kind in enumerate(kinds) if kind == kinds[i] and j != i]
        if how == "copy" and same:
            fields[i] = fields[rng.choice(same)]
        elif how == "swap" and same:
            j = rng.choice(same)
            fields[i], fields[j] = fields[j], fields[i]
        elif how == "nudge":
            top = 0xFFFF if kinds[i] in ("tc", "m") else 0xFFFFFFFF
            fields[i] = min(top, max(0, fields[i] + rng.choice((-1, 1))))
        elif how == "requests":
            starts = [j for j, kind in enumerate(kinds) if kind == "tc"]
            a, b = sorted(rng.sample(range(len(starts)), 2))
            ends = starts[1:] + [len(fields)]
            first, second = fields[starts[a] : ends[a]], fields[starts[b] : ends[b]]
            if len(first) == len(second):
                fields[starts[a] : ends[a]], fields[starts[b] : ends[b]] = second, first
    fmt = ">HHIII" + "".join("H" if kind in ("tc", "m") else "I" for kind in kinds[5:])
    payload = bytearray(struct.pack(fmt, *fields))
    octet = rng.randrange(20)
    if octet == 0:
        payload[rng.randrange(len(payload))] = rng.randrange(256)
    elif octet == 1:
        del payload[rng.randrange(len(payload)) :]
    elif octet == 2:
        payload.append(rng.randrange(256))
    return bytes(payload)


# The reference the admitter is fuzzed against: a walk over the payload's
# octets, one struct unpack per request, that checks each rule as it meets
# its field and names the first one broken.
_QUERY_HEAD = struct.Struct(">HHII")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_TERM = struct.Struct(">HI")


def _check_terms(fields, n_msg: int, length: int) -> None:
    """Raise on the first term of (m1, s1, m2, s2, ...[, cr]) out of range."""
    for i in range(0, len(fields) - 1, 2):
        m, s = fields[i], fields[i + 1]
        if not 1 <= m <= n_msg:
            raise WireError(f"message index {m} outside [1, {n_msg}]")
        if not 1 <= s <= length:
            raise WireError(f"symbol index {s} outside [1, {length}]")


def _shape(n_db: int, n_msg: int, q: int, length: int) -> str:
    return f"N={n_db} K={n_msg} q={q} L={length}"


def _walk_query(data: bytes, params: SchemeParams) -> list[list[int]]:
    """decode_query_payload in one pass over the octets, one struct unpack
    per request. Checks run in field order, so the first malformed field
    names the error whatever follows it; the rules that span requests
    (shared masks, repeated symbols, subset counts) are checked once the
    payload is whole.
    """
    size = len(data)
    if size < _QUERY_HEAD.size:
        raise WireError("payload truncated")
    n_db, n_msg, q, length = _QUERY_HEAD.unpack_from(data)
    if n_db < 1 or n_msg < 1 or q < 2 or length < 1:
        raise WireError(f"implausible parameters {_shape(n_db, n_msg, q, length)}")
    if (n_db, n_msg, q, length) != (params.N, params.K, params.q, params.L):
        raise WireError(
            f"parameter mismatch: client {_shape(n_db, n_msg, q, length)}, "
            f"server {_shape(params.N, params.K, params.q, params.L)}"
        )
    pos = _QUERY_HEAD.size + _U32.size
    if pos > size:
        raise WireError("payload truncated")
    (count,) = _U32.unpack_from(data, _QUERY_HEAD.size)
    if count > MAX_PAYLOAD // _TERM.size:
        raise WireError(f"implausible request count {count}")
    rs = params.rs_size
    if count != rs:
        raise WireError(f"{count} requests, expected {rs}: one per pool index")
    want = subset_counts(params)
    counts: dict[tuple[int, ...], int] = {}
    offset, pool_base = column_bases(params)
    columns = []
    every = []  # all columns of all requests: terms and masks never share one
    prev_tc, prev_terms = 0, ()
    for _ in range(count):
        if pos + _U16.size > size:
            raise WireError("payload truncated")
        (tc,) = _U16.unpack_from(data, pos)
        pos += _U16.size
        if tc < 1:
            raise WireError("request with zero terms")
        end = pos + tc * _TERM.size + _U32.size
        if end > size:
            whole = min(tc, (size - pos) // _TERM.size)
            _check_terms(struct.unpack_from(">" + "HI" * whole, data, pos), n_msg, length)
            raise WireError("payload truncated")
        fields = struct.unpack_from(">" + "HI" * tc + "I", data, pos)
        pos = end
        messages = fields[0:-1:2]
        symbols = fields[1:-1:2]
        _check_terms(fields, n_msg, length)
        if any(a >= b for a, b in zip(messages, messages[1:])):
            raise WireError("request terms not in canonical message order")
        terms = fields[:-1]
        if tc < prev_tc or (tc == prev_tc and terms <= prev_terms):
            reason = "requests not in canonical sorted order"
            if terms == prev_terms:
                reason += f": {format_terms(tuple(zip(messages, symbols)))} twice"
            raise WireError(reason)
        prev_tc, prev_terms = tc, terms
        cr = fields[-1]
        if cr == 0:
            raise WireError("unmasked request: every request carries a pool index")
        if cr > rs:
            raise WireError(f"mask index {cr} outside [1, {rs}]")
        counts[messages] = counts.get(messages, 0) + 1
        cols = [m * length + s + offset for m, s in zip(messages, symbols)]
        cols.append(pool_base + cr)
        columns.append(cols)
        every += cols
    if pos != size:
        raise WireError(f"{size - pos} trailing octets in payload")
    if len(set(every)) != len(every):
        masks = Counter(cols[-1] - pool_base for cols in columns)
        (shared, n), = masks.most_common(1)
        if n > 1:
            raise WireError(f"pool index {shared} masks {n} requests: each masks one")
        (col, _), = Counter(every).most_common(1)
        m, s = divmod(col - offset - 1, length)
        raise WireError(f"symbol W{m}[{s + 1}] in two requests")
    if counts != want:
        raise WireError(f"wrong query shape: {subset_count_problems(params, counts)[0]}")
    return columns


def _layout_octets(db_reqs):
    """The offsets of the octets every admissible query at its params
    shares: the header, the request count and each term count."""
    fixed, at = list(range(16)), 16
    for sr in db_reqs:
        fixed += [at, at + 1]
        at += 2 + 6 * len(sr.terms) + 4
    return fixed


@pytest.mark.parametrize("n,k,q", [(2, 2, 257), (3, 3, 257), (2, 4, 257), (1, 8, 2), (3, 2, 5)])
def test_one_unpack_admits_exactly_what_the_walk_admits(n, k, q):
    # 4000 near misses of honest queries per shape, 20000 in all. The
    # admitter admits a payload exactly when the reference walk does, with
    # the walk's columns; it refuses a payload with the instance's layout
    # with the walk's text, and any other payload with a WireError.
    p = SchemeParams.create(n, k, q)
    rng = random.Random(f"admission/{n}/{k}/{q}")
    honest = [
        db_reqs
        for i in range(20)
        for db_reqs in select_query(
            p, i % k + 1, i % p.rs_size + 1, SeededStream(Seed.from_text(f"admission/{i}"))
        )
    ]
    model = encode_query_payload(p, honest[0])
    fixed = _layout_octets(honest[0])
    admitted = laid_out = 0
    for _ in range(4000):
        payload = _mutant(p, rng.choice(honest), rng)
        try:
            walked = _walk_query(payload, p)
        except WireError as e:
            walked = str(e)
        try:
            verdict = decode_query_payload(payload, p)
        except WireError as e:
            verdict = str(e)
        has_layout = len(payload) == len(model) and all(payload[i] == model[i] for i in fixed)
        if has_layout or not isinstance(walked, str):
            assert verdict == walked, payload.hex()
        else:
            assert isinstance(verdict, str), payload.hex()
        admitted += not isinstance(verdict, str)
        laid_out += has_layout and isinstance(verdict, str)
    assert 200 < admitted < 3000  # both verdicts are well exercised
    assert laid_out > 1000  # and refusals named from the one unpack


def test_unmasked_request_encodes_but_is_refused():
    # the encoder still writes cr = 0 (audit.query_distribution encodes
    # faulted tables); no server admits it
    p = SchemeParams.create(1, 2, 5)
    reqs = (
        SpirRequest(((1, 1),), None),
        SpirRequest(((2, 1),), 2),
    )
    payload = encode_query_payload(p, reqs)
    assert payload[16 + 2 + 6 : 16 + 2 + 6 + 4] == bytes(4)
    with pytest.raises(WireError, match="unmasked request"):
        decode_query_payload(payload, p)


# One honest-shaped database query at (2,2): the 1-sums of W1 and W2, then
# one 2-sum, masked by S1, S2, S3. Each refused variant breaks one rule.
ADMIT = SchemeParams.create(2, 2, 257)
HONEST = (((1, 1),), 1), (((2, 1),), 2), (((1, 2), (2, 2)), 3)


def _payload(reqs):
    return encode_query_payload(ADMIT, tuple(SpirRequest(terms, cr) for terms, cr in reqs))


REFUSED = {
    "unmasked": ([HONEST[0], HONEST[1], (HONEST[2][0], None)], "unmasked request"),
    "repeated-mask": ([HONEST[0], (HONEST[1][0], 1), HONEST[2]], "pool index 1 masks 2 requests"),
    "too-few": (HONEST[:2], "2 requests, expected 3"),
    "too-many": ([*HONEST, (((2, 3),), 3)], "4 requests, expected 3"),
    "repeated-symbol": (
        [HONEST[0], HONEST[1], (((1, 1), (2, 2)), 3)], r"symbol W1\[1\] in two requests"
    ),
    "subset-count": (
        [HONEST[0], (((1, 3),), 2), HONEST[2]],
        r"subset \(1,\) has 2 requests, expected 1",
    ),
    "equal": ([HONEST[0], HONEST[0], HONEST[2]], r"canonical sorted order: W1\[1\] twice"),
    "out-of-order": ([HONEST[1], HONEST[0], HONEST[2]], "canonical sorted order"),
}


def test_honest_shape_is_admitted():
    assert decode_query_payload(_payload(HONEST), ADMIT) == [[0, 8], [4, 9], [1, 5, 10]]


@pytest.mark.parametrize("rule", sorted(REFUSED))
def test_admission_refuses_each_broken_rule(rule):
    reqs, reason = REFUSED[rule]
    with pytest.raises(WireError, match=reason):
        decode_query_payload(_payload(reqs), ADMIT)


WRONG_COUNT = "request 3 has 1 terms where the scheme's query has 2"


@pytest.mark.parametrize("payload,reason", [
    (_payload([HONEST[0], HONEST[1], (((1, 2),), 3)]), WRONG_COUNT),
    # an out-of-range message in request 1 too: the framing is named first
    (_payload([(((3, 1),), 1), HONEST[1], (((1, 2),), 3)]), WRONG_COUNT),
    (_payload(HONEST)[:-1], "payload truncated"),
    (_payload(HONEST) + b"\0", "1 trailing octets in payload"),
], ids=["term-count", "term-count-first", "cut", "trailing"])
def test_a_payload_without_the_layout_is_refused_for_its_framing(payload, reason):
    with pytest.raises(WireError, match=f"^{reason}$"):
        decode_query_payload(payload, ADMIT)


def test_parameter_mismatch_names_both_shapes():
    payload = _payload(HONEST)
    with pytest.raises(WireError, match="parameter mismatch: client N=2 K=2 q=257 L=4, "
                                        "server N=2 K=2 q=263 L=4"):
        decode_query_payload(payload, SchemeParams.create(2, 2, 263))


def test_answer_payload_roundtrip():
    values = (0, 1, 255, 4_000_000_000)
    assert decode_answer_payload(encode_answer_payload(values), 4_294_967_291) == values


def test_error_payload_roundtrip():
    msg = "pool index 9 outside [1, 3]"
    assert decode_error_payload(encode_error_payload(msg)) == msg


@pytest.mark.parametrize("data,reason", [
    (struct.pack(">II", 2, 0), "payload truncated"),
    (encode_answer_payload((1, 2)) + b"\0", "1 trailing octets in payload"),
    (struct.pack(">I", MAX_PAYLOAD // 4 + 1), f"implausible answer count {MAX_PAYLOAD // 4 + 1}"),
], ids=["truncated", "trailing", "implausible-count"])
def test_answer_payload_rejects_malformed(data, reason):
    with pytest.raises(WireError, match=f"^{reason}$"):
        decode_answer_payload(data, 257)


def test_error_payload_must_be_utf8():
    with pytest.raises(WireError, match="^error payload is not valid UTF-8$"):
        decode_error_payload(b"\xff\xfe")


def test_a_payload_past_the_maximum_is_not_encoded():
    with pytest.raises(WireError, match=f"^payload of {MAX_PAYLOAD + 1} octets exceeds maximum$"):
        encode_frame(Frame(FrameType.ANSWER, bytes(MAX_PAYLOAD + 1)))


def test_decode_frame_rejects_garbage():
    with pytest.raises(WireError):
        decode_frame(b"NOPE" + bytes(6))
    with pytest.raises(WireError):
        decode_frame(encode_frame(Frame(FrameType.HELLO, b""))[:-1] or b"")
    bad_version = bytearray(encode_frame(Frame(FrameType.HELLO, b"")))
    bad_version[4] = 9
    with pytest.raises(WireError):
        decode_frame(bytes(bad_version))
    bad_type = bytearray(encode_frame(Frame(FrameType.HELLO, b"")))
    bad_type[5] = 99
    with pytest.raises(WireError):
        decode_frame(bytes(bad_type))
    # declared length larger than the buffer
    header = struct.pack(">4sBBI", MAGIC, VERSION, 1, 10)
    with pytest.raises(WireError):
        decode_frame(header + b"short")
    # trailing bytes beyond the declared length
    good = encode_frame(Frame(FrameType.ANSWER, b"xy"))
    with pytest.raises(WireError):
        decode_frame(good + b"!")


def test_frame_buffer_reassembles_and_keeps_pipelined_octets():
    one = encode_frame(Frame(FrameType.ANSWER, b"abcdef"))
    two = encode_frame(Frame(FrameType.HELLO, b""))
    buf = FrameBuffer()
    assert buf.feed(one[:3]) == []
    assert buf.feed(one[3:12]) == []
    assert buf.feed(one[12:] + two[:4]) == [Frame(FrameType.ANSWER, b"abcdef")]
    assert buf.feed(two[4:]) == [Frame(FrameType.HELLO, b"")]
    assert buf.feed(two + one[:11]) == [Frame(FrameType.HELLO, b"")]
    assert buf.feed(one[11:] + two) == [
        Frame(FrameType.ANSWER, b"abcdef"),
        Frame(FrameType.HELLO, b""),
    ]


def test_frame_buffer_takes_a_largest_frame_in_pieces():
    payload = bytes(range(256)) * (MAX_PAYLOAD // 256)
    data = encode_frame(Frame(FrameType.ANSWER, payload))
    buf = FrameBuffer()
    piece = 1 << 16
    frames = [f for i in range(0, len(data), piece) for f in buf.feed(data[i : i + piece])]
    assert frames == [Frame(FrameType.ANSWER, payload)]
    assert buf.feed(b"") == []


def test_frame_buffer_refuses_a_bad_header_once_it_is_whole():
    bad = b"SPIX" + encode_frame(Frame(FrameType.HELLO, b""))[4:]
    buf = FrameBuffer()
    assert buf.feed(bad[:9]) == []
    with pytest.raises(WireError, match="bad magic"):
        buf.feed(bad[9:10])
    # the whole frames before a bad header ride on the error
    hello = encode_frame(Frame(FrameType.HELLO, b""))
    with pytest.raises(WireError, match="bad magic") as refused:
        FrameBuffer().feed(hello + bad)
    assert refused.value.frames == [Frame(FrameType.HELLO, b"")]


def test_query_payload_rejects_malformed():
    p, query = sample_query()
    payload = encode_query_payload(p, query[0])
    with pytest.raises(WireError):
        decode_query_payload(payload[:-2], p)  # truncated cr field
    with pytest.raises(WireError):
        decode_query_payload(payload + b"\x00", p)  # trailing octets
    with pytest.raises(WireError):
        decode_query_payload(b"", p)
    # cut inside the request count, right after it, and right before the
    # second request's term count
    count_end = struct.calcsize(">HHII") + 4
    second = count_end + 2 + 6 * len(query[0][0].terms) + 4
    for cut in (count_end - 2, count_end, second):
        with pytest.raises(WireError, match="^payload truncated$"):
            decode_query_payload(payload[:cut], p)


def test_query_payload_rejects_noncanonical_order():
    p, query = sample_query()
    db = list(query[0])
    reordered = tuple([db[2], db[0], db[1]])
    with pytest.raises(WireError):
        decode_query_payload(encode_query_payload(p, reordered), p)


def test_query_payload_rejects_out_of_range_indices():
    p, query = sample_query()
    payload = bytearray(encode_query_payload(p, query[0]))
    # first request's first term message index -> 0
    head = struct.calcsize(">HHII") + 4
    payload[head + 2 : head + 4] = (0).to_bytes(2, "big")
    with pytest.raises(WireError):
        decode_query_payload(bytes(payload), p)


def test_fuzz_random_frames_never_crash():
    p, query = sample_query()
    head = encode_query_payload(p, query[0])[:20]  # params and request count
    rng = random.Random(99)
    rejected = 0
    for _ in range(20_000):
        blob = rng.randbytes(rng.randrange(0, 64))
        try:
            frame = decode_frame(blob)
            if frame.ftype == FrameType.QUERY:
                decode_query_payload(frame.payload, p)
        except WireError:
            rejected += 1
        for payload in (blob, head + blob):
            with pytest.raises(WireError):
                decode_query_payload(payload, p)
    assert rejected > 19_000  # nearly everything random is malformed


def test_fuzz_mutated_valid_frames():
    p, query = sample_query()
    base = encode_frame(Frame(FrameType.QUERY, encode_query_payload(p, query[0])))
    rng = random.Random(7)
    for _ in range(20_000):
        data = bytearray(base)
        for _ in range(rng.randrange(1, 4)):
            data[rng.randrange(len(data))] = rng.randrange(256)
        try:
            frame = decode_frame(bytes(data))
            if frame.ftype == FrameType.QUERY:
                decode_query_payload(frame.payload, p)
        except WireError:
            pass
