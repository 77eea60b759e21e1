import random
import socket
import struct

import pytest

from spircr.fields import Seed, SeededStream
from spircr.plan import SchemeParams
from spircr.scheme import SpirRequest, select_query
from spircr.sim import request_columns
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
    read_frame,
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
                    got = decode_query_payload(encode_query_payload(p, db_reqs), p)
                    assert got == [request_columns(p, sr) for sr in db_reqs]


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


@pytest.mark.parametrize("cut,reason", [
    (4, r"\(4 of 10 octets\)"),
    (12, r"\(2 of 12 octets\)"),
], ids=["in-header", "in-payload"])
def test_read_frame_refuses_a_connection_closed_mid_frame(cut, reason):
    frame = encode_frame(Frame(FrameType.ANSWER, encode_answer_payload((1, 2))))
    ours, theirs = socket.socketpair()
    with ours:
        with theirs:
            theirs.sendall(frame[:cut])
        with pytest.raises(WireError, match=f"^connection closed mid-frame {reason}$"):
            read_frame(ours)


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
