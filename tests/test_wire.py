import random
import struct

import pytest

from spircr.fields import Seed, SeededStream
from spircr.plan import SchemeParams
from spircr.scheme import select_query
from spircr.wire import (
    MAGIC,
    VERSION,
    Frame,
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
        echo, decoded = decode_query_payload(payload)
        assert (echo.N, echo.K, echo.q, echo.L) == (2, 2, 257, 4)
        assert decoded == db_reqs


def test_query_payload_counts():
    p, query = sample_query()
    assert all(len(db_reqs) == 3 for db_reqs in query)


def test_unmasked_request_roundtrips():
    from spircr.plan import SymbolRequest
    from spircr.scheme import SpirRequest

    p = SchemeParams.create(1, 2, 5)
    reqs = (
        SpirRequest(SymbolRequest(((1, 1),)), None),
        SpirRequest(SymbolRequest(((2, 1),)), 2),
    )
    _, decoded = decode_query_payload(encode_query_payload(p, reqs))
    assert decoded == reqs


def test_answer_payload_roundtrip():
    values = (0, 1, 255, 4_000_000_000)
    assert decode_answer_payload(encode_answer_payload(values)) == values


def test_error_payload_roundtrip():
    msg = "pool index 9 outside [1, 3]"
    assert decode_error_payload(encode_error_payload(msg)) == msg


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


def test_query_payload_rejects_malformed():
    p, query = sample_query()
    payload = encode_query_payload(p, query[0])
    with pytest.raises(WireError):
        decode_query_payload(payload[:-2])  # truncated cr field
    with pytest.raises(WireError):
        decode_query_payload(payload + b"\x00")  # trailing octets
    with pytest.raises(WireError):
        decode_query_payload(b"")


def test_query_payload_rejects_noncanonical_order():
    p, query = sample_query()
    db = list(query[0])
    reordered = tuple([db[2], db[0], db[1]])
    with pytest.raises(WireError):
        decode_query_payload(encode_query_payload(p, reordered))


def test_query_payload_rejects_out_of_range_indices():
    p, query = sample_query()
    payload = bytearray(encode_query_payload(p, query[0]))
    # first request's first term message index -> 0
    head = struct.calcsize(">HHII") + 4
    payload[head + 2 : head + 4] = (0).to_bytes(2, "big")
    with pytest.raises(WireError):
        decode_query_payload(bytes(payload))


def test_fuzz_random_frames_never_crash():
    rng = random.Random(99)
    rejected = 0
    for _ in range(20_000):
        blob = rng.randbytes(rng.randrange(0, 64))
        try:
            decode_frame(blob)
        except WireError:
            rejected += 1
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
                decode_query_payload(frame.payload)
        except WireError:
            pass
