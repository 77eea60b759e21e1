"""Model-based test of net.Connection, the server's socket-free core.

A seeded driver plays the server loop's part: it feeds random streams of
frames split at random offsets, takes replies with random send capacities
(0 included) and moves a clock in steps around the idle limit. After every
step it checks the connection against a reference built from the stream.
"""
import random
import struct
from bisect import bisect_right
from collections import Counter
from functools import partial
from types import SimpleNamespace

from spircr import net
from spircr.fields import Seed, SeededStream
from spircr.plan import SchemeParams
from spircr.scheme import SpirRequest, select_query
from spircr.sim import deal
from spircr.wire import (
    MAGIC,
    MAX_PAYLOAD,
    VERSION,
    Frame,
    FrameType,
    decode_frame,
    encode_frame,
    encode_query_payload,
)

PARAMS = SchemeParams.create(2, 2, 257)
MASTER = Seed.from_text("connection")
STATE, USER = deal(PARAMS, MASTER.derive("messages"), MASTER.derive("pool"), MASTER.derive("user"))
# the server's own reply to each frame, without the server's sockets
HANDLE_FRAME = partial(net.DatabaseServer.handle_frame, SimpleNamespace(state=STATE))
_HEADER = struct.Struct(">4sBBI")  # magic, version, type, payload length

QUERIES = [
    reqs
    for i in range(4)
    for reqs in select_query(PARAMS, i % 2 + 1, USER.index, SeededStream(MASTER.derive(f"q{i}")))
]


def _frame(ftype: FrameType, payload: bytes) -> bytes:
    return encode_frame(Frame(ftype, payload))


def _good_frame(rng: random.Random) -> bytes:
    """A whole frame the server answers: ANSWER to an admitted QUERY, else ERROR or HELLO."""
    reqs = rng.choice(QUERIES)
    kind = rng.choice(["admitted", "admitted", "mismatch", "unmasked", "hello", "unexpected"])
    if kind == "admitted":
        return _frame(FrameType.QUERY, encode_query_payload(PARAMS, reqs))
    if kind == "mismatch":
        return _frame(FrameType.QUERY, encode_query_payload(SchemeParams.create(2, 2, 263), reqs))
    if kind == "unmasked":
        unmasked = reqs[:-1] + (SpirRequest(reqs[-1].terms, None),)
        return _frame(FrameType.QUERY, encode_query_payload(PARAMS, unmasked))
    if kind == "hello":
        return _frame(FrameType.HELLO, b"")
    return _frame(FrameType.ANSWER, rng.randbytes(rng.randrange(40)))


def _bad_header(rng: random.Random) -> bytes:
    kind = rng.choice(["magic", "version", "length"])
    if kind == "magic":
        return _HEADER.pack(b"XXXX", VERSION, FrameType.HELLO, 0)
    if kind == "version":
        return _HEADER.pack(MAGIC, VERSION + 1, FrameType.HELLO, 0)
    return _HEADER.pack(MAGIC, VERSION, FrameType.QUERY, MAX_PAYLOAD + 1)


class _Stream:
    """Random octets for one connection, and what the server owes for them."""

    def __init__(self, rng: random.Random):
        frames = [_good_frame(rng) for _ in range(rng.randrange(6))]
        self.ends = []  # where each whole frame ends
        at = 0
        for frame in frames:
            at += len(frame)
            self.ends.append(at)
        replies = [encode_frame(HANDLE_FRAME(decode_frame(f))) for f in frames]
        self.replies = b"".join(replies)
        self.reply_ends = [0]
        for reply in replies:
            self.reply_ends.append(self.reply_ends[-1] + len(reply))
        self.ending = rng.choice(["bad-header", "eof", "eof-mid-frame", "open"])
        self.octets = b"".join(frames)
        self.bad_at = None
        if self.ending == "bad-header":
            self.bad_at = at
            self.octets += _bad_header(rng) + rng.randbytes(rng.randrange(20))
        elif self.ending != "eof":
            tail = _good_frame(rng)
            self.octets += tail[: rng.randrange(len(tail))]

    def answered(self, fed: int) -> int:
        """Octets of replies owed once fed octets arrived."""
        return self.reply_ends[bisect_right(self.ends, fed)]

    def whole(self, fed: int) -> int:
        """Where the last whole frame within the first fed octets ends."""
        i = bisect_right(self.ends, fed)
        return self.ends[i - 1] if i else 0


def _clock_step(rng: random.Random) -> float:
    """Mostly short; now and then about the idle limit."""
    if rng.random() < 0.04:
        return net._IDLE_S + rng.choice([-0.5, 0.0, 0.5])
    return rng.choice([0.0, 0.001, 1.0])


def drive(seed: int) -> str:
    """Run one random stream through a Connection the way the server loop
    does; how it ended: "done" or "idle"."""
    rng = random.Random(seed)
    stream = _Stream(rng)
    now = rng.uniform(0.0, 1000.0)
    conn = net.Connection(HANDLE_FRAME, now)
    deadline = now + net._IDLE_S
    fed, eof, out = 0, False, bytearray()
    while True:
        closing = eof or (stream.bad_at is not None and fed >= stream.bad_at + _HEADER.size)
        owed = stream.answered(fed)
        assert bytes(out) == stream.replies[: len(out)], f"seed {seed}: a reply was lost or reordered"
        assert conn.outbox == stream.replies[len(out) : owed], f"seed {seed}: outbox"
        assert conn.deadline == deadline, f"seed {seed}: deadline"
        assert conn.done == (closing and len(out) == owed), f"seed {seed}: done"
        if not closing:  # all that waits for more octets is the start of one frame
            pending = conn._incoming._pending
            assert pending == stream.octets[stream.whole(fed) : fed], f"seed {seed}: pending"
        if conn.done:
            return "done"
        now += _clock_step(rng)
        if deadline <= now:  # the loop's idle sweep ends the connection
            return "idle"
        if conn.outbox:  # the loop reads a connection only once its outbox is empty
            n = min(rng.choice([0, 0, 1, 7, len(conn.outbox)]), len(conn.outbox))
            out += conn.outbox[:n]
            conn.sent(n, now)
            if n:
                deadline = now + net._IDLE_S
        elif fed < len(stream.octets):
            n = rng.choice([1, rng.randint(1, 16), rng.randint(1, 100), len(stream.octets)])
            conn.received(stream.octets[fed : fed + n], now)
            fed = min(fed + n, len(stream.octets))
            deadline = now + net._IDLE_S
        elif stream.ending != "open":
            conn.received(b"", now)
            eof = True
            deadline = now + net._IDLE_S
        else:  # nothing more arrives: only the idle deadline ends it
            now = deadline


class _NoIO:
    """Stands in for a module the connection core must not use."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr):
        raise AssertionError(f"the connection core called {self._name}.{attr}")


def test_connection_matches_the_reference_on_random_streams(monkeypatch):
    for name in ("socket", "select", "time"):
        monkeypatch.setattr(net, name, _NoIO(name))
    endings = Counter(drive(seed) for seed in range(600))
    assert endings["done"] > 200 and endings["idle"] > 100  # both ends are exercised

