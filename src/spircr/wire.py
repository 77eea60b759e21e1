"""Binary framing for the retrieval protocol.

Frame layout (all integers big-endian):

    +------+---------+------+----------+---------------+
    | SPIR | version | type | length   | payload       |
    | 4 B  | 1 B     | 1 B  | 4 B      | length octets |
    +------+---------+------+----------+---------------+

Query payload:

    N:u16 K:u16 q:u32 L:u32 count:u32, then per request
    term_count:u16, term_count * (message:u16 symbol:u32), cr:u32

cr = 0 encodes an unmasked request. The encoder writes one for a
fault-injected table (audit.query_distribution encodes those), but no
server admits it: decode_query_payload admits one database's query only if
it has the scheme's shape, which is every rule the one-time pad of the
shared pool needs (Sun and Jafar, arXiv 1606.08828):

  * the client's N, K, q and L are the server's;
  * exactly rs requests, each masked (cr != 0), the masks a permutation of
    1..rs, so no mask is shared;
  * requests strictly increasing in canonical order, terms strictly
    increasing by message inside each;
  * no (message, symbol) in two requests;
  * (N-1)^(t-1) requests over each t-subset of the messages
    (plan.subset_counts, the counts plan_with_perms lays out).

Answer payload: count:u32 then count * value:u32. Error payload: UTF-8 text.
Decoding rejects anything malformed or refused with a WireError naming the
first field or rule that fails, and never raises anything else, whatever
the input octets.
"""
from __future__ import annotations

import socket
import struct
from collections import Counter
from dataclasses import dataclass
from enum import IntEnum

from .plan import SchemeParams, format_terms, subset_count_problems, subset_counts
from .scheme import SpirRequest
from .sim import column_bases

MAGIC = b"SPIR"
VERSION = 1
MAX_PAYLOAD = 1 << 24

_HEADER = struct.Struct(">4sBBI")
_QUERY_HEAD = struct.Struct(">HHII")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_TERM = struct.Struct(">HI")


class FrameType(IntEnum):
    HELLO = 1
    QUERY = 2
    ANSWER = 3
    ERROR = 4
    PROVISION = 5


class WireError(Exception):
    """Malformed frame or payload; carries a human-readable reason."""


@dataclass(frozen=True)
class Frame:
    ftype: FrameType
    payload: bytes


def encode_frame(frame: Frame) -> bytes:
    if len(frame.payload) > MAX_PAYLOAD:
        raise WireError(f"payload of {len(frame.payload)} octets exceeds maximum")
    return _HEADER.pack(MAGIC, VERSION, int(frame.ftype), len(frame.payload)) + frame.payload


def _frame_header(data: bytes, pos: int = 0) -> tuple[FrameType, int]:
    """Check the header at data[pos:] (at least a whole header); the frame's
    type and declared payload length."""
    magic, version, ftype, length = _HEADER.unpack_from(data, pos)
    if magic != MAGIC:
        raise WireError(f"bad magic {magic!r}")
    if version != VERSION:
        raise WireError(f"unsupported version {version}")
    if length > MAX_PAYLOAD:
        raise WireError(f"declared payload of {length} octets exceeds maximum")
    try:
        return FrameType(ftype), length
    except ValueError:
        raise WireError(f"unknown frame type {ftype}") from None


def decode_frame(data: bytes) -> Frame:
    """Decode one complete frame occupying the whole buffer."""
    if len(data) < _HEADER.size:
        raise WireError(f"truncated header: {len(data)} of {_HEADER.size} octets")
    kind, length = _frame_header(data)
    if len(data) != _HEADER.size + length:
        raise WireError(
            f"length mismatch: declared {length}, buffer holds {len(data) - _HEADER.size}"
        )
    return Frame(kind, data[_HEADER.size :])


def encode_query_payload(params: SchemeParams, requests: tuple[SpirRequest, ...]) -> bytes:
    """Canonical octets for one database's request list."""
    out = [_QUERY_HEAD.pack(params.N, params.K, params.q, params.L)]
    out.append(_U32.pack(len(requests)))
    for sr in requests:
        out.append(_U16.pack(len(sr.terms)))
        for m, s in sr.terms:
            out.append(_TERM.pack(m, s))
        out.append(_U32.pack(0 if sr.cr is None else sr.cr))
    return b"".join(out)


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


def decode_query_payload(data: bytes, params: SchemeParams) -> list[list[int]]:
    """Parse, check and admit one database's query against the server's
    params: for each request in order, the columns of X it sums, its terms
    then its mask (what sim.request_columns gives).

    One pass over the octets, one struct unpack per request. Checks run in
    field order, so the first malformed field names the error whatever
    follows it; the rules that span requests (shared masks, repeated
    symbols, subset counts) are checked once the payload is whole.
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
    # every message subset the query may sum over is a key, so one lookup
    # checks a request's messages for range and strict order
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
        if messages not in want or min(symbols) < 1 or max(symbols) > length:
            _check_terms(fields, n_msg, length)
            if any(a >= b for a, b in zip(messages, messages[1:])):
                raise WireError("request terms not in canonical message order")
            # what is left is a subset the query never sums: counted below
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


def encode_answer_payload(values: tuple[int, ...]) -> bytes:
    return struct.pack(f">{1 + len(values)}I", len(values), *values)


def decode_answer_payload(data: bytes) -> tuple[int, ...]:
    if len(data) < _U32.size:
        raise WireError("payload truncated")
    (count,) = _U32.unpack_from(data)
    if count > MAX_PAYLOAD // _U32.size:
        raise WireError(f"implausible answer count {count}")
    end = _U32.size * (1 + count)
    if len(data) < end:
        raise WireError("payload truncated")
    if len(data) > end:
        raise WireError(f"{len(data) - end} trailing octets in payload")
    return struct.unpack_from(f">{count}I", data, _U32.size)


def encode_error_payload(reason: str) -> bytes:
    return reason.encode("utf-8")


def decode_error_payload(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        raise WireError("error payload is not valid UTF-8") from None


def read_frame(sock: socket.socket) -> Frame | None:
    """Read one frame from a socket; None on clean EOF at a frame boundary."""
    head = _read_exact(sock, _HEADER.size, allow_eof=True)
    if head is None:
        return None
    kind, length = _frame_header(head)
    return Frame(kind, _read_exact(sock, length, allow_eof=False))


def write_frame(sock: socket.socket, frame: Frame) -> None:
    sock.sendall(encode_frame(frame))


class FrameBuffer:
    """Splits the octets one connection receives into frames, without
    blocking. Octets past the last whole frame (the start of a pipelined
    next one) wait for the next feed."""

    def __init__(self) -> None:
        self._pending = bytearray()

    def feed(self, data: bytes) -> list[Frame]:
        """Every frame that data completes, in order. Raises WireError on a
        bad header as soon as the header is whole; the error's frames are
        the whole frames before that header."""
        pending = self._pending
        if pending:
            pending += data
            data = pending
        frames = []
        pos, size = 0, len(data)
        try:
            while size - pos >= _HEADER.size:
                kind, length = _frame_header(data, pos)
                start = pos + _HEADER.size
                end = start + length
                if end > size:
                    break
                frames.append(Frame(kind, bytes(data[start:end])))
                pos = end
        except WireError as e:
            e.frames = frames
            raise
        if data is pending:
            del pending[:pos]
        elif pos < size:
            pending += data[pos:]
        return frames


def _read_exact(sock: socket.socket, n: int, *, allow_eof: bool) -> bytes | None:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            if allow_eof and not buf:
                return None
            raise WireError(f"connection closed mid-frame ({len(buf)} of {n} octets)")
        buf += chunk
    return buf
