"""Binary framing for the retrieval protocol.

Frame layout (all integers big-endian):

    +------+---------+------+----------+---------------+
    | SPIR | version | type | length   | payload       |
    | 4 B  | 1 B     | 1 B  | 4 B      | length octets |
    +------+---------+------+----------+---------------+

Query payload:

    N:u16 K:u16 q:u32 L:u32 count:u32, then per request
    term_count:u16, term_count * (message:u16 symbol:u32), cr:u32

cr = 0 encodes an unmasked request (only fault-injected queries emit one).
Answer payload: count:u32 then count * value:u32. Error payload: UTF-8 text.
Decoding rejects anything malformed with a WireError and never raises
anything else, whatever the input octets.
"""
from __future__ import annotations

import socket
import struct
from dataclasses import dataclass
from enum import IntEnum

from .plan import SchemeParams, SymbolRequest, request_sort_key
from .scheme import SpirRequest

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


@dataclass(frozen=True)
class ParamsEcho:
    """Instance shape echoed in every query so mismatches fail loudly."""

    N: int
    K: int
    q: int
    L: int

    @classmethod
    def of(cls, params: SchemeParams) -> "ParamsEcho":
        return cls(params.N, params.K, params.q, params.L)


def encode_frame(frame: Frame) -> bytes:
    if len(frame.payload) > MAX_PAYLOAD:
        raise WireError(f"payload of {len(frame.payload)} octets exceeds maximum")
    return _HEADER.pack(MAGIC, VERSION, int(frame.ftype), len(frame.payload)) + frame.payload


def decode_frame(data: bytes) -> Frame:
    """Decode one complete frame occupying the whole buffer."""
    if len(data) < _HEADER.size:
        raise WireError(f"truncated header: {len(data)} of {_HEADER.size} octets")
    magic, version, ftype, length = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise WireError(f"bad magic {magic!r}")
    if version != VERSION:
        raise WireError(f"unsupported version {version}")
    if length > MAX_PAYLOAD:
        raise WireError(f"declared payload of {length} octets exceeds maximum")
    if len(data) != _HEADER.size + length:
        raise WireError(
            f"length mismatch: declared {length}, buffer holds {len(data) - _HEADER.size}"
        )
    try:
        kind = FrameType(ftype)
    except ValueError:
        raise WireError(f"unknown frame type {ftype}") from None
    return Frame(kind, data[_HEADER.size :])


class _Cursor:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, fmt: struct.Struct):
        if self.pos + fmt.size > len(self.data):
            raise WireError("payload truncated")
        vals = fmt.unpack_from(self.data, self.pos)
        self.pos += fmt.size
        return vals

    def done(self) -> None:
        if self.pos != len(self.data):
            raise WireError(f"{len(self.data) - self.pos} trailing octets in payload")


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


def decode_query_payload(data: bytes) -> tuple[ParamsEcho, tuple[SpirRequest, ...]]:
    """Parse and validate a query payload, enforcing canonical order."""
    cur = _Cursor(data)
    n_db, n_msg, q, length = cur.take(_QUERY_HEAD)
    if n_db < 1 or n_msg < 1 or q < 2 or length < 1:
        raise WireError(f"implausible parameters N={n_db} K={n_msg} q={q} L={length}")
    (count,) = cur.take(_U32)
    if count > MAX_PAYLOAD // _TERM.size:
        raise WireError(f"implausible request count {count}")
    requests = []
    for _ in range(count):
        (tc,) = cur.take(_U16)
        if tc < 1:
            raise WireError("request with zero terms")
        terms = []
        for _ in range(tc):
            m, s = cur.take(_TERM)
            if not 1 <= m <= n_msg:
                raise WireError(f"message index {m} outside [1, {n_msg}]")
            if not 1 <= s <= length:
                raise WireError(f"symbol index {s} outside [1, {length}]")
            terms.append((m, s))
        (cr,) = cur.take(_U32)
        msgs = [m for m, _ in terms]
        if msgs != sorted(msgs) or len(set(msgs)) != len(msgs):
            raise WireError("request terms not in canonical message order")
        requests.append(SpirRequest(SymbolRequest(tuple(terms)), None if cr == 0 else cr))
    cur.done()
    keys = [request_sort_key(sr.terms) for sr in requests]
    if keys != sorted(keys):
        raise WireError("requests not in canonical sorted order")
    return ParamsEcho(n_db, n_msg, q, length), tuple(requests)


def encode_answer_payload(values: tuple[int, ...]) -> bytes:
    out = [_U32.pack(len(values))]
    for v in values:
        out.append(_U32.pack(v))
    return b"".join(out)


def decode_answer_payload(data: bytes) -> tuple[int, ...]:
    cur = _Cursor(data)
    (count,) = cur.take(_U32)
    if count > MAX_PAYLOAD // _U32.size:
        raise WireError(f"implausible answer count {count}")
    vals = tuple(cur.take(_U32)[0] for _ in range(count))
    cur.done()
    return vals


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
    magic, version, ftype, length = _HEADER.unpack(head)
    if magic != MAGIC:
        raise WireError(f"bad magic {magic!r}")
    if version != VERSION:
        raise WireError(f"unsupported version {version}")
    if length > MAX_PAYLOAD:
        raise WireError(f"declared payload of {length} octets exceeds maximum")
    payload = _read_exact(sock, length, allow_eof=False) if length else b""
    try:
        kind = FrameType(ftype)
    except ValueError:
        raise WireError(f"unknown frame type {ftype}") from None
    return Frame(kind, payload or b"")


def write_frame(sock: socket.socket, frame: Frame) -> None:
    sock.sendall(encode_frame(frame))


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
