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


def _frame_header(data: bytes) -> tuple[FrameType, int]:
    """Check the header at the start of data (at least a whole header); the
    frame's type and declared payload length."""
    magic, version, ftype, length = _HEADER.unpack_from(data)
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


def decode_query_payload(data: bytes) -> tuple[ParamsEcho, tuple[SpirRequest, ...]]:
    """Parse and validate a query payload, enforcing canonical order.

    One pass over the octets: each request's terms come from one
    ``iter_unpack`` over its term block. Checks run in field order, so the
    first malformed field names the error whatever follows it.
    """
    size = len(data)
    if size < _QUERY_HEAD.size:
        raise WireError("payload truncated")
    n_db, n_msg, q, length = _QUERY_HEAD.unpack_from(data)
    if n_db < 1 or n_msg < 1 or q < 2 or length < 1:
        raise WireError(f"implausible parameters N={n_db} K={n_msg} q={q} L={length}")
    pos = _QUERY_HEAD.size + _U32.size
    if pos > size:
        raise WireError("payload truncated")
    (count,) = _U32.unpack_from(data, _QUERY_HEAD.size)
    if count > MAX_PAYLOAD // _TERM.size:
        raise WireError(f"implausible request count {count}")
    view = memoryview(data)
    requests = []
    in_order = True
    prev_key = request_sort_key(())
    for _ in range(count):
        if pos + _U16.size > size:
            raise WireError("payload truncated")
        (tc,) = _U16.unpack_from(data, pos)
        pos += _U16.size
        if tc < 1:
            raise WireError("request with zero terms")
        whole = min(tc, (size - pos) // _TERM.size)
        terms = tuple(_TERM.iter_unpack(view[pos : pos + whole * _TERM.size]))
        for m, s in terms:
            if not 1 <= m <= n_msg:
                raise WireError(f"message index {m} outside [1, {n_msg}]")
            if not 1 <= s <= length:
                raise WireError(f"symbol index {s} outside [1, {length}]")
        pos += tc * _TERM.size
        if whole < tc or pos + _U32.size > size:
            raise WireError("payload truncated")
        (cr,) = _U32.unpack_from(data, pos)
        pos += _U32.size
        try:
            base = SymbolRequest(terms)
        except ValueError:  # terms not strictly increasing by message
            raise WireError("request terms not in canonical message order") from None
        key = request_sort_key(terms)
        in_order = in_order and prev_key <= key
        prev_key = key
        requests.append(SpirRequest(base, None if cr == 0 else cr))
    if pos != size:
        raise WireError(f"{size - pos} trailing octets in payload")
    if not in_order:
        raise WireError("requests not in canonical sorted order")
    return ParamsEcho(n_db, n_msg, q, length), tuple(requests)


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
