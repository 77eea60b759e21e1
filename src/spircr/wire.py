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

An admissible query has one layout per instance: its requests, in
canonical order, have the term counts plan.subset_counts fixes. So the
server admits it from one struct unpack against that layout and a few
C-level comparisons (_admission), the only code that admits a query. A
refused payload with the layout is named from the fields already
unpacked, request by request in field order, then by the rules that span
requests (_refusal): the text each rule has always had. A payload without
the layout gets a framing check (_misframed), which names the first header
field, request count, term count, cut or trailing octets that differs from
it. Its text names the framing even where an earlier request also breaks a
rule above: "request 3 has 2 terms where the scheme's query has 1", say,
where request 1 holds an out-of-range message index.

Answer payload: count:u32 then count * value:u32. Error payload: UTF-8 text.
Decoding rejects anything malformed or refused with a WireError naming the
first field or rule that fails, and never raises anything else, whatever
the input octets. This module holds no socket code: net.py does all I/O.
"""
from __future__ import annotations

import functools
import operator
import struct
from collections import Counter
from enum import IntEnum
from typing import NamedTuple

from .plan import SchemeParams, format_terms, subset_count_problems, subset_counts
from .scheme import SpirRequest
from .sim import column_bases

MAGIC = b"SPIR"
VERSION = 1
MAX_PAYLOAD = 1 << 24

_HEADER = struct.Struct(">4sBBI")
_QUERY_HEAD = struct.Struct(">HHIII")  # N, K, q, L and the request count
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_TERM = struct.Struct(">HI")


class FrameType(IntEnum):
    HELLO = 1
    QUERY = 2
    ANSWER = 3
    ERROR = 4
    PROVISION = 5


_FRAME_TYPES = {int(kind): kind for kind in FrameType}


class WireError(Exception):
    """Malformed frame or payload; carries a human-readable reason."""


class Frame(NamedTuple):
    """tuple.__new__(Frame, (ftype, payload)) builds one without the Python
    call to the __new__ NamedTuple writes: the per-frame paths do."""

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
    kind = _FRAME_TYPES.get(ftype)
    if kind is None:
        raise WireError(f"unknown frame type {ftype}")
    return kind, length


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


@functools.lru_cache(maxsize=256)
def _query_struct(term_counts: tuple[int, ...]) -> struct.Struct:
    """The whole query payload whose requests have these term counts."""
    return struct.Struct(">HHIII" + "".join(["H" + "HI" * tc + "I" for tc in term_counts]))


def encode_query_payload(params: SchemeParams, requests: tuple[SpirRequest, ...]) -> bytes:
    """Canonical octets for one database's request list, packed in one call."""
    values = [params.N, params.K, params.q, params.L, len(requests)]
    term_counts = []
    for sr in requests:
        terms = sr.terms
        term_counts.append(len(terms))
        values.append(len(terms))
        for term in terms:
            values += term
        values.append(0 if sr.cr is None else sr.cr)
    return _query_struct(tuple(term_counts)).pack(*values)


@functools.lru_cache(maxsize=256)
def _admission(params: SchemeParams):
    """The check that admits a query at params from one unpack: a function
    from the payload to its columns, which raises WireError on any other
    payload.

    In canonical order the requests of an admissible query sum the subsets
    of plan.subset_counts by increasing size, so their term counts, and with
    them where every field lies, are fixed. Each request's fields from its
    term count to its last symbol, (tc, m1, s1, ...), sort in canonical
    order. Its mask cr is read as the term (K+1, cr): pool symbol S_cr is
    column (K+1) * L + cr + offset of X, as W_m[s] is m * L + s + offset
    (sim.column_bases).
    """
    subsets = sorted([s for s, n in subset_counts(params).items() for _ in range(n)])
    term_counts = sorted(map(len, subsets))
    shape = _query_struct(tuple(term_counts))
    length, offset, pool = params.L, column_bases(params)[0], list(range(1, params.rs_size + 1))
    spans, masks, places, requests, pos = [], [], [], [], 5
    for tc in term_counts:
        mask = pos + 1 + 2 * tc
        spans.append(slice(pos, mask))
        masks.append(mask)
        # where each column's (message, symbol) lies: each term, then the
        # mask, whose message K+1 is appended to the fields (index -1)
        requests.append(slice(len(places), len(places) + tc + 1))
        places += [(i, i + 1) for i in range(pos + 1, mask, 2)] + [(-1, mask)]
        pos = mask + 1
    messages = [slice(span.start + 1, span.stop, 2) for span in spans]
    fixed = (params.N, params.K, params.q, length, len(pool), *term_counts)
    fixed_of = operator.itemgetter(0, 1, 2, 3, 4, *[span.start for span in spans])
    masks_of = operator.itemgetter(*masks)
    symbols_of = operator.itemgetter(*[s for m, s in places if m != -1])
    column_messages, column_symbols = (operator.itemgetter(*at) for at in zip(*places))
    extra = (params.K + 1,)
    bases = [m * length + offset for m in range(params.K + 2)]  # column of W_m[s] less s

    def admit(data: bytes) -> list[list[int]]:
        if len(data) != shape.size or fixed_of(fields := shape.unpack(data)) != fixed:
            raise _misframed(data, params, term_counts)
        symbols = symbols_of(fields)
        keys = list(map(fields.__getitem__, spans))
        if (
            sorted(masks_of(fields)) != pool  # every request masked, no mask shared
            or min(symbols) < 1
            or max(symbols) > length
            or sorted(keys) != keys  # canonical order; strict once no column repeats
            or sorted(map(fields.__getitem__, messages)) != subsets
        ):
            raise _refusal(params, fields, spans)
        fields += extra
        columns = list(map(operator.add, map(bases.__getitem__, column_messages(fields)),
                           column_symbols(fields)))
        if len(set(columns)) != len(columns):  # a symbol in two requests
            raise _refusal(params, fields, spans)
        return list(map(columns.__getitem__, requests))

    return admit


def decode_query_payload(data: bytes, params: SchemeParams) -> list[list[int]]:
    """Parse, check and admit one database's query against the server's
    params: for each request in order, the columns of X it sums, its terms
    then its mask (what sim.request_columns gives). Raises WireError naming
    why any other payload is refused.
    """
    return _admission(params)(data)


def _misframed(data: bytes, params: SchemeParams, term_counts: list[int]) -> WireError:
    """Why a payload without the layout of params is refused: the first of
    the header, the request count, the term counts in order, the cut or the
    trailing octets that differs from it."""
    size, pos = len(data), _QUERY_HEAD.size
    if size < pos:
        return WireError("payload truncated")
    head = _QUERY_HEAD.unpack_from(data)
    client, server, count = head[:4], (params.N, params.K, params.q, params.L), head[4]
    if client != server:
        shape = "N={} K={} q={} L={}".format
        return WireError(f"parameter mismatch: client {shape(*client)}, server {shape(*server)}")
    if count != len(term_counts):
        return WireError(f"{count} requests, expected {len(term_counts)}: one per pool index")
    for i, want in enumerate(term_counts, 1):
        if pos + _U16.size > size:
            return WireError("payload truncated")
        (tc,) = _U16.unpack_from(data, pos)
        if tc != want:
            return WireError(f"request {i} has {tc} terms where the scheme's query has {want}")
        pos += _U16.size + tc * _TERM.size + _U32.size
    if pos > size:  # header, count and term counts match, so the length does not
        return WireError("payload truncated")
    return WireError(f"{size - pos} trailing octets in payload")


def _refusal(params: SchemeParams, fields: tuple[int, ...], spans: list[slice]) -> WireError:
    """Why a payload with the layout of params, unpacked to fields, is
    refused: the first rule it breaks, request by request in field order
    (each term's message and symbol in range, terms by message, requests in
    canonical order, the mask), then the rules that span requests (shared
    masks, repeated symbols, subset counts)."""
    n_msg, length, rs = params.K, params.L, params.rs_size
    prev: tuple[int, ...] = ()
    counts: Counter[tuple[int, ...]] = Counter()
    pairs: Counter[tuple[int, int]] = Counter()
    for span in spans:
        key = fields[span]  # (tc, m1, s1, ...); the layout keeps tc from falling
        messages, terms = key[1::2], tuple(zip(key[1::2], key[2::2]))
        for m, s in terms:
            if not 1 <= m <= n_msg:
                return WireError(f"message index {m} outside [1, {n_msg}]")
            if not 1 <= s <= length:
                return WireError(f"symbol index {s} outside [1, {length}]")
        if any(a >= b for a, b in zip(messages, messages[1:])):
            return WireError("request terms not in canonical message order")
        if key <= prev:
            twice = f": {format_terms(terms)} twice" if key == prev else ""
            return WireError(f"requests not in canonical sorted order{twice}")
        prev = key
        cr = fields[span.stop]
        if cr == 0:
            return WireError("unmasked request: every request carries a pool index")
        if cr > rs:
            return WireError(f"mask index {cr} outside [1, {rs}]")
        counts[messages] += 1
        pairs.update(terms)
    ((shared, n),) = Counter(fields[span.stop] for span in spans).most_common(1)
    if n > 1:
        return WireError(f"pool index {shared} masks {n} requests: each masks one")
    (((m, s), n),) = pairs.most_common(1)
    if n > 1:
        return WireError(f"symbol W{m}[{s}] in two requests")
    return WireError(f"wrong query shape: {subset_count_problems(params, counts)[0]}")


def encode_answer_payload(values: tuple[int, ...]) -> bytes:
    return struct.pack(f">{1 + len(values)}I", len(values), *values)


def decode_answer_payload(data: bytes, q: int) -> tuple[int, ...]:
    """The answers, each refused unless it is a symbol of F_q."""
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
    values = struct.unpack_from(f">{count}I", data, _U32.size)
    if values and max(values) >= q:
        raise WireError(f"answer {max(values)} outside [0, {q})")
    return values


def encode_error_payload(reason: str) -> bytes:
    return reason.encode("utf-8")


def decode_error_payload(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        raise WireError("error payload is not valid UTF-8") from None


class FrameBuffer:
    """Splits the octets one connection receives into frames, without
    blocking. Octets past the last whole frame (the start of a pipelined
    next one) wait for the next feed."""

    def __init__(self) -> None:
        self._pending = bytearray()

    def __len__(self) -> int:
        """Octets held past the last whole frame."""
        return len(self._pending)

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
                frames.append(tuple.__new__(Frame, (kind, bytes(data[start:end]))))
                pos = end
        except WireError as e:
            e.frames = frames
            raise
        if data is pending:
            del pending[:pos]
        elif pos < size:
            pending += data[pos:]
        return frames
