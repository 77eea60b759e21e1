"""Socket transport: provisioning files, database server, network client.

The dealer writes one state file shared verbatim by all databases (message
store plus mask pool) and one small user file holding only the user's own
(index, value) pool entry. A server answers every connection from one
thread; the client decodes locally. Each server connection is a
socket-free ``Connection`` core, which turns the octets received into
replies and keeps the idle deadline, plus a poll loop that only moves its
octets. A server's sockets never block: a reply its peer has no room for
yet waits, and that connection is not read until the peer takes it. A
connection that moves no octet either way for 30 s is closed, so a silent
peer, or one that stops reading its replies, is dropped. When accept fails
(out of file descriptors, say), the listener rests for 50 ms or until a
connection ends, so that the loop does not spin on it.

A server answers a QUERY frame from its octets to the columns of X each
request sums (wire.decode_query_payload, whose module docstring lists the
rules it admits by). It refuses any other query with an ERROR frame that
names why, and the connection keeps serving. Each frame's reply goes
straight onto its connection's outbox. Nothing yet stops one pool from
answering many retrievals, which weakens the masking guarantees: state
files are meant for one retrieval.

The client holds one connection per database in a ``ClientSession`` and
reuses it for every retrieval a process makes against the same addresses.
A retrieval writes its N QUERY frames before reading any reply, on the
caller's thread, so the N databases work on one round at once without
client threads. Each reply is read through a ``FrameBuffer``, as a rule
with one recv, and any octet past the reply is refused. An idle connection
that its database closed (or wrote to) is replaced before use; a query
that fails is never sent again.

State file layout: one JSON header line, newline, then X, the database
state, as little-endian u32: messages row by row, then the pool.
"""
from __future__ import annotations

import json
import math
import select
import socket
import struct
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor  # noqa: F401  perfbench/tracing.py subclasses it
from pathlib import Path

from .fields import Seed, SeededStream, sha256
from .plan import SchemeParams
from .scheme import select_query
from .sim import (
    DatabaseState,
    Transcript,
    UserRandomness,
    answer_query,
    build_transcript,
    deal,
)
from .wire import (
    Frame,
    FrameBuffer,
    FrameType,
    WireError,
    decode_answer_payload,
    decode_error_payload,
    decode_query_payload,
    encode_answer_payload,
    encode_error_payload,
    encode_frame,
    encode_query_payload,
)


class NetError(Exception):
    pass


def _field(doc, key: str, kind: type = int):
    """doc[key] if doc is a JSON object holding a value of that type there."""
    value = doc.get(key) if isinstance(doc, dict) else None
    if type(value) is not kind:
        raise NetError(f"field {key!r} missing or not of type {kind.__name__}")
    return value


def _params_from_doc(doc: dict) -> SchemeParams:
    params = _field(doc, "params", dict)
    try:
        return SchemeParams.create(_field(params, "N"), _field(params, "K"), _field(params, "q"))
    except ValueError as e:
        raise NetError(f"bad params: {e}") from None


def provision(
    params: SchemeParams,
    msg_seed: Seed,
    pool_seed: Seed,
    user_seed: Seed,
    out_dir: str | Path,
) -> tuple[Path, Path]:
    """Deal from seeds and write the database state file and the user file.

    Every database loads the same state file; the user file carries only the
    user's own pool entry, never the rest of the pool.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    state, user = deal(params, msg_seed, pool_seed, user_seed)
    body = struct.pack(f"<{len(state.x)}I", *state.x)
    header = {
        "kind": "database-state",
        "params": params.to_dict(),
        "symbol_count": len(state.x),
        "seed_digests": {
            "messages": sha256(msg_seed.data).hexdigest(),
            "pool": sha256(pool_seed.data).hexdigest(),
        },
    }
    db_path = out / "database_state.bin"
    with open(db_path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        f.write(b"\n")
        f.write(body)

    user_path = out / "user.json"
    user_doc = {
        "kind": "user-randomness",
        "params": params.to_dict(),
        "index": user.index,
        "value": user.value,
    }
    user_path.write_text(json.dumps(user_doc, sort_keys=True) + "\n", encoding="utf-8")
    return db_path, user_path


def load_database_state(path: str | Path) -> DatabaseState:
    raw = Path(path).read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        raise NetError("state file has no header line")
    try:
        header = json.loads(raw[:nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise NetError(f"unreadable state header: {e}") from None
    if _field(header, "kind", str) != "database-state":
        raise NetError("not a database state file")
    params = _params_from_doc(header)
    body = raw[nl + 1 :]
    count = _field(header, "symbol_count")
    if count != params.K * params.L + params.rs_size or len(body) != 4 * count:
        raise NetError("state file symbol count mismatch")
    x = struct.unpack(f"<{count}I", body)
    if any(v >= params.q for v in x):
        raise NetError(f"state file holds a symbol outside [0, {params.q})")
    return DatabaseState(params, x)


def load_user_file(path: str | Path) -> tuple[SchemeParams, UserRandomness]:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise NetError(f"unreadable user file: {e}") from None
    if _field(doc, "kind", str) != "user-randomness":
        raise NetError("not a user randomness file")
    params = _params_from_doc(doc)
    index, value = _field(doc, "index"), _field(doc, "value")
    if not 1 <= index <= params.rs_size:
        raise NetError(f"field 'index' = {index} outside [1, {params.rs_size}]")
    if not 0 <= value < params.q:
        raise NetError(f"field 'value' = {value} outside [0, {params.q})")
    return params, UserRandomness(index=index, value=value)


_IDLE_S = 30.0  # so that silent peers cannot pin file descriptors
# Octets one recv asks for; a longer frame takes more than one.
_RECV_SIZE = 1 << 16
# A listener whose accept failed stays readable: rest it this long, so that
# the loop does not spin on it.
_ACCEPT_PAUSE_S = 0.05
# How long a client waits to connect, and for each reply.
_CLIENT_TIMEOUT_S = 10.0


class Connection:
    """One server connection without its socket: the octets it received
    become replies in ``outbox``, and the loop that owns the socket reports
    what it read and sent, with the time. Calls no socket, poll or clock."""

    def __init__(self, handle_frame, now: float):
        self._handle_frame = handle_frame
        self._incoming = FrameBuffer()
        self.outbox = bytearray()  # replies not yet sent
        self.deadline = now + _IDLE_S  # idle until then: no octet moved either way
        self.closing = False  # EOF or a bad header: end once the outbox drains

    @property
    def done(self) -> bool:
        """Closing, and every reply sent: the loop ends the connection."""
        return self.closing and not self.outbox

    def received(self, data: bytes, now: float) -> None:
        """Answer every whole frame data completes, in order; data=b"" is
        EOF. A bad header closes, once the frames before it are answered."""
        try:
            frames = self._incoming.feed(data)
        except WireError as e:
            frames = e.frames
            self.closing = True
        for frame in frames:
            self.outbox += encode_frame(self._handle_frame(frame))
        self.closing = self.closing or not data
        self.deadline = now + _IDLE_S

    def sent(self, n: int, now: float) -> None:
        """The peer took the first n octets of the outbox."""
        if n:
            del self.outbox[:n]
            self.deadline = now + _IDLE_S


class DatabaseServer:
    """One replicated database serving masked sums over TCP from one thread."""

    def __init__(self, state: DatabaseState, db_index: int, host: str = "127.0.0.1", port: int = 0):
        self.state = state
        self.db_index = db_index
        self._listener = socket.create_server((host, port))
        self._listener.setblocking(False)
        self.address = self._listener.getsockname()[:2]
        # stop() closes _wake, so the serving thread reads EOF on _woken
        self._woken, self._wake = socket.socketpair()
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def handle_frame(self, frame: Frame) -> Frame:
        """The reply to one frame: ANSWER to an admitted QUERY, else ERROR."""
        if frame.ftype == FrameType.QUERY:
            try:
                columns = decode_query_payload(frame.payload, self.state.params)
            except WireError as e:
                return Frame(FrameType.ERROR, encode_error_payload(str(e)))
            answer = encode_answer_payload(answer_query(columns, self.state))
            return tuple.__new__(Frame, (FrameType.ANSWER, answer))
        if frame.ftype == FrameType.HELLO:
            return Frame(FrameType.HELLO, b"")
        return Frame(
            FrameType.ERROR,
            encode_error_payload(f"unexpected frame type {frame.ftype.name}"),
        )

    def start(self) -> "DatabaseServer":
        self._thread.start()
        return self

    def _serve(self) -> None:
        """Move octets between each socket and its Connection until stop().
        A connection is polled for reading while its outbox is empty, else
        for writing; a reply goes out in the pass that read its frame. A
        connection ends once it is done, on any OSError, or when its idle
        deadline passes. After a failed accept the listener rests for
        _ACCEPT_PAUSE_S, or until a connection ends."""
        poller = select.poll()
        poller.register(self._listener, select.POLLIN)
        poller.register(self._woken, select.POLLIN)
        conns: dict[int, tuple[socket.socket, Connection]] = {}  # every open connection, by fd
        sweep = time.monotonic() + _IDLE_S
        resume = math.inf  # when a listener rested after a failed accept is polled again

        def end(fd: int) -> None:
            nonlocal resume
            poller.unregister(fd)
            conns.pop(fd)[0].close()
            if resume < math.inf:  # a descriptor is free again
                resume = 0.0

        try:
            while True:
                ready = poller.poll(max(0.0, min(sweep, resume) - time.monotonic()) * 1000)
                now = time.monotonic()
                if now >= resume:
                    poller.modify(self._listener, select.POLLIN)
                    resume = math.inf
                for fd, _ in ready:
                    if fd not in conns:
                        if fd != self._listener.fileno():  # stop() closed the other end of _woken
                            return
                        try:
                            sock, _ = self._listener.accept()
                        except OSError:  # e.g. out of file descriptors
                            poller.modify(self._listener, 0)
                            resume = now + _ACCEPT_PAUSE_S
                            continue
                        sock.setblocking(False)
                        # handle_frame is looked up per frame: it may be replaced on a live server
                        conns[sock.fileno()] = sock, Connection(lambda f: self.handle_frame(f), now)
                        poller.register(sock, select.POLLIN)
                        continue
                    sock, conn = conns[fd]
                    writing = bool(conn.outbox)
                    try:
                        if not writing:
                            conn.received(sock.recv(_RECV_SIZE), now)
                        if conn.outbox:
                            try:
                                conn.sent(sock.send(conn.outbox), now)
                            except BlockingIOError:  # the peer has no room yet
                                pass
                        if conn.done:
                            end(fd)
                        elif writing != bool(conn.outbox):
                            poller.modify(fd, select.POLLOUT if conn.outbox else select.POLLIN)
                    except (OSError, WireError):
                        end(fd)
                    except Exception:  # a fault of this server: drop one connection, keep serving
                        traceback.print_exc()
                        end(fd)
                if now >= sweep:
                    for fd, (_, conn) in list(conns.items()):
                        if conn.deadline <= now:
                            end(fd)
                    sweep = min((conn.deadline for _, conn in conns.values()), default=now + _IDLE_S)
        finally:
            for sock, _ in conns.values():
                sock.close()

    def stop(self) -> None:
        """Stop accepting and end every open connection; none is answered after."""
        self._wake.close()
        if self._thread.ident is not None:
            self._thread.join()
        self._listener.close()
        self._woken.close()


def serve_database(
    state: DatabaseState, db_index: int, host: str = "127.0.0.1", port: int = 0
) -> DatabaseServer:
    return DatabaseServer(state, db_index, host, port).start()


def write_frame(sock: socket.socket, frame: Frame) -> None:
    sock.sendall(encode_frame(frame))


def read_frame(sock: socket.socket) -> Frame | None:
    """The one frame a peer sends in reply; None on EOF before any octet.
    Raises WireError on EOF inside the frame, or on any octet past it."""
    incoming = FrameBuffer()
    while data := sock.recv(_RECV_SIZE):
        frames = incoming.feed(data)
        if frames:
            if len(frames) > 1 or len(incoming):
                raise WireError("octets past the reply frame")
            return frames[0]
    if len(incoming):
        raise WireError(f"connection closed mid-frame ({len(incoming)} octets received)")
    return None


def _where(address: tuple[str, int]) -> str:
    return f"{address[0]}:{address[1]}"


class ClientSession:
    """One open connection per database, reused across retrievals.

    ``exchange`` runs on the caller's thread and uses no other. A session
    whose exchange raised may hold a reply it never read: close it.
    """

    def __init__(self, addresses: tuple[tuple[str, int], ...]):
        self.addresses = addresses
        self._socks: list[socket.socket] = []
        try:
            for address in addresses:
                sock = socket.create_connection(address, timeout=_CLIENT_TIMEOUT_S)
                self._socks.append(sock)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError as e:
            self.close()
            raise NetError(f"transport failure talking to {_where(address)}: {e}") from e
        self._idle_poll = select.poll()
        for sock in self._socks:
            self._idle_poll.register(sock, select.POLLIN)

    def alive(self) -> bool:
        """True if no database closed its idle connection or wrote to it:
        EOF, stray octets and socket errors all show as poll events."""
        return not self._idle_poll.poll(0)

    def exchange(self, frames: list[Frame]) -> list[Frame]:
        """Write frames[i] to database i for every i, then read each reply."""
        address = self.addresses[0]
        try:
            for address, sock, frame in zip(self.addresses, self._socks, frames):
                write_frame(sock, frame)
            replies = []
            for address, sock in zip(self.addresses, self._socks):
                reply = read_frame(sock)
                if reply is None:
                    raise NetError(f"{_where(address)} closed the connection without answering")
                replies.append(reply)
        except OSError as e:
            raise NetError(f"transport failure talking to {_where(address)}: {e}") from e
        except WireError as e:
            raise NetError(f"{_where(address)} sent a malformed frame: {e}") from e
        return replies

    def close(self) -> None:
        for sock in self._socks:
            sock.close()
        self._socks = []


# At most one idle session per address tuple, shared by every caller in the
# process: run_client_retrieval is one call per retrieval, so the session
# that makes connections worth keeping has to outlive the call.
_idle: dict[tuple[tuple[str, int], ...], ClientSession] = {}
_idle_lock = threading.Lock()


def _checkout(addresses: tuple[tuple[str, int], ...]) -> ClientSession:
    """The idle session for these addresses if it is still open, else a new one."""
    with _idle_lock:
        session = _idle.pop(addresses, None)
    if session is not None:
        if session.alive():
            return session
        session.close()
    return ClientSession(addresses)


def _checkin(session: ClientSession) -> None:
    with _idle_lock:
        if _idle.setdefault(session.addresses, session) is session:
            return
    session.close()


def run_client_retrieval(
    addresses: list[tuple[str, int]],
    params: SchemeParams,
    desired: int,
    user: UserRandomness,
    query_seed: Seed,
) -> Transcript:
    """Query every database in one pipelined round, join all answers, decode.

    The connections come from the process's idle session for these
    addresses and go back to it after a complete round; a round that fails
    closes them. With the same seeds, the transcript core matches the
    in-process simulator's bit for bit; only seed bookkeeping differs.
    """
    if len(addresses) != params.N:
        raise NetError(f"need {params.N} database addresses, got {len(addresses)}")
    query = select_query(params, desired, user.index, SeededStream(query_seed))
    frames = [
        tuple.__new__(Frame, (FrameType.QUERY, encode_query_payload(params, reqs))) for reqs in query
    ]
    session = _checkout(tuple(map(tuple, addresses)))
    try:
        replies = session.exchange(frames)
    except BaseException:
        session.close()
        raise
    _checkin(session)
    answers = []
    for address, reply, reqs in zip(session.addresses, replies, query):
        try:
            if reply.ftype == FrameType.ERROR:
                raise NetError(
                    f"{_where(address)} rejected the query: {decode_error_payload(reply.payload)}"
                )
            if reply.ftype != FrameType.ANSWER:
                raise NetError(f"{_where(address)} sent unexpected {reply.ftype.name} frame")
            values = decode_answer_payload(reply.payload, params.q)
        except WireError as e:
            raise NetError(f"{_where(address)} sent a malformed frame: {e}") from e
        if len(values) != len(reqs):
            raise NetError(f"{_where(address)} sent {len(values)} answers for {len(reqs)} requests")
        answers.append(values)
    return build_transcript(
        params,
        desired,
        user,
        query,
        tuple(answers),
        seeds={"query": query_seed.hex()},
    )
