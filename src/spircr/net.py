"""Socket transport: provisioning files, database server, network client.

The dealer writes one state file shared verbatim by all databases (message
store plus mask pool) and one small user file holding only the user's own
(index, value) pool entry. Servers answer queries over the framed protocol;
the client queries all N databases concurrently and decodes locally. State
files are meant for a single retrieval: reusing a pool across retrievals is
unsupported and weakens the masking guarantees.

State file layout: one JSON header line, newline, then X, the database
state, as little-endian u32: messages row by row, then the pool.
"""
from __future__ import annotations

import hashlib
import json
import socket
import socketserver
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .fields import Seed, SeededStream
from .plan import SchemeParams
from .scheme import select_query
from .sim import (
    DatabaseState,
    SimError,
    Transcript,
    UserRandomness,
    answer_query,
    build_transcript,
    deal,
)
from .wire import (
    Frame,
    FrameType,
    ParamsEcho,
    WireError,
    decode_answer_payload,
    decode_error_payload,
    decode_query_payload,
    encode_answer_payload,
    encode_error_payload,
    encode_query_payload,
    read_frame,
    write_frame,
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
            "messages": hashlib.sha256(msg_seed.data).hexdigest(),
            "pool": hashlib.sha256(pool_seed.data).hexdigest(),
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
    return _params_from_doc(doc), UserRandomness(
        index=_field(doc, "index"), value=_field(doc, "value")
    )


class _Handler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        server: DatabaseServer = self.server  # type: ignore[assignment]
        sock: socket.socket = self.request
        sock.settimeout(30.0)
        while True:
            try:
                frame = read_frame(sock)
            except (WireError, OSError):
                return
            if frame is None:
                return
            try:
                reply = server.handle_frame(frame)
            except WireError as e:
                reply = Frame(FrameType.ERROR, encode_error_payload(str(e)))
            try:
                write_frame(sock, reply)
            except OSError:
                return


# How often the serve loop looks for a shutdown request, which bounds stop().
_POLL_INTERVAL_S = 0.05


class DatabaseServer(socketserver.ThreadingTCPServer):
    """One replicated database serving masked sums over TCP."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, state: DatabaseState, db_index: int, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _Handler)
        self.state = state
        self.db_index = db_index
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        host, port = self.server_address[:2]
        return str(host), int(port)

    def handle_frame(self, frame: Frame) -> Frame:
        if frame.ftype == FrameType.HELLO:
            return Frame(FrameType.HELLO, b"")
        if frame.ftype != FrameType.QUERY:
            return Frame(
                FrameType.ERROR,
                encode_error_payload(f"unexpected frame type {frame.ftype.name}"),
            )
        echo, requests = decode_query_payload(frame.payload)
        params = self.state.params
        if echo != ParamsEcho.of(params):
            return Frame(
                FrameType.ERROR,
                encode_error_payload(
                    f"parameter mismatch: client {echo}, server {ParamsEcho.of(params)}"
                ),
            )
        try:
            values = answer_query(requests, self.state)
        except SimError as e:
            return Frame(FrameType.ERROR, encode_error_payload(str(e)))
        return Frame(FrameType.ANSWER, encode_answer_payload(values))

    def start(self) -> "DatabaseServer":
        self._thread = threading.Thread(
            target=self.serve_forever, args=(_POLL_INTERVAL_S,), daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)


def serve_database(
    state: DatabaseState, db_index: int, host: str = "127.0.0.1", port: int = 0
) -> DatabaseServer:
    return DatabaseServer(state, db_index, host, port).start()


def _exchange(address: tuple[str, int], frame: Frame, timeout: float) -> Frame:
    try:
        with socket.create_connection(address, timeout=timeout) as sock:
            write_frame(sock, frame)
            reply = read_frame(sock)
    except OSError as e:
        raise NetError(f"transport failure talking to {address[0]}:{address[1]}: {e}") from e
    if reply is None:
        raise NetError(f"{address[0]}:{address[1]} closed the connection without answering")
    return reply


def run_client_retrieval(
    addresses: list[tuple[str, int]],
    params: SchemeParams,
    desired: int,
    user: UserRandomness,
    query_seed: Seed,
    timeout: float = 10.0,
) -> Transcript:
    """Query every database concurrently, join all answers, decode.

    With the same seeds, the transcript core matches the in-process
    simulator's bit for bit; only seed bookkeeping differs.
    """
    if len(addresses) != params.N:
        raise NetError(f"need {params.N} database addresses, got {len(addresses)}")
    query = select_query(params, desired, user.index, SeededStream(query_seed))
    frames = [
        Frame(FrameType.QUERY, encode_query_payload(params, reqs)) for reqs in query
    ]
    with ThreadPoolExecutor(params.N) as pool:
        replies = list(pool.map(lambda af: _exchange(af[0], af[1], timeout), zip(addresses, frames)))
    answers = []
    for (host, port), reply in zip(addresses, replies):
        if reply.ftype == FrameType.ERROR:
            raise NetError(f"{host}:{port} rejected the query: {decode_error_payload(reply.payload)}")
        if reply.ftype != FrameType.ANSWER:
            raise NetError(f"{host}:{port} sent unexpected {reply.ftype.name} frame")
        answers.append(decode_answer_payload(reply.payload))
    return build_transcript(
        params,
        desired,
        user,
        query,
        tuple(answers),
        seeds={"query": query_seed.hex()},
    )
