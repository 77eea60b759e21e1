import errno
import hashlib
import json
import re
import socket
import struct
import sys
import threading
import time

import pytest

from spircr import net
from spircr.fields import Seed, SeededStream
from spircr.net import (
    NetError,
    load_database_state,
    load_user_file,
    provision,
    run_client_retrieval,
    serve_database,
)
from spircr.plan import SchemeParams
from spircr.scheme import SpirRequest, select_query
from spircr.sim import RetrievalSeeds, deal, run_retrieval
from spircr.wire import (
    Frame,
    FrameType,
    WireError,
    decode_frame,
    encode_answer_payload,
    encode_error_payload,
    encode_frame,
    encode_query_payload,
    read_frame,
    write_frame,
)


def make_state(tmp_path, n=2, k=2, q=257, label="net"):
    params = SchemeParams.create(n, k, q)
    master = Seed.from_text(label)
    state_path, user_path = provision(
        params,
        master.derive("messages"),
        master.derive("pool"),
        master.derive("user"),
        tmp_path,
    )
    return params, master, state_path, user_path


@pytest.fixture
def served(tmp_path):
    params, master, state_path, user_path = make_state(tmp_path)
    state = load_database_state(state_path)
    servers = [serve_database(state, i) for i in (1, 2)]
    try:
        yield params, master, user_path, [s.address for s in servers]
    finally:
        for s in servers:
            s.stop()


def test_provision_files(tmp_path):
    params, master, state_path, user_path = make_state(tmp_path)
    header = state_path.read_bytes().split(b"\n", 1)[0]
    doc = json.loads(header)
    assert doc["kind"] == "database-state"
    assert doc["params"]["N"] == 2

    state = load_database_state(state_path)
    dealt, user = deal(
        params, master.derive("messages"), master.derive("pool"), master.derive("user")
    )
    assert state == dealt

    p2, loaded_user = load_user_file(user_path)
    assert p2 == params
    assert loaded_user == user
    # the user file must never leak pool values beyond the user's own entry
    user_doc = json.loads(user_path.read_text())
    assert set(user_doc) == {"kind", "params", "index", "value"}


def test_provision_replicas_identical(tmp_path):
    # every database loads the same file; same seeds -> same bytes
    _, _, a, _ = make_state(tmp_path / "a", label="rep")
    _, _, b, _ = make_state(tmp_path / "b", label="rep")
    assert hashlib.sha256(a.read_bytes()).digest() == hashlib.sha256(b.read_bytes()).digest()


def test_user_value_tracks_index(tmp_path):
    params, master, state_path, user_path = make_state(tmp_path, label="track")
    state = load_database_state(state_path)
    _, user = load_user_file(user_path)
    assert user.value == state.x[params.K * params.L + user.index - 1]


def test_end_to_end_retrieval(served):
    params, master, user_path, addresses = served
    _, user = load_user_file(user_path)
    for desired in (1, 2):
        t = run_client_retrieval(addresses, params, desired, user, master.derive("query"))
        state, _ = deal(
            params, master.derive("messages"), master.derive("pool"), master.derive("user")
        )
        assert t.decoded == state.message(desired)


def test_networked_matches_in_process(served):
    params, master, user_path, addresses = served
    _, user = load_user_file(user_path)
    t_net = run_client_retrieval(addresses, params, 2, user, master.derive("query"))
    t_local = run_retrieval(params, 2, RetrievalSeeds.from_master(master))
    assert t_net.core() == t_local.core()


def test_single_db_over_wire(tmp_path):
    params, master, state_path, user_path = make_state(tmp_path, n=1, k=3, label="one")
    state = load_database_state(state_path)
    server = serve_database(state, 1)
    try:
        _, user = load_user_file(user_path)
        t = run_client_retrieval([server.address], params, 3, user, master.derive("query"))
        assert len(t.answers[0]) == 3
    finally:
        server.stop()


def test_hello_exchange(served):
    _, _, _, addresses = served
    with socket.create_connection(addresses[0]) as sock:
        write_frame(sock, Frame(FrameType.HELLO, b""))
        reply = read_frame(sock)
    assert reply.ftype == FrameType.HELLO


def test_stop_returns_promptly(tmp_path):
    _, _, state_path, _ = make_state(tmp_path, label="stop")
    server = serve_database(load_database_state(state_path), 1)
    with socket.create_connection(server.address) as sock:
        write_frame(sock, Frame(FrameType.HELLO, b""))
        assert read_frame(sock).ftype == FrameType.HELLO
    started = time.monotonic()
    server.stop()
    assert time.monotonic() - started < 0.2


def test_error_frame_then_connection_survives(served):
    params, master, user_path, addresses = served
    _, user = load_user_file(user_path)
    query = select_query(params, 1, user.index, SeededStream(master.derive("query")))
    good = encode_query_payload(params, query[0])

    bad_params = SchemeParams.create(2, 2, 263)
    bad = encode_query_payload(bad_params, query[0])

    with socket.create_connection(addresses[0]) as sock:
        write_frame(sock, Frame(FrameType.QUERY, bad))
        reply = read_frame(sock)
        assert reply.ftype == FrameType.ERROR
        # same connection keeps working after a rejected query
        write_frame(sock, Frame(FrameType.QUERY, good))
        reply2 = read_frame(sock)
        assert reply2.ftype == FrameType.ANSWER


def test_out_of_range_cr_gets_error(served):
    params, master, user_path, addresses = served
    _, user = load_user_file(user_path)
    query = select_query(params, 1, user.index, SeededStream(master.derive("query")))
    payload = bytearray(encode_query_payload(params, query[0]))
    payload[-4:] = (250).to_bytes(4, "big")  # cr index far beyond the pool
    with socket.create_connection(addresses[0]) as sock:
        write_frame(sock, Frame(FrameType.QUERY, bytes(payload)))
        reply = read_frame(sock)
    assert reply.ftype == FrameType.ERROR
    assert b"outside" in reply.payload


def test_refused_queries_get_errors_then_the_connection_answers(served):
    params, master, user_path, addresses = served
    _, user = load_user_file(user_path)
    query = select_query(params, 1, user.index, SeededStream(master.derive("query")))
    honest = query[0]
    unmasked = honest[:-1] + (SpirRequest(honest[-1].terms, None),)
    shared = honest[:-1] + (SpirRequest(honest[-1].terms, honest[0].cr),)
    with socket.create_connection(addresses[0]) as sock:
        for reqs, reason in [(unmasked, b"unmasked request"), (shared, b"masks 2 requests")]:
            write_frame(sock, Frame(FrameType.QUERY, encode_query_payload(params, reqs)))
            reply = read_frame(sock)
            assert reply.ftype == FrameType.ERROR
            assert reason in reply.payload
        write_frame(sock, Frame(FrameType.QUERY, encode_query_payload(params, honest)))
        assert read_frame(sock).ftype == FrameType.ANSWER


def test_pipelined_frames_are_each_answered(served):
    # two frames in one write: the server keeps the octets of the second
    # while it answers the first
    params, master, user_path, addresses = served
    _, user = load_user_file(user_path)
    query = select_query(params, 1, user.index, SeededStream(master.derive("query")))
    frame = encode_frame(Frame(FrameType.QUERY, encode_query_payload(params, query[0])))
    with socket.create_connection(addresses[0]) as sock:
        sock.sendall(frame + encode_frame(Frame(FrameType.HELLO, b"")) + frame)
        kinds = [read_frame(sock).ftype for _ in range(3)]
    assert kinds == [FrameType.ANSWER, FrameType.HELLO, FrameType.ANSWER]


@pytest.mark.parametrize("big", [False, True], ids=["reply-fits", "reply-waits"])
def test_frames_before_a_bad_header_are_answered_then_the_connection_ends(pair, monkeypatch, big):
    # a whole frame and a bad header in one write: the frame is answered,
    # even when its reply has to wait for the peer to read, then EOF
    server = pair.servers[0]
    hello = encode_frame(Frame(FrameType.HELLO, b""))
    reply = hello
    if big:
        server._listener.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        reply = encode_frame(Frame(FrameType.ANSWER, bytes(range(256)) * 4096))
        real = server.handle_frame
        monkeypatch.setattr(
            server,
            "handle_frame",
            lambda frame: decode_frame(reply) if frame.ftype == FrameType.HELLO else real(frame),
        )
    with socket.socket() as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.settimeout(5.0)
        sock.connect(server.address)
        sock.sendall(hello + b"XXXX" + hello[4:])
        got = bytearray()
        while chunk := sock.recv(1 << 16):
            got += chunk
    assert got == reply
    pair.retrieve(1, "past-bad-header")


def test_unexpected_frame_type_gets_error(served):
    _, _, _, addresses = served
    with socket.create_connection(addresses[0]) as sock:
        write_frame(sock, Frame(FrameType.ANSWER, b""))
        reply = read_frame(sock)
    assert reply.ftype == FrameType.ERROR


def test_server_down_raises_net_error(tmp_path):
    params, master, state_path, user_path = make_state(tmp_path, label="down")
    state = load_database_state(state_path)
    server = serve_database(state, 1)
    live = server.address
    server.stop()
    _, user = load_user_file(user_path)
    with pytest.raises(NetError):
        run_client_retrieval([live, live], params, 1, user, master.derive("query"))


def test_concurrent_clients(served):
    params, master, user_path, addresses = served
    _, user = load_user_file(user_path)
    state, _ = deal(
        params, master.derive("messages"), master.derive("pool"), master.derive("user")
    )
    results = [None] * 8
    def one(i):
        t = run_client_retrieval(
            addresses, params, (i % 2) + 1, user, master.derive(f"q{i}")
        )
        results[i] = t.decoded == state.message(i % 2 + 1)
    threads = [threading.Thread(target=one, args=(i,)) for i in range(8)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert all(results)


@pytest.mark.parametrize("header,body,reason", [
    (b'[1, 2]', b"", "field 'kind' missing"),
    (b'{"kind": "database-state"}', b"", "field 'params' missing"),
    (b'{"kind": "database-state", "params": {"N": "1", "K": 2, "q": 2}, "symbol_count": 4}', b"\0" * 16,
     "field 'N' missing"),
    (b'{"kind": "database-state", "params": {"N": 1, "K": 2, "q": 4}, "symbol_count": 4}', b"\0" * 16,
     "bad params: q=4 is not prime"),
    (b'{"kind": "database-state", "params": {"N": 1, "K": 2, "q": 2}, "symbol_count": "4"}', b"\0" * 16,
     "field 'symbol_count' missing"),
    (b'{"kind": "database-state", "params": {"N": 1, "K": 2, "q": 2}, "symbol_count": 4}', b"\2" + b"\0" * 15,
     r"state file holds a symbol outside \[0, 2\)"),
    (b"\xff", b"", "unreadable state header"),
    (b"{not json", b"", "unreadable state header"),
    (b'{"kind": "user-randomness"}', b"", "not a database state file"),
    (b'{"kind": "database-state", "params": {"N": 1, "K": 2, "q": 2}, "symbol_count": 5}', b"\0" * 20,
     "state file symbol count mismatch"),
    (b'{"kind": "database-state", "params": {"N": 1, "K": 2, "q": 2}, "symbol_count": 4}', b"\0" * 12,
     "state file symbol count mismatch"),
], ids=["not-an-object", "no-params", "string-N", "composite-q", "string-count", "symbol-not-below-q",
        "not-utf8", "not-json", "other-kind", "count-not-the-shapes", "short-body"])
def test_malformed_state_raises_net_error(tmp_path, header, body, reason):
    path = tmp_path / "state.bin"
    path.write_bytes(header + b"\n" + body)
    with pytest.raises(NetError, match=f"^{reason}"):
        load_database_state(path)


@pytest.mark.parametrize("drop,replace", [
    ("index", {}), ("value", {}), ("params", {}), (None, {"index": "1"}), (None, {"kind": 3}),
    (None, {"kind": "database-state"}),
])
def test_malformed_user_file_raises_net_error(tmp_path, drop, replace):
    _, _, _, user_path = make_state(tmp_path, label="user")
    doc = json.loads(user_path.read_text())
    doc.pop(drop, None)
    doc.update(replace)
    user_path.write_text(json.dumps(doc))
    with pytest.raises(NetError):
        load_user_file(user_path)


@pytest.mark.parametrize("field,value,match", [
    ("index", 0, r"field 'index' = 0 outside \[1, 3\]"),
    ("index", 4, r"field 'index' = 4 outside \[1, 3\]"),
    ("value", -1, r"field 'value' = -1 outside \[0, 257\)"),
    ("value", 257, r"field 'value' = 257 outside \[0, 257\)"),
], ids=["index-0", "index-past-pool", "value-negative", "value-q"])
def test_user_file_entry_out_of_range_raises_net_error(tmp_path, field, value, match):
    # a pool entry outside the instance would decode a wrong message silently
    _, _, _, user_path = make_state(tmp_path, label="user-range")
    doc = json.loads(user_path.read_text())
    doc[field] = value
    user_path.write_text(json.dumps(doc))
    with pytest.raises(NetError, match=match):
        load_user_file(user_path)


@pytest.mark.parametrize("content", [b"\xff", b"{not json"], ids=["not-utf8", "not-json"])
def test_an_unreadable_user_file_raises_net_error(tmp_path, content):
    path = tmp_path / "user.json"
    path.write_bytes(content)
    with pytest.raises(NetError, match="^unreadable user file: "):
        load_user_file(path)


class _CountingSocket:
    """Stands in for the socket module inside spircr.net, counting connects."""

    def __init__(self, real):
        self._real = real
        self.connects = 0

    def __getattr__(self, name):
        return getattr(self._real, name)

    def create_connection(self, *args, **kwargs):
        self.connects += 1
        return self._real.create_connection(*args, **kwargs)


@pytest.fixture
def connects(monkeypatch):
    counter = _CountingSocket(net.socket)
    monkeypatch.setattr(net, "socket", counter)
    return counter


class _Pair:
    """Two database servers on one provisioned state, stopped on teardown."""

    def __init__(self, tmp_path):
        self.params, self.master, state_path, user_path = make_state(tmp_path, label="pool")
        self.state = load_database_state(state_path)
        self.user = load_user_file(user_path)[1]
        self.servers = [serve_database(self.state, i) for i in (1, 2)]

    @property
    def addresses(self):
        return [s.address for s in self.servers]

    def retrieve(self, desired, label):
        t = run_client_retrieval(
            self.addresses, self.params, desired, self.user, self.master.derive(label)
        )
        assert t.decoded == self.state.message(desired)
        return t

    def restart(self):
        ports = [s.address[1] for s in self.servers]
        for s in self.servers:
            s.stop()
        self.servers = [serve_database(self.state, i, port=p) for i, p in zip((1, 2), ports)]

    def stop(self):
        for s in self.servers:
            s.stop()


@pytest.fixture
def pair(tmp_path):
    p = _Pair(tmp_path)
    try:
        yield p
    finally:
        p.stop()


def _fail_once(monkeypatch, server, reply):
    """Make ``server`` send ``reply`` to the next frame, or raise it if it
    is an exception, then serve as before."""
    real = server.handle_frame
    calls = []

    def handle_frame(frame):
        calls.append(frame)
        if len(calls) > 1:
            return real(frame)
        if isinstance(reply, Exception):
            raise reply
        return reply

    monkeypatch.setattr(server, "handle_frame", handle_frame)


def test_session_reuses_one_connection_per_database(pair, connects):
    for i in range(10):
        pair.retrieve(i % 2 + 1, f"reuse{i}")
    assert connects.connects == 2


def test_restarted_servers_get_new_connections(pair, connects):
    pair.retrieve(1, "before")
    pair.restart()
    pair.retrieve(2, "after")
    assert connects.connects == 4


def test_error_reply_keeps_the_session(pair, connects, monkeypatch):
    pair.retrieve(1, "warm")
    _fail_once(monkeypatch, pair.servers[0], Frame(FrameType.ERROR, encode_error_payload("no")))
    with pytest.raises(NetError, match="rejected the query: no"):
        pair.retrieve(1, "rejected")
    pair.retrieve(2, "next")
    assert connects.connects == 2


@pytest.mark.parametrize("reply,reason,total_connects", [
    # a frame the client cannot read leaves the connection out of step: reconnect
    (Frame(99, b""), "unknown frame type 99", 4),
    # a whole frame with a bad payload leaves it in step: keep it
    (Frame(FrameType.ANSWER, b"\0"), "payload truncated", 2),
], ids=["frame", "payload"])
def test_malformed_reply_raises_net_error(pair, connects, monkeypatch, reply, reason, total_connects):
    pair.retrieve(1, "warm")
    _fail_once(monkeypatch, pair.servers[1], reply)
    with pytest.raises(NetError, match=f"malformed frame: {reason}"):
        pair.retrieve(1, "garbage")
    pair.retrieve(2, "next")
    assert connects.connects == total_connects


def _against_fake_database(tmp_path, reply_to):
    """Retrieve at (1,2,257) from a fake database that reads the QUERY and
    then runs reply_to on the connection before closing it. The retrieval
    must fail: returns the fake's host:port and the NetError's text."""
    params, master, _, user_path = make_state(tmp_path, n=1, k=2, label="fake")
    user = load_user_file(user_path)[1]
    with socket.create_server(("127.0.0.1", 0)) as listener:
        address = listener.getsockname()

        def serve_once():
            conn, _ = listener.accept()
            with conn:
                read_frame(conn)
                reply_to(conn)

        fake = threading.Thread(target=serve_once)
        fake.start()
        try:
            with pytest.raises(NetError) as failed:
                run_client_retrieval([address], params, 1, user, master.derive("query"))
        finally:
            fake.join(timeout=5.0)
            session = net._idle.pop((address,), None)
            if session is not None:
                session.close()
    assert not fake.is_alive()
    return f"{address[0]}:{address[1]}", str(failed.value)


def _reset(sock):
    """Make closing sock reset the connection instead of ending it cleanly."""
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))


def test_an_answer_outside_the_field_is_refused(tmp_path):
    # a fake database at (1,2,257) answers 4000000000, a symbol of no F_257
    def answer(conn):
        write_frame(conn, Frame(FrameType.ANSWER, encode_answer_payload((4_000_000_000, 0))))

    where, error = _against_fake_database(tmp_path, answer)
    assert error == f"{where} sent a malformed frame: answer 4000000000 outside [0, 257)"


def test_a_database_that_closes_without_answering_fails_the_retrieval(tmp_path):
    where, error = _against_fake_database(tmp_path, lambda conn: None)
    assert error == f"{where} closed the connection without answering"


def test_a_database_that_resets_mid_exchange_fails_the_retrieval(tmp_path):
    where, error = _against_fake_database(tmp_path, _reset)
    assert error.startswith(f"transport failure talking to {where}: ")


def test_a_reply_of_the_wrong_type_is_refused(pair, monkeypatch):
    _fail_once(monkeypatch, pair.servers[0], Frame(FrameType.HELLO, b""))
    host, port = pair.addresses[0]
    with pytest.raises(NetError, match=re.escape(f"{host}:{port} sent unexpected HELLO frame")):
        pair.retrieve(1, "hello-reply")
    pair.retrieve(2, "after-hello-reply")


@pytest.mark.parametrize("count", [1, 3])
def test_the_client_needs_one_address_per_database(tmp_path, count):
    # refused before any connection: the addresses are never dialled
    params, master, _, user_path = make_state(tmp_path, label="count")
    user = load_user_file(user_path)[1]
    addresses = [("127.0.0.1", 9)] * count
    with pytest.raises(NetError, match=f"^need 2 database addresses, got {count}$"):
        run_client_retrieval(addresses, params, 1, user, master.derive("query"))


def _hello(address):
    """The reply to one HELLO on a new connection, or None if it ends first."""
    with socket.create_connection(address, timeout=5.0) as sock:
        write_frame(sock, Frame(FrameType.HELLO, b""))
        return read_frame(sock)


def test_a_peer_that_resets_is_dropped_and_the_server_serves_on(pair, capsys):
    address = pair.addresses[0]
    with socket.create_connection(address, timeout=5.0) as sock:
        write_frame(sock, Frame(FrameType.HELLO, b""))
        assert read_frame(sock).ftype == FrameType.HELLO
        _reset(sock)
    assert _hello(address).ftype == FrameType.HELLO
    # a reset is the peer's doing, not a fault of the server: no traceback
    assert capsys.readouterr().err == ""


def test_a_fault_in_handle_frame_ends_one_connection_and_the_server_serves_on(
    pair, monkeypatch, capsys
):
    server = pair.servers[0]
    _fail_once(monkeypatch, server, RuntimeError("planted fault"))
    assert _hello(server.address) is None
    assert _hello(server.address).ftype == FrameType.HELLO
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and "RuntimeError: planted fault" in err


def test_stop_ends_open_connections(pair):
    with socket.create_connection(pair.addresses[0], timeout=5.0) as sock:
        write_frame(sock, Frame(FrameType.HELLO, b""))
        assert read_frame(sock).ftype == FrameType.HELLO
        pair.servers[0].stop()
        assert read_frame(sock) is None


def test_pooled_retrieval_against_stopped_servers_fails(pair):
    pair.retrieve(1, "warm")
    pair.stop()
    with pytest.raises(NetError):
        pair.retrieve(2, "stopped")


def test_reused_session_takes_each_callers_timeout(pair):
    key = tuple(pair.addresses)
    for timeout, label in ((3.0, "first"), (7.0, "second"), (3.0, "third")):
        run_client_retrieval(
            pair.addresses, pair.params, 1, pair.user, pair.master.derive(label), timeout=timeout
        )
        socks = net._idle[key]._socks
        assert [s.gettimeout() for s in socks] == [timeout, timeout]


def test_concurrent_sessions_under_fast_switching(pair):
    results = []

    def worker(w):
        for i in range(5):
            pair.retrieve((w + i) % 2 + 1, f"stress{w}/{i}")
            results.append((w, i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(w,)) for w in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(results) == 30
    assert tuple(pair.addresses) in net._idle


def test_open_connections_start_no_thread(served):
    _, _, _, addresses = served
    before = set(threading.enumerate())
    socks = [socket.create_connection(addresses[i % 2], timeout=5.0) for i in range(4)]
    try:
        for sock in socks:
            write_frame(sock, Frame(FrameType.HELLO, b""))
            assert read_frame(sock).ftype == FrameType.HELLO
        assert set(threading.enumerate()) <= before
    finally:
        for sock in socks:
            sock.close()


def test_a_failed_accept_keeps_the_server_serving(served, monkeypatch):
    _, _, _, addresses = served
    real = socket.socket.accept
    failed = []

    def accept(sock):
        if not failed:
            failed.append(sock)
            raise OSError(errno.EMFILE, "Too many open files")
        return real(sock)

    monkeypatch.setattr(socket.socket, "accept", accept)
    with socket.create_connection(addresses[0], timeout=5.0) as sock:
        write_frame(sock, Frame(FrameType.HELLO, b""))
        assert read_frame(sock).ftype == FrameType.HELLO
    assert len(failed) == 1


def test_a_failing_accept_does_not_spin(served, monkeypatch):
    # the listener stays readable while accept fails: the server must rest it
    _, _, _, addresses = served
    real = socket.socket.accept
    failed = []
    until = time.monotonic() + 0.5

    def accept(sock):
        if time.monotonic() < until:
            failed.append(sock)
            raise OSError(errno.EMFILE, "Too many open files")
        return real(sock)

    monkeypatch.setattr(socket.socket, "accept", accept)
    with socket.create_connection(addresses[0], timeout=5.0) as sock:
        write_frame(sock, Frame(FrameType.HELLO, b""))
        assert read_frame(sock).ftype == FrameType.HELLO
    assert 1 <= len(failed) <= 25

def test_a_rested_listener_accepts_again_when_a_connection_ends(served, monkeypatch):
    _, _, _, addresses = served
    monkeypatch.setattr(net, "_ACCEPT_PAUSE_S", 60.0)
    real = socket.socket.accept
    failed = []

    def accept(sock):
        if not failed:
            failed.append(sock)
            raise OSError(errno.EMFILE, "Too many open files")
        return real(sock)

    with socket.create_connection(addresses[0], timeout=5.0) as held:
        write_frame(held, Frame(FrameType.HELLO, b""))
        assert read_frame(held).ftype == FrameType.HELLO
        monkeypatch.setattr(socket.socket, "accept", accept)
        with socket.create_connection(addresses[0], timeout=5.0) as waiting:
            started = time.monotonic()
            while not failed and time.monotonic() - started < 5.0:
                time.sleep(0.01)
            held.close()  # frees a descriptor: waiting is accepted long before 60 s
            write_frame(waiting, Frame(FrameType.HELLO, b""))
            assert read_frame(waiting).ftype == FrameType.HELLO
    assert len(failed) == 1

def test_half_a_frame_does_not_delay_a_retrieval(pair):
    hello = encode_frame(Frame(FrameType.HELLO, b""))
    with socket.create_connection(pair.addresses[0], timeout=5.0) as stalled:
        stalled.sendall(hello[:5])
        started = time.monotonic()
        pair.retrieve(1, "past-half")
        assert time.monotonic() - started < 1.0
        stalled.sendall(hello[5:])
        assert read_frame(stalled).ftype == FrameType.HELLO


def test_a_peer_that_never_reads_is_dropped(pair, monkeypatch):
    monkeypatch.setattr(net, "_IDLE_S", 0.3)
    pair.restart()
    # each frame draws an ERROR reply several times its size
    mismatch = SchemeParams.create(2, 2, 263)
    frame = encode_frame(Frame(FrameType.QUERY, encode_query_payload(mismatch, ())))
    with socket.socket() as hog:
        hog.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1024)
        hog.connect(pair.addresses[0])
        hog.settimeout(0.2)
        started = time.monotonic()
        with pytest.raises(socket.timeout):  # the server stops reading it
            while time.monotonic() - started < 5.0:
                hog.sendall(frame * 100)
        pair.retrieve(2, "past-hog")
        time.sleep(1.0)
        with pytest.raises((ConnectionResetError, BrokenPipeError)):
            hog.send(frame)


def test_a_reply_larger_than_the_socket_buffers_arrives_whole(pair, monkeypatch):
    monkeypatch.setattr(net, "_IDLE_S", 0.3)
    pair.restart()
    server = pair.servers[0]
    # accepted sockets inherit the listener's send buffer size
    server._listener.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    big = encode_frame(Frame(FrameType.ANSWER, bytes(range(256)) * 4096))
    real = server.handle_frame
    monkeypatch.setattr(
        server,
        "handle_frame",
        lambda frame: decode_frame(big) if frame.ftype == FrameType.HELLO else real(frame),
    )
    with socket.socket() as reader:
        reader.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        reader.settimeout(5.0)
        reader.connect(server.address)
        write_frame(reader, Frame(FrameType.HELLO, b""))
        started = time.monotonic()
        got = bytearray()
        while len(got) < len(big):
            chunk = reader.recv(4096)  # steadily, taking longer than _IDLE_S in all
            if not chunk:
                break
            got += chunk
            time.sleep(0.002)
        assert time.monotonic() - started > 0.3
        assert got == big
        pair.retrieve(1, "past-big-reply")


def test_a_slow_upload_is_not_silence(pair, monkeypatch):
    monkeypatch.setattr(net, "_IDLE_S", 0.3)
    pair.restart()
    with socket.create_connection(pair.addresses[0], timeout=5.0) as slow:
        slow.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for octet in encode_frame(Frame(FrameType.HELLO, b"")):  # 10 octets over 0.6 s
            slow.sendall(bytes([octet]))
            time.sleep(0.06)
        assert read_frame(slow).ftype == FrameType.HELLO


def test_silent_connections_are_closed(monkeypatch, tmp_path):
    monkeypatch.setattr(net, "_IDLE_S", 0.3)
    _, _, state_path, _ = make_state(tmp_path, label="idle")
    server = serve_database(load_database_state(state_path), 1)
    try:
        with socket.create_connection(server.address, timeout=5.0) as silent, \
                socket.create_connection(server.address, timeout=5.0) as partial:
            partial.sendall(encode_frame(Frame(FrameType.HELLO, b""))[:5])
            started = time.monotonic()
            assert silent.recv(1) == b""
            assert partial.recv(1) == b""
            assert 0.2 < time.monotonic() - started < 3.0
    finally:
        server.stop()
