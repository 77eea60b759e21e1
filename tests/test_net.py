import hashlib
import json
import socket
import threading
import time

import pytest

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
from spircr.scheme import select_query
from spircr.sim import RetrievalSeeds, deal, run_retrieval
from spircr.wire import (
    Frame,
    FrameType,
    WireError,
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


@pytest.mark.parametrize("header,body", [
    (b'[1, 2]', b""),
    (b'{"kind": "database-state"}', b""),
    (b'{"kind": "database-state", "params": {"N": "1", "K": 2, "q": 2}, "symbol_count": 4}', b"\0" * 16),
    (b'{"kind": "database-state", "params": {"N": 1, "K": 2, "q": 4}, "symbol_count": 4}', b"\0" * 16),
    (b'{"kind": "database-state", "params": {"N": 1, "K": 2, "q": 2}, "symbol_count": "4"}', b"\0" * 16),
    (b'{"kind": "database-state", "params": {"N": 1, "K": 2, "q": 2}, "symbol_count": 4}', b"\2" + b"\0" * 15),
], ids=["not-an-object", "no-params", "string-N", "composite-q", "string-count", "symbol-not-below-q"])
def test_malformed_state_raises_net_error(tmp_path, header, body):
    path = tmp_path / "state.bin"
    path.write_bytes(header + b"\n" + body)
    with pytest.raises(NetError):
        load_database_state(path)


@pytest.mark.parametrize("drop,replace", [
    ("index", {}), ("value", {}), ("params", {}), (None, {"index": "1"}), (None, {"kind": 3}),
])
def test_malformed_user_file_raises_net_error(tmp_path, drop, replace):
    _, _, _, user_path = make_state(tmp_path, label="user")
    doc = json.loads(user_path.read_text())
    doc.pop(drop, None)
    doc.update(replace)
    user_path.write_text(json.dumps(doc))
    with pytest.raises(NetError):
        load_user_file(user_path)
