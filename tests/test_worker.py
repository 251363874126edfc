import queue
import socket
import struct
import time

import numpy as np
import pytest

from blindtrain.protocol import (
    ERR_CACHE_MISS,
    ERR_SHAPE,
    ERR_UNSUPPORTED,
    HEADER,
    MAGIC,
    VERSION,
    Config,
    Error,
    Hello,
    MultBwd,
    Result,
    StorePair,
    UnknownMessageType,
    decode,
    read_message,
    send_message,
)
from blindtrain.tensor import make_rng
from blindtrain.worker import (
    WorkerMode,
    WorkerServer,
    WorkerSession,
    apply_adversary,
    spawn_local_workers,
)


def honest_session(seed=0):
    return WorkerSession(WorkerMode.honest(), make_rng(seed))


# -- modes -----------------------------------------------------------------

def test_mode_validation():
    with pytest.raises(ValueError):
        WorkerMode("sneaky")
    with pytest.raises(ValueError):
        WorkerMode("tamper", probability=1.5)
    assert WorkerMode.honest().kind == "honest"


def test_tamper_changes_exactly_one_entry():
    rng = make_rng(1)
    mode = WorkerMode("tamper", 1.0, magnitude=2.5)
    for _ in range(50):
        honest = rng.standard_normal((4, 6))
        out = apply_adversary(mode, honest.copy(), rng, {})
        diff = out - honest
        changed = np.nonzero(diff)
        assert len(changed[0]) == 1
        assert diff[changed][0] == pytest.approx(2.5)


def test_tamper_probability_zero_is_honest():
    rng = make_rng(2)
    honest = rng.standard_normal((3, 3))
    out = apply_adversary(WorkerMode("tamper", 0.0, 9.0), honest, rng, {})
    assert np.array_equal(out, honest)


def test_tamper_rate_tracks_probability():
    rng = make_rng(3)
    mode = WorkerMode("tamper", 0.3, 1.0)
    hits = 0
    for _ in range(2000):
        honest = np.ones((2, 2))
        out = apply_adversary(mode, honest, rng, {})
        hits += not np.array_equal(out, np.ones((2, 2)))
    assert abs(hits / 2000 - 0.3) < 0.04


def test_lazy_returns_zeros_then_stale():
    rng = make_rng(4)
    mode = WorkerMode("lazy", 1.0)
    history = {}
    first = apply_adversary(mode, np.full((2, 3), 7.0), rng, history)
    assert np.array_equal(first, np.zeros((2, 3)))
    second = apply_adversary(mode, np.full((2, 3), 9.0), rng, history)
    assert np.array_equal(second, np.full((2, 3), 7.0))  # replays the last honest product
    third = apply_adversary(mode, np.full((2, 3), 5.0), rng, history)
    assert np.array_equal(third, np.full((2, 3), 9.0))
    other_shape = apply_adversary(mode, np.full((3, 2), 1.0), rng, history)
    assert np.array_equal(other_shape, np.zeros((3, 2)))


def test_honest_history_feeds_lazy():
    rng = make_rng(5)
    history = {}
    real = np.arange(6.0).reshape(2, 3)
    apply_adversary(WorkerMode.honest(), real, rng, history)
    stale = apply_adversary(WorkerMode("lazy", 1.0), np.full((2, 3), -1.0), rng, history)
    assert np.array_equal(stale, real)


# -- session ---------------------------------------------------------------

def test_session_tags_are_sequential():
    s = honest_session()
    replies = [s.handle(Hello()), s.handle(Config(2))]
    assert [r.request_tag for r in replies] == [0, 1]
    assert all(isinstance(r, Result) and r.matrices == () for r in replies)


def test_forward_product_matches_numpy():
    s = honest_session()
    rng = make_rng(6)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 5))
    reply = s.handle(StorePair(0, 0, a, b))
    assert isinstance(reply, Result)
    assert np.max(np.abs(reply.matrices[0] - a @ b)) < 1e-12


def test_backward_products_match_numpy():
    s = honest_session()
    rng = make_rng(7)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 5))
    d = rng.standard_normal((5, 3))
    s.handle(StorePair(1, 2, a, b))
    reply = s.handle(MultBwd(1, 2, d))
    assert len(reply.matrices) == 2
    assert np.max(np.abs(reply.matrices[0] - b @ d)) < 1e-12
    assert np.max(np.abs(reply.matrices[1] - d @ a)) < 1e-12


def test_store_rejects_mismatched_pair():
    s = honest_session()
    reply = s.handle(StorePair(0, 0, np.ones((2, 3)), np.ones((4, 2))))
    assert isinstance(reply, Error) and reply.code == ERR_SHAPE


def test_forward_without_store_is_cache_miss():
    # a forward request whose operands do not chain is refused and stores
    # nothing, so the slot stays empty for the backward request
    s = honest_session()
    fwd = s.handle(StorePair(0, 0, np.ones((2, 3)), np.ones((2, 4))))
    assert isinstance(fwd, Error) and fwd.code == ERR_SHAPE
    reply = s.handle(MultBwd(0, 0, np.ones((4, 2))))
    assert isinstance(reply, Error) and reply.code == ERR_CACHE_MISS
    assert "layer 0" in reply.text


def test_backward_without_store_is_cache_miss():
    s = honest_session()
    reply = s.handle(MultBwd(4, 1, np.ones((2, 2))))
    assert isinstance(reply, Error) and reply.code == ERR_CACHE_MISS
    assert "layer 4 shard 1" in reply.text


def test_backward_rejects_wrong_delta_shape():
    s = honest_session()
    s.handle(StorePair(0, 0, np.ones((2, 3)), np.ones((3, 4))))
    reply = s.handle(MultBwd(0, 0, np.ones((2, 4))))
    assert isinstance(reply, Error) and reply.code == ERR_SHAPE


def test_store_reply_is_the_product_and_backward_uses_the_latest_pair():
    s = honest_session()
    rng = make_rng(10)
    d = rng.standard_normal((5, 3))
    for tag in (0, 1):  # the second store replaces the first in the slot
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 5))
        fwd = s.handle(StorePair(0, 0, a, b))
        assert fwd.request_tag == tag
        assert fwd.matrices[0].tobytes() == (a @ b).tobytes()
    bwd = s.handle(MultBwd(0, 0, d))
    assert bwd.matrices[0].tobytes() == (b @ d).tobytes()
    assert bwd.matrices[1].tobytes() == (d @ a).tobytes()


def test_store_that_does_not_chain_keeps_the_slots_pair():
    s = honest_session()
    a, b = np.full((2, 3), 2.0), np.ones((3, 4))
    s.handle(StorePair(0, 0, a, b))
    reply = s.handle(StorePair(0, 0, np.ones((2, 3)), np.ones((2, 4))))
    assert isinstance(reply, Error) and reply.code == ERR_SHAPE
    d = np.ones((4, 2))
    bwd = s.handle(MultBwd(0, 0, d))
    assert np.array_equal(bwd.matrices[0], b @ d)
    assert np.array_equal(bwd.matrices[1], d @ a)


def test_slots_are_independent():
    s = honest_session()
    a0, a1 = np.ones((2, 2)), np.full((2, 2), 2.0)
    s.handle(StorePair(0, 0, a0, np.ones((2, 2))))
    s.handle(StorePair(0, 1, a1, np.ones((2, 2))))
    d = np.eye(2)
    # each slot's backward products use its own pair
    assert np.array_equal(s.handle(MultBwd(0, 1, d)).matrices[1], a1)
    assert np.array_equal(s.handle(MultBwd(0, 0, d)).matrices[1], a0)
    assert isinstance(s.handle(MultBwd(1, 0, d)), Error)


def test_retired_mult_fwd_type_is_unknown():
    # 0x11 was MULT_FWD, with a layer and a shard u32, before STORE_PAIR
    # was answered by its product
    frame = HEADER.pack(MAGIC, VERSION, 0x11, 8) + struct.pack("<II", 0, 0)
    with pytest.raises(UnknownMessageType):
        decode(frame)
    with spawn_local_workers(1) as addresses:
        with socket.create_connection(addresses[0], timeout=5) as sock:
            sock.sendall(frame)
            reply = read_message(sock)
            assert isinstance(reply, Error) and reply.code == ERR_UNSUPPORTED
            assert "0x11" in reply.text


def test_unexpected_message_type_is_rejected():
    s = honest_session()
    reply = s.handle(Result(0, ()))
    assert isinstance(reply, Error) and reply.code == ERR_UNSUPPORTED


def test_tampering_session_corrupts_forward_product():
    s = WorkerSession(WorkerMode("tamper", 1.0, 5.0), make_rng(8))
    a, b = np.eye(3), np.eye(3)
    reply = s.handle(StorePair(0, 0, a, b))
    diff = reply.matrices[0] - np.eye(3)
    assert np.count_nonzero(diff) == 1


# -- server ----------------------------------------------------------------

def test_server_roundtrip_over_tcp():
    with spawn_local_workers(1) as addresses:
        sock = socket.create_connection(addresses[0], timeout=5)
        try:
            rng = make_rng(9)
            a = rng.standard_normal((2, 3))
            b = rng.standard_normal((3, 2))
            for msg in (Hello(), Config(1), StorePair(0, 0, a, b)):
                send_message(sock, msg)
            tags = []
            for _ in range(2):
                reply = read_message(sock)
                tags.append(reply.request_tag)
                assert reply.matrices == ()
            product = read_message(sock)
            assert tags == [0, 1] and product.request_tag == 2
            assert np.max(np.abs(product.matrices[0] - a @ b)) < 1e-12
        finally:
            sock.close()


def test_server_reports_protocol_garbage_then_closes():
    with spawn_local_workers(1) as addresses:
        sock = socket.create_connection(addresses[0], timeout=5)
        try:
            sock.sendall(b"GARBAGEGARBAGE")  # header-sized, so the close is clean
            reply = read_message(sock)
            assert isinstance(reply, Error) and reply.code == ERR_UNSUPPORTED
            assert sock.recv(1) == b""  # server hung up
        finally:
            sock.close()


def test_accepted_connections_disable_nagle():
    seen = queue.Queue()

    class Recording(WorkerServer):
        def _serve(self, conn, rng):
            seen.put(conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))
            super()._serve(conn, rng)

    server = Recording().start()
    try:
        with socket.create_connection(server.address, timeout=5):
            assert seen.get(timeout=5) != 0
    finally:
        server.stop()


def test_each_connection_gets_a_fresh_session():
    with spawn_local_workers(1) as addresses:
        first = socket.create_connection(addresses[0], timeout=5)
        second = socket.create_connection(addresses[0], timeout=5)
        try:
            send_message(first, StorePair(0, 0, np.ones((2, 2)), np.ones((2, 2))))
            assert isinstance(read_message(first), Result)
            # the other connection cannot see that stored pair
            send_message(second, MultBwd(0, 0, np.ones((2, 2))))
            reply = read_message(second)
            assert isinstance(reply, Error) and reply.code == ERR_CACHE_MISS
        finally:
            first.close()
            second.close()


def test_finished_connections_are_not_kept_listed():
    """However many connections a worker has served, it lists only the
    live ones and the one it accepted last."""
    server = WorkerServer().start()
    try:
        for _ in range(50):
            with socket.create_connection(server.address, timeout=5) as sock:
                send_message(sock, Hello())
                assert isinstance(read_message(sock), Result)  # served, so listed
            for t in list(server._threads):
                t.join(timeout=5)
                assert not t.is_alive()
        assert len(server._threads) == 1
    finally:
        server.stop()


def test_spawn_local_workers_distinct_addresses():
    with spawn_local_workers(3) as addresses:
        assert len(set(addresses)) == 3


def test_stop_ends_an_accept_already_waiting_and_refuses_new_connections():
    server = WorkerServer().start()
    with socket.create_connection(server.address, timeout=5) as sock:
        send_message(sock, Hello())
        assert isinstance(read_message(sock), Result)  # the accept loop has run
    time.sleep(0.1)  # and waits in accept() again
    server.stop()
    server._accept_thread.join(timeout=2)
    assert not server._accept_thread.is_alive()
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(server.address, timeout=2).close()


def test_spawn_local_workers_stops_the_servers_it_started_when_a_later_one_fails(monkeypatch):
    started = []
    start = WorkerServer.start

    def start_once(server):
        if started:
            raise OSError("second worker cannot start")
        started.append(server)
        return start(server)

    monkeypatch.setattr(WorkerServer, "start", start_once)
    with pytest.raises(OSError, match="second worker cannot start"):
        with spawn_local_workers(3):
            pass
    [first] = started
    first._accept_thread.join(timeout=2)
    assert not first._accept_thread.is_alive()
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(first.address, timeout=2).close()
