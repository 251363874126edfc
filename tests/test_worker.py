import queue
import socket

import numpy as np
import pytest

from blindtrain.protocol import (
    ERR_BAD_ORDER,
    ERR_CACHE_MISS,
    ERR_SHAPE,
    ERR_UNSUPPORTED,
    Config,
    Error,
    Hello,
    MultBwd,
    MultFwd,
    Result,
    StorePair,
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
    assert WorkerMode.tamper(0.25, 3.0) == WorkerMode("tamper", 0.25, 3.0)
    assert WorkerMode.lazy(1.0).probability == 1.0


def test_tamper_changes_exactly_one_entry():
    rng = make_rng(1)
    mode = WorkerMode.tamper(1.0, magnitude=2.5)
    for _ in range(50):
        honest = rng.standard_normal((4, 6))
        out = apply_adversary(mode, honest.copy(), rng)
        diff = out - honest
        changed = np.nonzero(diff)
        assert len(changed[0]) == 1
        assert diff[changed][0] == pytest.approx(2.5)


def test_tamper_probability_zero_is_honest():
    rng = make_rng(2)
    honest = rng.standard_normal((3, 3))
    out = apply_adversary(WorkerMode.tamper(0.0, 9.0), honest, rng)
    assert np.array_equal(out, honest)


def test_tamper_rate_tracks_probability():
    rng = make_rng(3)
    mode = WorkerMode.tamper(0.3, 1.0)
    hits = 0
    for _ in range(2000):
        honest = np.ones((2, 2))
        out = apply_adversary(mode, honest, rng)
        hits += not np.array_equal(out, np.ones((2, 2)))
    assert abs(hits / 2000 - 0.3) < 0.04


def test_lazy_returns_zeros_then_stale():
    rng = make_rng(4)
    mode = WorkerMode.lazy(1.0)
    history = {}
    first = apply_adversary(mode, np.full((2, 3), 7.0), rng, history)
    assert np.array_equal(first, np.zeros((2, 3)))
    second = apply_adversary(mode, np.full((2, 3), 9.0), rng, history)
    assert np.array_equal(second, first)  # replays what it last sent
    other_shape = apply_adversary(mode, np.full((3, 2), 1.0), rng, history)
    assert np.array_equal(other_shape, np.zeros((3, 2)))


def test_honest_history_feeds_lazy():
    rng = make_rng(5)
    history = {}
    real = np.arange(6.0).reshape(2, 3)
    apply_adversary(WorkerMode.honest(), real, rng, history)
    stale = apply_adversary(WorkerMode.lazy(1.0), np.full((2, 3), -1.0), rng, history)
    assert np.array_equal(stale, real)


# -- session ---------------------------------------------------------------

def test_session_tags_are_sequential():
    s = honest_session()
    replies = [s.handle(Hello(3)), s.handle(Config(2, 1))]
    assert [r.request_tag for r in replies] == [0, 1]
    assert all(isinstance(r, Result) and r.matrices == () for r in replies)
    assert s.worker_id == 3 and s.n_layers == 2


def test_forward_product_matches_numpy():
    s = honest_session()
    rng = make_rng(6)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 5))
    assert isinstance(s.handle(StorePair(0, 0, a, b)), Result)
    reply = s.handle(MultFwd(0, 0))
    assert isinstance(reply, Result)
    assert np.max(np.abs(reply.matrices[0] - a @ b)) < 1e-12


def test_backward_products_match_numpy():
    s = honest_session()
    rng = make_rng(7)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 5))
    d = rng.standard_normal((5, 3))
    s.handle(StorePair(1, 2, a, b))
    s.handle(MultFwd(1, 2))
    reply = s.handle(MultBwd(1, 2, d))
    assert len(reply.matrices) == 2
    assert np.max(np.abs(reply.matrices[0] - b @ d)) < 1e-12
    assert np.max(np.abs(reply.matrices[1] - d @ a)) < 1e-12


def test_store_rejects_mismatched_pair():
    s = honest_session()
    reply = s.handle(StorePair(0, 0, np.ones((2, 3)), np.ones((4, 2))))
    assert isinstance(reply, Error) and reply.code == ERR_SHAPE


def test_forward_without_store_is_cache_miss():
    s = honest_session()
    reply = s.handle(MultFwd(0, 0))
    assert isinstance(reply, Error) and reply.code == ERR_CACHE_MISS
    assert "layer 0" in reply.text


def test_backward_without_store_is_cache_miss():
    s = honest_session()
    reply = s.handle(MultBwd(4, 1, np.ones((2, 2))))
    assert isinstance(reply, Error) and reply.code == ERR_CACHE_MISS


def test_backward_before_forward_is_order_error():
    s = honest_session()
    s.handle(StorePair(0, 0, np.ones((2, 3)), np.ones((3, 4))))
    reply = s.handle(MultBwd(0, 0, np.ones((4, 2))))
    assert isinstance(reply, Error) and reply.code == ERR_BAD_ORDER


def test_backward_rejects_wrong_delta_shape():
    s = honest_session()
    s.handle(StorePair(0, 0, np.ones((2, 3)), np.ones((3, 4))))
    s.handle(MultFwd(0, 0))
    reply = s.handle(MultBwd(0, 0, np.ones((2, 4))))
    assert isinstance(reply, Error) and reply.code == ERR_SHAPE


def test_store_overwrites_slot_and_resets_order():
    s = honest_session()
    a1, b1 = np.ones((2, 2)), np.ones((2, 2))
    s.handle(StorePair(0, 0, a1, b1))
    s.handle(MultFwd(0, 0))
    a2, b2 = np.full((2, 2), 3.0), np.full((2, 2), 2.0)
    s.handle(StorePair(0, 0, a2, b2))
    # the fresh pair has not been multiplied yet
    reply = s.handle(MultBwd(0, 0, np.ones((2, 2))))
    assert isinstance(reply, Error) and reply.code == ERR_BAD_ORDER
    fwd = s.handle(MultFwd(0, 0))
    assert np.max(np.abs(fwd.matrices[0] - a2 @ b2)) < 1e-12


def test_slots_are_independent():
    s = honest_session()
    s.handle(StorePair(0, 0, np.ones((2, 2)), np.ones((2, 2))))
    s.handle(StorePair(0, 1, np.full((2, 2), 2.0), np.ones((2, 2))))
    s.handle(MultFwd(0, 0))
    # shard 1 still needs its forward pass first
    reply = s.handle(MultBwd(0, 1, np.ones((2, 2))))
    assert isinstance(reply, Error) and reply.code == ERR_BAD_ORDER


def test_unexpected_message_type_is_rejected():
    s = honest_session()
    reply = s.handle(Result(0, ()))
    assert isinstance(reply, Error) and reply.code == ERR_UNSUPPORTED


def test_tampering_session_corrupts_forward_product():
    s = WorkerSession(WorkerMode.tamper(1.0, 5.0), make_rng(8))
    a, b = np.eye(3), np.eye(3)
    s.handle(StorePair(0, 0, a, b))
    reply = s.handle(MultFwd(0, 0))
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
            for msg in (Hello(0), Config(1, 1), StorePair(0, 0, a, b), MultFwd(0, 0)):
                send_message(sock, msg)
            tags = []
            for _ in range(3):
                reply = read_message(sock)
                tags.append(reply.request_tag)
                assert reply.matrices == ()
            product = read_message(sock)
            assert tags == [0, 1, 2] and product.request_tag == 3
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
            send_message(second, MultFwd(0, 0))
            reply = read_message(second)
            assert isinstance(reply, Error) and reply.code == ERR_CACHE_MISS
        finally:
            first.close()
            second.close()


def test_spawn_local_workers_distinct_addresses():
    with spawn_local_workers(3) as addresses:
        assert len(set(addresses)) == 3
