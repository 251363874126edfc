import hashlib
import os
import queue
import socket
import struct
import subprocess
import sys
import time
from pathlib import Path

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
    MsgType,
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
    """A delta in the shape of the pair's product is answered with
    d @ B'^T (A's shape) and A'^T @ d (B's shape), to the bit."""
    s = honest_session()
    rng = make_rng(7)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 5))
    d = rng.standard_normal((3, 5))
    s.handle(StorePair(1, 2, a, b))
    reply = s.handle(MultBwd(1, 2, d))
    assert len(reply.matrices) == 2
    assert reply.matrices[0].tobytes() == (d @ b.T).tobytes()
    assert reply.matrices[1].tobytes() == (a.T @ d).tobytes()


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
    reply = s.handle(MultBwd(0, 0, np.ones((2, 4))))
    assert isinstance(reply, Error) and reply.code == ERR_CACHE_MISS
    assert "layer 0" in reply.text


def test_backward_without_store_is_cache_miss():
    s = honest_session()
    reply = s.handle(MultBwd(4, 1, np.ones((2, 2))))
    assert isinstance(reply, Error) and reply.code == ERR_CACHE_MISS
    assert "layer 4 shard 1" in reply.text


def test_backward_rejects_wrong_delta_shape():
    """Only the (2, 4) shape of the stored pair's product is served: the
    transposed shape version 2 sent, and any other, is ERROR 1."""
    s = honest_session()
    s.handle(StorePair(0, 0, np.ones((2, 3)), np.ones((3, 4))))
    for shape in [(4, 2), (2, 3), (3, 4), (2, 5)]:
        reply = s.handle(MultBwd(0, 0, np.ones(shape)))
        assert isinstance(reply, Error) and reply.code == ERR_SHAPE == 1
    assert isinstance(s.handle(MultBwd(0, 0, np.ones((2, 4)))), Result)


def test_store_reply_is_the_product_and_backward_uses_the_latest_pair():
    s = honest_session()
    rng = make_rng(10)
    d = rng.standard_normal((3, 5))
    for tag in (0, 1):  # the second store replaces the first in the slot
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 5))
        fwd = s.handle(StorePair(0, 0, a, b))
        assert fwd.request_tag == tag
        assert fwd.matrices[0].tobytes() == (a @ b).tobytes()
    bwd = s.handle(MultBwd(0, 0, d))
    assert bwd.matrices[0].tobytes() == (d @ b.T).tobytes()
    assert bwd.matrices[1].tobytes() == (a.T @ d).tobytes()


def test_store_that_does_not_chain_keeps_the_slots_pair():
    s = honest_session()
    a, b = np.full((2, 3), 2.0), np.ones((3, 4))
    s.handle(StorePair(0, 0, a, b))
    reply = s.handle(StorePair(0, 0, np.ones((2, 3)), np.ones((2, 4))))
    assert isinstance(reply, Error) and reply.code == ERR_SHAPE
    d = np.ones((2, 4))
    bwd = s.handle(MultBwd(0, 0, d))
    assert np.array_equal(bwd.matrices[0], d @ b.T)
    assert np.array_equal(bwd.matrices[1], a.T @ d)


def test_slots_are_independent():
    s = honest_session()
    a0, a1 = np.ones((2, 2)), np.arange(4.0).reshape(2, 2)
    s.handle(StorePair(0, 0, a0, np.ones((2, 2))))
    s.handle(StorePair(0, 1, a1, np.ones((2, 2))))
    d = np.eye(2)
    # each slot's backward products use its own pair
    assert np.array_equal(s.handle(MultBwd(0, 1, d)).matrices[1], a1.T)
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
    """Every frame the worker cannot decode gets ERROR 4, then a close.
    Each garbage is a whole frame or header, so the close is clean."""
    garbage = [b"GARBAGEGARBAGE",  # header-sized, bad magic
               HEADER.pack(MAGIC, VERSION, MsgType.ERROR, 4) + b"\x02\x00\xff\xfe"]  # not UTF-8
    with spawn_local_workers(1) as addresses:
        for frame in garbage:
            sock = socket.create_connection(addresses[0], timeout=5)
            try:
                sock.sendall(frame)
                reply = read_message(sock)
                assert isinstance(reply, Error) and reply.code == ERR_UNSUPPORTED
                assert sock.recv(1) == b""  # server hung up
            finally:
                sock.close()


def test_a_version_two_coordinator_gets_error_4_and_a_hang_up():
    """A coordinator of the wire before MULT_BWD carried delta in the
    forward product's shape is refused at its HELLO: ERROR 4 naming the
    version, then a close, before any operand reaches the worker."""
    with spawn_local_workers(1) as addresses:
        with socket.create_connection(addresses[0], timeout=5) as sock:
            sock.sendall(HEADER.pack(MAGIC, 2, MsgType.HELLO, 0))
            reply = read_message(sock)
            assert isinstance(reply, Error) and reply.code == ERR_UNSUPPORTED == 4
            assert reply.text == "unsupported version 2"
            assert sock.recv(1) == b""  # server hung up


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


# -- adversary draws ---------------------------------------------------------

@pytest.mark.parametrize("kind,digest", [
    ("tamper", "1888fcabadaf6d08a189f91061ee9f5e550a8e817de74cae9e6e2d145ffaa880"),
    ("lazy", "a7209ea74e8efd2d8087551fa8089ad5b31657ae11742f2c0c29e230e3337cdb"),
])
def test_adversary_draws_are_pinned_per_connection(kind, digest):
    """Over two connections to one adversarial worker, which replies are
    corrupted, and where, is the same on every run: each connection
    draws from its own generator, seeded by the worker's seed and the
    connection's index, and the two draw differently."""
    rng = make_rng(40)
    pairs = [(rng.standard_normal((3, 4)), rng.standard_normal((4, 5))) for _ in range(16)]
    corrupted = []
    with spawn_local_workers(1, WorkerMode(kind, 0.5, 1.0), seed=41) as addresses:
        for _ in range(2):
            with socket.create_connection(addresses[0], timeout=5) as sock:
                hits = []
                for i, (a, b) in enumerate(pairs):
                    send_message(sock, StorePair(0, i, a, b))
                    got = read_message(sock).matrices[0]
                    hits += [(i, *map(int, ij)) for ij in np.argwhere(np.abs(got - a @ b) > 1e-9)]
                corrupted.append(hits)
    assert corrupted[0] and corrupted[0] != corrupted[1]
    assert hashlib.sha256(repr(corrupted).encode()).hexdigest() == digest


# -- start-up ------------------------------------------------------------------

SRC = Path(__file__).parent.parent / "src"


def fresh_interpreter(code, **kw):
    """`code` in a fresh interpreter that imports the package from src/."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    return subprocess.Popen([sys.executable, "-c", code], env=env, text=True, **kw)


def test_importing_the_worker_loads_no_coordinator_module():
    code = ("import sys; from blindtrain import protocol, worker; "
            "print(*sorted(m for m in sys.modules if m.startswith('blindtrain')))")
    with fresh_interpreter(code, stdout=subprocess.PIPE) as proc:
        loaded = proc.communicate(timeout=60)[0].split()
    assert proc.returncode == 0
    assert sorted(loaded) == ["blindtrain", "blindtrain.protocol", "blindtrain.tensor",
                              "blindtrain.worker"]


WORKER_PROCESS = """
import sys
import numpy
preloaded = "numpy.random" in sys.modules  # where numpy itself loads it
from blindtrain import protocol, worker
server = worker.WorkerServer().start()
print(server.address[1], flush=True)
sys.stdin.read()  # serves until the test closes stdin
server.stop()
print(preloaded, "numpy.random" in sys.modules, *sorted(sys.modules))
"""


def test_an_honest_worker_process_serves_a_run_without_drawing_randomness():
    """A worker in its own process serves one training epoch and one
    inference call, and has imported no generator and no module of the
    coordinator.  It needs its own process: this one runs the coordinator."""
    from blindtrain.data import gen_blobs
    from blindtrain.master import WorkerPool, run_inference, run_training
    from blindtrain.nn import Network

    ds = gen_blobs(20, 2, 2, separation=8.0, seed=42)
    net = Network.from_dims([2, 4, 2])
    net.init_weights(43)
    with fresh_interpreter(WORKER_PROCESS, stdin=subprocess.PIPE, stdout=subprocess.PIPE) as proc:
        try:
            port = int(proc.stdout.readline())
            with WorkerPool.connect([("127.0.0.1", port)], n_layers=2) as pool:
                _, stats, _ = run_training(net, ds, pool, learning_rate=0.1,
                                           batch_size=16, epochs=1, seed=44)
                preds = run_inference(net, ds.features, pool, seed=45)
            proc.stdin.close()
            preloaded, drew, *loaded = proc.stdout.read().split()
        finally:
            if proc.poll() is None:
                proc.kill()
    assert proc.wait(timeout=30) == 0
    assert stats.products_offloaded > 0 and stats.failures == 0 and preds.shape == (40,)
    assert drew == preloaded  # serving imported no numpy.random of its own
    coordinator = {"blindtrain.master", "blindtrain.obfuscate", "blindtrain.nn", "blindtrain.data"}
    assert not coordinator & set(loaded)
