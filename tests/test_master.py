import socket

import numpy as np
import pytest

from blindtrain.data import gen_blobs
from blindtrain.master import (
    EncryptedExecutor,
    EpochKeys,
    LayerPlan,
    PartitionPlan,
    WorkerFault,
    WorkerConnection,
    WorkerPool,
    plan_partition,
    run_inference,
    run_training,
)
from blindtrain.nn import LocalExecutor, Network, TrainConfig, train
from blindtrain.obfuscate import IntegrityFailure, KeySpaceConfig
from blindtrain.protocol import (
    HEADER,
    MAGIC,
    MAX_PAYLOAD,
    VERSION,
    Error,
    MsgType,
    MultFwd,
    Result,
    send_message,
)
from blindtrain.tensor import make_rng
from blindtrain.worker import WorkerMode, WorkerServer, WorkerSession, spawn_local_workers


def make_net(dims=(3, 5, 4, 2), policies=None, seed=11):
    net = Network.from_dims(list(dims), policies)
    net.init_weights(seed)
    return net


def pool_for(addresses, net, **kw):
    return WorkerPool.connect(addresses, n_layers=len(net.linears), **kw)


def offload_executor(pool, net, **kw):
    kw.setdefault("rounds", 6)
    plan = kw.pop("plan", None) or plan_partition(net, pool.size)
    return EncryptedExecutor(pool, plan, **kw)


# -- partitioning ----------------------------------------------------------

def test_plan_clips_row_splits_to_output_dim():
    net = make_net((3, 3, 2))  # second layer has only 2 output rows
    plan = plan_partition(net, 4)
    assert plan[0].shards == 3
    assert plan[1].shards == 2


def test_plan_respects_policies():
    net = make_net((3, 4, 2), policies=["data", "master"])
    plan = plan_partition(net, 3)
    assert plan[0] == LayerPlan("data", 3)
    assert plan[1] == LayerPlan("master", 1)
    with pytest.raises(ValueError):
        plan_partition(net, 0)
    with pytest.raises(ValueError):
        LayerPlan("tensor", 0)


# -- key store -------------------------------------------------------------

def test_epoch_keys_stable_within_epoch():
    keys = EpochKeys(5, KeySpaceConfig())
    assert keys.get(0, 0, 4, 3, 2) is keys.get(0, 0, 4, 3, 2)


def test_epoch_keys_differ_across_shards_layers_epochs():
    keys = EpochKeys(5, KeySpaceConfig())
    base = keys.get(0, 0, 4, 3, 2)
    assert keys.get(0, 1, 4, 3, 2).slots[0].coeffs.tobytes() != base.slots[0].coeffs.tobytes() or \
        not np.array_equal(keys.get(0, 1, 4, 3, 2).slots[0].perm, base.slots[0].perm)
    assert keys.get(1, 0, 4, 3, 2) is not base
    before = base.slots[0].coeffs.copy()
    keys.refresh(1)
    after = keys.get(0, 0, 4, 3, 2)
    assert after.slots[0].coeffs.tobytes() != before.tobytes() or \
        not np.array_equal(after.slots[0].perm, base.slots[0].perm)


def test_epoch_keys_reproducible_regardless_of_request_order():
    a = EpochKeys(9, KeySpaceConfig())
    b = EpochKeys(9, KeySpaceConfig())
    a.get(0, 0, 4, 3, 2)
    ka = a.get(1, 1, 5, 4, 3)
    kb = b.get(1, 1, 5, 4, 3)  # first request on this store
    assert all(
        sa.coeffs.tobytes() == sb.coeffs.tobytes() and np.array_equal(sa.perm, sb.perm)
        for sa, sb in zip(ka.slots, kb.slots)
    )


# -- offloaded products match local ones -----------------------------------

@pytest.mark.parametrize("n_workers,policies", [
    (1, None),
    (2, None),
    (2, ["data", "data", "data"]),
    (2, ["tensor", "data", "master"]),
])
def test_offloaded_forward_backward_match_plain_numpy(n_workers, policies):
    rng = make_rng(21)
    net = make_net((3, 5, 4, 2), policies)
    x = rng.standard_normal((3, 6))
    deltas = [rng.standard_normal((lin.out_dim, 6)) for lin in net.linears]
    with spawn_local_workers(n_workers) as addresses:
        with pool_for(addresses, net) as pool:
            ex = offload_executor(pool, net, seed=3)
            for lin in net.linears:
                inp = rng.standard_normal((lin.in_dim, 6))
                z = ex.multiply_forward(lin.layer_id, lin.W, inp)
                assert np.max(np.abs(z - lin.W @ inp)) < 1e-9
                t1, t2 = ex.multiply_backward(lin.layer_id, deltas[lin.layer_id])
                assert np.max(np.abs(t1 - inp @ deltas[lin.layer_id].T)) < 1e-9
                assert np.max(np.abs(t2 - deltas[lin.layer_id].T @ lin.W)) < 1e-9


def test_data_split_clipped_by_batch_width():
    net = make_net((3, 4, 2), policies=["data", "data"])
    with spawn_local_workers(3) as addresses:
        with pool_for(addresses, net) as pool:
            ex = offload_executor(pool, net, seed=1)
            x = make_rng(0).standard_normal((3, 2))  # 2 columns, 3 workers
            z = ex.multiply_forward(0, net.linears[0].W, x)
            assert np.max(np.abs(z - net.linears[0].W @ x)) < 1e-9
            ex.multiply_backward(0, np.zeros((4, 2)))


def test_master_policy_stays_local():
    net = make_net((3, 4, 2), policies=["master", "master"])
    with spawn_local_workers(1) as addresses:
        with pool_for(addresses, net) as pool:
            ex = offload_executor(pool, net, seed=0)
            x = make_rng(1).standard_normal((3, 5))
            z = ex.multiply_forward(0, net.linears[0].W, x)
            assert np.max(np.abs(z - net.linears[0].W @ x)) < 1e-12
            ex.multiply_backward(0, np.ones((4, 5)))
            empty = ex.stats.as_dict()
            assert all(v == 0 for v in empty.values())


def test_backward_without_forward_raises():
    net = make_net()
    with spawn_local_workers(1) as addresses:
        with pool_for(addresses, net) as pool:
            ex = offload_executor(pool, net)
            with pytest.raises(RuntimeError):
                ex.multiply_backward(0, np.ones((5, 2)))


# -- counters --------------------------------------------------------------

def test_forward_and_reuse_backward_counter_deltas():
    net = make_net((3, 4, 2))
    x = make_rng(2).standard_normal((3, 6))
    with spawn_local_workers(2) as addresses:
        with pool_for(addresses, net) as pool:
            ex = offload_executor(pool, net, rounds=4, seed=5)
            ex.multiply_forward(0, net.linears[0].W, x)
            s = ex.stats
            # 2 shards: weight + batch blinded per shard, one product each
            assert s.matrices_encrypted == 4
            assert s.products_offloaded == 2
            assert s.matrices_decrypted == 2
            assert s.verification_rounds == 2 * 4
            ex.multiply_backward(0, np.ones((4, 6)))
            # reuse: one fresh blind per shard, two products, two decrypts
            assert s.matrices_encrypted == 4 + 2
            assert s.products_offloaded == 2 + 4
            assert s.matrices_decrypted == 2 + 4
            assert s.verification_rounds == (2 + 4) * 4
            assert s.failures == 0


def test_naive_backward_counts_four_encryptions_per_shard():
    net = make_net((3, 4, 2))
    x = make_rng(3).standard_normal((3, 6))
    delta = make_rng(4).standard_normal((4, 6))
    with spawn_local_workers(2) as addresses:
        with pool_for(addresses, net) as pool:
            ex = offload_executor(pool, net, rounds=4, seed=5, reuse_backward=False)
            ex.multiply_forward(0, net.linears[0].W, x)
            t1, t2 = ex.multiply_backward(0, delta)
            assert np.max(np.abs(t1 - x @ delta.T)) < 1e-9
            assert np.max(np.abs(t2 - delta.T @ net.linears[0].W)) < 1e-9
            assert ex.stats.matrices_encrypted == 4 + 8  # 4 per shard backward
            assert ex.stats.products_offloaded == 2 + 4


def test_training_counter_totals():
    ds = gen_blobs(20, 2, 2, separation=8.0, seed=5)  # 40 samples
    net = make_net((2, 4, 2), seed=6)
    with spawn_local_workers(2) as addresses:
        with pool_for(addresses, net) as pool:
            _, stats, report = run_training(
                net, ds, pool, learning_rate=0.1, batch_size=16, epochs=2, seed=6)
    batches = 3  # ceil(40 / 16)
    shard_tasks = sum(min(2, lin.out_dim) for lin in net.linears)  # per batch
    assert stats.matrices_encrypted == 3 * shard_tasks * batches * 2
    assert stats.products_offloaded == 3 * shard_tasks * batches * 2
    assert stats.matrices_decrypted == 3 * shard_tasks * batches * 2
    assert stats.failures == 0
    assert report["stats"] == stats.as_dict()
    assert len(report["epochs"]) == 2


# -- equivalence with local training ---------------------------------------

def run_offloaded(ds, addresses, *, policies=None, pipelined=False,
                  reuse_backward=True, epochs=3):
    net = make_net((2, 6, 2), policies=policies, seed=8)
    with pool_for(addresses, net) as pool:
        _, stats, report = run_training(
            net, ds, pool, learning_rate=0.1, batch_size=10, epochs=epochs,
            seed=8, pipelined=pipelined, reuse_backward=reuse_backward)
    return net, stats, report


def test_offloaded_training_matches_local():
    ds = gen_blobs(15, 2, 2, separation=8.0, seed=7)
    local = make_net((2, 6, 2), seed=8)
    train(local, ds, TrainConfig(0.1, 10, 3, seed=8), LocalExecutor())
    with spawn_local_workers(2) as addresses:
        remote, _, _ = run_offloaded(ds, addresses)
    for a, b in zip(local.linears, remote.linears):
        assert np.max(np.abs(a.W - b.W)) < 1e-6
        assert np.max(np.abs(a.b - b.b)) < 1e-6


def test_pipelined_run_is_bitwise_identical():
    ds = gen_blobs(15, 2, 2, separation=8.0, seed=7)
    with spawn_local_workers(2) as addresses:
        plain, stats_plain, _ = run_offloaded(ds, addresses, pipelined=False)
        piped, stats_piped, _ = run_offloaded(ds, addresses, pipelined=True)
    for a, b in zip(plain.linears, piped.linears):
        assert a.W.tobytes() == b.W.tobytes()
        assert a.b.tobytes() == b.b.tobytes()
    assert stats_plain.matrices_encrypted == stats_piped.matrices_encrypted


def test_naive_backward_same_numerics():
    ds = gen_blobs(15, 2, 2, separation=8.0, seed=7)
    with spawn_local_workers(2) as addresses:
        reuse, stats_reuse, _ = run_offloaded(ds, addresses)
        naive, stats_naive, _ = run_offloaded(ds, addresses, reuse_backward=False)
    for a, b in zip(reuse.linears, naive.linears):
        assert np.max(np.abs(a.W - b.W)) < 1e-6
    assert stats_naive.matrices_encrypted > stats_reuse.matrices_encrypted
    assert stats_naive.products_offloaded == stats_reuse.products_offloaded


def test_mixed_policies_train_fine():
    ds = gen_blobs(15, 2, 2, separation=8.0, seed=9)
    with spawn_local_workers(2) as addresses:
        net, stats, report = run_offloaded(ds, addresses,
                                           policies=["data", "master"], epochs=2)
    assert report["accuracy"] >= 0.9
    assert stats.failures == 0


# -- adversaries -----------------------------------------------------------

def test_tampering_worker_always_detected():
    rng = make_rng(31)
    detected = 0
    trials = 60
    with spawn_local_workers(1, WorkerMode.tamper(1.0, magnitude=1.0), seed=2) as addresses:
        for trial in range(trials):
            net = make_net((2, 3, 2), seed=trial)
            with pool_for(addresses, net) as pool:
                ex = offload_executor(pool, net, rounds=20, seed=trial)
                x = rng.standard_normal((2, 4))
                try:
                    ex.multiply_forward(0, net.linears[0].W, x)
                except IntegrityFailure:
                    detected += 1
                    assert ex.stats.failures == 1
    assert detected == trials  # 20 rounds: escape odds below 1e-6


def test_lazy_worker_detected_during_training():
    ds = gen_blobs(10, 2, 2, separation=8.0, seed=3)
    net = make_net((2, 4, 2), seed=3)
    with spawn_local_workers(1, WorkerMode.lazy(1.0), seed=0) as addresses:
        with pool_for(addresses, net) as pool:
            with pytest.raises(IntegrityFailure):
                run_training(net, ds, pool, learning_rate=0.1, batch_size=10,
                             epochs=1, seed=3)


def test_aborted_step_leaves_weights_untouched():
    ds = gen_blobs(10, 2, 2, separation=8.0, seed=3)
    net = make_net((2, 4, 2), seed=3)
    before = [lin.W.copy() for lin in net.linears]
    with spawn_local_workers(1, WorkerMode.tamper(1.0, 2.0), seed=1) as addresses:
        with pool_for(addresses, net) as pool:
            with pytest.raises(IntegrityFailure):
                run_training(net, ds, pool, learning_rate=0.1, batch_size=10,
                             epochs=1, seed=3)
    for lin, w in zip(net.linears, before):
        assert np.array_equal(lin.W, w)


def test_honest_workers_never_trip_probes():
    ds = gen_blobs(15, 2, 2, separation=8.0, seed=4)
    net = make_net((2, 5, 2), seed=4)
    with spawn_local_workers(2) as addresses:
        with pool_for(addresses, net) as pool:
            _, stats, _ = run_training(net, ds, pool, learning_rate=0.1,
                                       batch_size=10, epochs=4, seed=4)
    assert stats.failures == 0


def test_worker_error_frame_raises_worker_fault():
    net = make_net((3, 4, 2))
    with spawn_local_workers(1) as addresses:
        with pool_for(addresses, net) as pool:
            from blindtrain.protocol import MultFwd
            with pytest.raises(WorkerFault):
                pool.conn(0).call(MultFwd(9, 9), ((4, 1),))  # nothing stored there


class PoisonSession(WorkerSession):
    """Answers every product request with NaN in place of the product."""

    def _emit(self, honest):
        return np.full_like(honest, np.nan)


class MisshapenSession(WorkerSession):
    """Answers every product request with one row too many."""

    def _emit(self, honest):
        return np.vstack([honest, honest[:1]])


def serving(session_class):
    return type("Server", (WorkerServer,), {"session_class": session_class})().start()


def test_nan_returning_worker_aborts_training_weights_unchanged():
    ds = gen_blobs(10, 2, 2, separation=8.0, seed=3)
    net = make_net((2, 4, 2), seed=3)
    before = [(lin.W.copy(), lin.b.copy()) for lin in net.linears]
    server = serving(PoisonSession)
    try:
        with pool_for([server.address], net) as pool:
            with pytest.raises(IntegrityFailure):
                run_training(net, ds, pool, learning_rate=0.1, batch_size=10,
                             epochs=1, seed=3)
    finally:
        server.stop()
    for lin, (w, b) in zip(net.linears, before):
        assert np.array_equal(lin.W, w) and np.array_equal(lin.b, b)


def test_wrong_shape_result_is_a_worker_fault():
    ds = gen_blobs(10, 2, 2, separation=8.0, seed=3)
    net = make_net((2, 4, 2), seed=3)
    server = serving(MisshapenSession)
    try:
        with pool_for([server.address], net) as pool:
            with pytest.raises(WorkerFault, match="shapes"):
                run_training(net, ds, pool, learning_rate=0.1, batch_size=10,
                             epochs=1, seed=3)
    finally:
        server.stop()


def raw_peer():
    """A WorkerConnection and the raw socket playing its worker."""
    left, right = socket.socketpair()
    left.settimeout(5)
    right.settimeout(5)
    return WorkerConnection(left), right


def test_oversized_reply_refused_before_its_body_is_read():
    conn, peer = raw_peer()
    try:
        tag = conn.request(MultFwd(0, 0))
        # the header claims a 1 GiB reply, and no body follows: a reader
        # that trusted it would allocate the lot and then wait forever
        peer.sendall(HEADER.pack(MAGIC, VERSION, MsgType.RESULT, MAX_PAYLOAD))
        with pytest.raises(WorkerFault, match="exceeds the cap"):
            conn.collect(tag, ((2, 3),))
    finally:
        conn.close()
        peer.close()


def test_raw_peer_wrong_shape_and_error_frames():
    conn, peer = raw_peer()
    try:
        tags = [conn.request(MultFwd(0, 0)) for _ in range(4)]
        send_message(peer, Result(tags[0], (np.ones((3, 3)),)))
        with pytest.raises(WorkerFault, match="shapes"):
            conn.collect(tags[0], ((2, 3),))
        send_message(peer, Error(2, "x" * 1000))  # an error frame fits the cap
        with pytest.raises(WorkerFault, match="worker error 2"):
            conn.collect(tags[1], ((2, 3),))
        peer.sendall(HEADER.pack(MAGIC, VERSION, MsgType.ERROR, 4) + b"\x02\x00\xff\xfe")
        with pytest.raises(WorkerFault, match="bad reply"):  # text is not UTF-8
            conn.collect(tags[2], ((2, 3),))
        send_message(peer, Result(tags[3], (np.ones((2, 3)),)))
        assert conn.collect(tags[3], ((2, 3),)).matrices[0].shape == (2, 3)
    finally:
        conn.close()
        peer.close()


def test_unreachable_worker_names_address():
    import socket
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        dead = probe.getsockname()
    with pytest.raises(ConnectionError, match=f"{dead[0]}:{dead[1]}"):
        WorkerPool.connect([dead], n_layers=1)


def test_failed_connect_closes_earlier_connections():
    import socket
    import time
    from blindtrain.worker import WorkerServer

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        dead = probe.getsockname()
    server = WorkerServer().start()
    try:
        with pytest.raises(ConnectionError):
            WorkerPool.connect([server.address, dead], n_layers=1)
        # the live connection was greeted, then must be torn down again
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(
                t.is_alive() for t in server._threads):
            time.sleep(0.02)
        assert server._threads, "live worker never saw a connection"
        assert not any(t.is_alive() for t in server._threads)
    finally:
        server.stop()


# -- secrecy ---------------------------------------------------------------

def test_wire_traffic_never_carries_plaintext_operands():
    seen = []
    ds = gen_blobs(10, 2, 2, separation=8.0, seed=6)
    net = make_net((2, 4, 2), seed=6)
    plain_snapshots = []

    class Recorder(EncryptedExecutor):
        def multiply_forward(self, lid, w, x):
            plain_snapshots.append((w.copy(), x.copy()))
            return super().multiply_forward(lid, w, x)

    with spawn_local_workers(1) as addresses:
        with pool_for(addresses, net, tap=lambda m: seen.append(m)) as pool:
            ex = Recorder(pool, plan_partition(net, pool.size), rounds=5, seed=6)
            train(net, ds, TrainConfig(0.1, 10, 1, seed=6), ex)

    wire_mats = []
    for msg in seen:
        for name in ("a_enc", "b_enc", "d_enc"):
            mat = getattr(msg, name, None)
            if mat is not None:
                wire_mats.append(mat)
    assert wire_mats, "expected blinded operands on the wire"
    for mat in wire_mats:
        for w, x in plain_snapshots:
            for plain in (w, x):
                if mat.shape == plain.shape:
                    assert not np.allclose(mat, plain)
                if mat.shape == plain.T.shape:
                    assert not np.allclose(mat, plain.T)


# -- inference -------------------------------------------------------------

def test_run_inference_matches_local_predict():
    ds = gen_blobs(30, 2, 2, separation=8.0, seed=10)
    net = make_net((2, 6, 2), seed=10)
    train(net, ds, TrainConfig(0.1, 12, 4, seed=10), LocalExecutor())
    from blindtrain.nn import predict
    with spawn_local_workers(2) as addresses:
        with pool_for(addresses, net, mode=0) as pool:
            got = run_inference(net, ds.features, pool, seed=10)
    assert np.array_equal(got, predict(net, ds.features))


def test_run_inference_aborts_on_tampering():
    net = make_net((2, 4, 2), seed=1)
    x = make_rng(12).standard_normal((2, 8))
    with spawn_local_workers(1, WorkerMode.tamper(1.0, 3.0), seed=5) as addresses:
        with pool_for(addresses, net, mode=0) as pool:
            with pytest.raises(IntegrityFailure):
                run_inference(net, x, pool, seed=2)
