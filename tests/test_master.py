import hashlib
import socket
import struct
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from blindtrain import master, protocol
from blindtrain.data import gen_blobs
from blindtrain.master import (
    EncryptedExecutor,
    EpochKeys,
    WorkerFault,
    WorkerConnection,
    WorkerPool,
    run_inference,
    run_training,
    shard_layout,
)
from blindtrain.nn import LocalExecutor, Network, TrainConfig, train
from blindtrain.obfuscate import (
    IntegrityFailure,
    KeySpaceConfig,
    dec,
    dec_only,
    enc_left,
    enc_right,
    probe_sides,
)
from blindtrain.protocol import (
    HEADER,
    MAGIC,
    MAX_PAYLOAD,
    VERSION,
    Error,
    MsgType,
    MultBwd,
    Result,
    StorePair,
    encode,
    send_message,
)
from blindtrain.tensor import make_rng
from blindtrain.worker import WorkerMode, WorkerServer, WorkerSession, spawn_local_workers


def make_net(dims=(3, 5, 4, 2), policies=None, seed=11):
    net = Network.from_dims(list(dims), policies)
    net.init_weights(seed)
    return net


def pool_for(addresses, net):
    return WorkerPool.connect(addresses, n_layers=len(net.linears))


def offload_executor(pool, net, **kw):
    kw.setdefault("rounds", 6)
    return EncryptedExecutor(pool, net, **kw)


# -- partitioning ----------------------------------------------------------

@pytest.mark.parametrize("p", [2, 6])
def test_executor_cuts_each_layer_by_its_policy_over_the_pool(p, monkeypatch):
    """With 4 workers, a 3-row "tensor" layer is clipped to 3 shards, a
    "data" layer to min(4, p), and a "master" layer sends nothing; the
    backward pass asks every forward shard once."""
    net = make_net((3, 3, 2, 2), policies=["tensor", "data", "master"])
    sent = []
    request = WorkerConnection.request

    def record(conn, msg):
        sent.append((type(msg).__name__, msg.layer_id, msg.shard_id))
        return request(conn, msg)

    rng = make_rng(25)
    with spawn_local_workers(4) as addresses:
        with pool_for(addresses, net) as pool:
            monkeypatch.setattr(WorkerConnection, "request", record)
            ex = offload_executor(pool, net, seed=2)
            for lin in net.linears:
                inp = rng.standard_normal((lin.in_dim, p))
                delta = rng.standard_normal((lin.out_dim, p))
                z = ex.multiply_forward(lin.layer_id, lin.W, inp)
                assert np.max(np.abs(z - lin.W @ inp)) < 1e-9
                t1, t2 = ex.multiply_backward(lin.layer_id, delta)
                assert np.max(np.abs(t1 - inp @ delta.T)) < 1e-9
                assert np.max(np.abs(t2 - delta.T @ lin.W)) < 1e-9
    for kind in ("StorePair", "MultBwd"):
        shards = {lid: [j for name, l, j in sent if name == kind and l == lid]
                  for lid in range(3)}
        assert shards == {0: [0, 1, 2], 1: list(range(min(4, p))), 2: []}


def test_no_layer_gets_zero_shards_or_an_unknown_policy():
    with pytest.raises(ValueError, match="cannot be empty"):
        WorkerPool([])
    with pytest.raises(ValueError, match="unknown policy 'diagonal'"):
        make_net((3, 2), policies=["diagonal"])


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


@pytest.mark.parametrize("policy", ["tensor", "data"])
def test_shard_layout_follows_array_split_and_clips(policy):
    for (m, n, p), shards in [((7, 3, 5), 3), ((5, 2, 7), 4), ((2, 4, 1), 3),
                              ((1, 1, 9), 2), ((64, 8, 64), 2)]:
        layout = shard_layout(policy, shards, m, n, p)
        cut = m if policy == "tensor" else p
        want = [len(part) for part in np.array_split(np.arange(cut), min(shards, cut))]
        cuts = [sh.rows if policy == "tensor" else sh.cols for sh in layout]
        assert [c.stop - c.start for c in cuts] == want
        assert cuts[0].start == 0 and cuts[-1].stop == cut
        assert all(a.stop == b.start for a, b in zip(cuts, cuts[1:]))
        for sh in layout:
            kept = sh.cols if policy == "tensor" else sh.rows
            assert (kept.start, kept.stop) == (0, p if policy == "tensor" else m)
            rows, cols = sh.rows.stop - sh.rows.start, sh.cols.stop - sh.cols.start
            assert sh.dims == (rows, n, cols)


def _fold(parts):
    acc = parts[0].copy()
    for part in parts[1:]:
        acc += part
    return acc


@pytest.mark.parametrize("policy", ["tensor", "data"])
def test_forward_unblinds_every_shard_into_its_block_of_one_output(policy, monkeypatch):
    """The layer output and both backward products hold each shard's
    unblinded product, with the bytes dec_only gives on its own, in the
    block its layout names.  The backward block every shard writes (T2
    under "tensor", T1 under "data") holds their sum in shard order.
    Both backward modes assemble alike."""
    net = make_net((6, 7, 2), policies=[policy, policy])
    w = net.linears[0].W
    rng = make_rng(22)
    x, delta = rng.standard_normal((6, 9)), rng.standard_normal((7, 9))
    layout = shard_layout(policy, 3, 7, 6, 9)
    decoded = []  # each reply unblinded on its own, in the order dec sees them

    def record(sk, c_enc, *args, **kw):
        decoded.append(dec_only(sk, c_enc))
        return dec(sk, c_enc, *args, **kw)

    monkeypatch.setattr(master, "dec", record)
    with spawn_local_workers(3) as addresses:
        with pool_for(addresses, net) as pool:
            for reuse in (True, False):
                decoded.clear()
                ex = offload_executor(pool, net, seed=4, reuse_backward=reuse)
                z = ex.multiply_forward(0, w, x)
                t1, t2 = ex.multiply_backward(0, delta)
                assert len(decoded) == 3 + 2 * 3
                want = np.full(z.shape, np.nan)
                for sh, part in zip(layout, decoded[:3]):
                    want[sh.rows, sh.cols] = part
                t1_parts, t2_parts = decoded[3::2], decoded[4::2]
                if policy == "tensor":
                    want_t1, want_t2 = np.concatenate(t1_parts, axis=1), _fold(t2_parts)
                else:
                    want_t1, want_t2 = _fold(t1_parts), np.concatenate(t2_parts, axis=0)
                for got, expected in ((z, want), (t1, want_t1), (t2, want_t2)):
                    assert got.shape == expected.shape
                    assert got.flags["C_CONTIGUOUS"] and got.flags["OWNDATA"]
                    assert got.tobytes() == expected.tobytes()


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


def test_a_master_layer_has_no_shards():
    for shards, dims in [(1, (7, 6, 9)), (3, (7, 6, 9)), (4, (1, 1, 1))]:
        assert shard_layout("master", shards, *dims) == []


@pytest.mark.parametrize("pipelined", [False, True])
def test_a_master_layer_between_offloaded_ones_sends_nothing_and_multiplies_as_local(
        pipelined, monkeypatch):
    """A layer with no shards between two offloaded layers sends no
    request, pipelined or not, and its forward and backward products
    are LocalExecutor's, byte for byte."""
    net = make_net((3, 5, 4, 2), policies=["tensor", "master", "data"])
    sent = []
    request = WorkerConnection.request

    def record(conn, msg):
        sent.append(msg.layer_id)
        return request(conn, msg)

    rng = make_rng(31)
    inputs = [rng.standard_normal((lin.in_dim, 6)) for lin in net.linears]
    deltas = [rng.standard_normal((lin.out_dim, 6)) for lin in net.linears]
    local = LocalExecutor()
    w, x, delta = net.linears[1].W, inputs[1], deltas[1]
    want = [local.multiply_forward(1, w, x), *local.multiply_backward(1, delta)]
    with spawn_local_workers(2) as addresses:
        with pool_for(addresses, net) as pool:
            monkeypatch.setattr(WorkerConnection, "request", record)
            ex = offload_executor(pool, net, seed=3, pipelined=pipelined)
            z = [ex.multiply_forward(lin.layer_id, lin.W, inp)
                 for lin, inp in zip(net.linears, inputs)]
            t = {lid: ex.multiply_backward(lid, deltas[lid]) for lid in (2, 1, 0)}
    assert set(sent) == {0, 2}  # layer 1 sends nothing
    for got, expected in zip([z[1], *t[1]], want):
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("policy", ["tensor", "data", "master"])
def test_backward_without_forward_raises(policy):
    net = make_net(policies=[policy] * 3)
    with spawn_local_workers(1) as addresses:
        with pool_for(addresses, net) as pool:
            ex = offload_executor(pool, net)
            with pytest.raises(RuntimeError, match="without a matching forward"):
                ex.multiply_backward(0, np.ones((5, 2)))


@pytest.mark.parametrize("reuse", [True, False])
def test_backward_sends_every_request_before_the_first_collect(reuse, monkeypatch):
    """Every shard's backward requests are in flight before the first
    reply is collected.  In the reference mode both one-off keys of every
    shard are drawn before the first reply is verified, which fixes the
    order of the probe rng stream, and so every byte of the result."""
    net = make_net((3, 4, 2))
    rng = make_rng(28)
    x, delta = rng.standard_normal((3, 6)), rng.standard_normal((4, 6))
    events = []

    def record(owner, attr, describe=None):
        call = getattr(owner, attr)

        def wrapper(*args, **kw):
            events.append(describe(*args) if describe else attr)
            return call(*args, **kw)
        monkeypatch.setattr(owner, attr, wrapper)

    with spawn_local_workers(2) as addresses:
        with pool_for(addresses, net) as pool:
            ex = offload_executor(pool, net, seed=5, reuse_backward=reuse)
            ex.multiply_forward(0, net.linears[0].W, x)
            record(WorkerConnection, "request", lambda conn, msg: f"request {msg.shard_id}")
            record(WorkerConnection, "collect",
                   lambda conn, *args: f"collect {pool.connections.index(conn)}")
            record(master, "kgen")
            record(master, "dec")
            ex.multiply_backward(0, delta)
    if reuse:  # one MultBwd per shard, its reply carrying T1 and T2
        assert events == ["request 0", "request 1",
                          "collect 0", "dec", "dec", "collect 1", "dec", "dec"]
    else:  # two freshly keyed StorePairs per shard
        assert events == ["kgen", "request 0", "kgen", "request 0",
                          "kgen", "request 1", "kgen", "request 1",
                          "collect 0", "dec", "collect 0", "dec",
                          "collect 1", "dec", "collect 1", "dec"]


@pytest.mark.parametrize("policy", ["tensor", "data"])
def test_the_operand_every_shard_shares_reaches_probe_sides_as_one_object(policy, monkeypatch):
    """Each call hands all its products to one probe_sides call, after
    its last request and before its first collect.  The operand every
    shard shares is the caller's own array, not a view per shard, so
    probe_sides can see that it is shared: W under "data" forward and
    T2, X under "tensor" forward and T1."""
    net = make_net((6, 7, 2), policies=[policy, policy])
    w = net.linears[0].W
    rng = make_rng(23)
    x, delta = rng.standard_normal((6, 9)), rng.standard_normal((7, 9))
    events, calls = [], []

    def record_sides(pairs, k, rng):
        events.append("probe_sides")
        calls.append(pairs)
        return probe_sides(pairs, k, rng)

    def record(attr):
        call = getattr(WorkerConnection, attr)

        def wrapper(*args, **kw):
            events.append(attr)
            return call(*args, **kw)
        monkeypatch.setattr(WorkerConnection, attr, wrapper)

    monkeypatch.setattr(master, "probe_sides", record_sides)
    record("request")
    record("collect")
    with spawn_local_workers(3) as addresses:
        with pool_for(addresses, net) as pool:
            for reuse in (True, False):
                ex = offload_executor(pool, net, seed=4, reuse_backward=reuse)
                events.clear()
                calls.clear()
                ex.multiply_forward(0, w, x)
                ex.multiply_backward(0, delta)
                fwd, bwd = calls
                assert len(fwd) == 3 and len(bwd) == 6
                t1s, t2s = bwd[0::2], bwd[1::2]
                if policy == "tensor":
                    assert all(b is x for _, b in fwd) and all(a is x for a, _ in t1s)
                else:
                    assert all(a is w for a, _ in fwd) and all(b is w for _, b in t2s)
                requests = 3 if reuse else 6
                assert events == (["request"] * 3 + ["probe_sides"] + ["collect"] * 3
                                  + ["request"] * requests + ["probe_sides"]
                                  + ["collect"] * requests)


@pytest.mark.parametrize("product", ["forward", "T1", "T2"])
@pytest.mark.parametrize("reuse", [True, False])
@pytest.mark.parametrize("n_workers", [2, 3])
@pytest.mark.parametrize("policy", ["tensor", "data"])
def test_one_bad_entry_in_one_shards_product_fails_the_step(policy, n_workers, reuse, product,
                                                           monkeypatch):
    """Every shard product keeps its own probes, however its operands are
    shared: one corrupted entry in the last shard's forward, T1 or T2
    product of the middle layer fails the training step, and no weight
    or bias changes."""
    ds = gen_blobs(4, 2, 3, separation=8.0, seed=9)  # 8 samples
    net = make_net((3, 5, 4, 2), policies=[policy] * 3, seed=9)
    before = [(lin.W.copy(), lin.b.copy()) for lin in net.linears]
    direction = "forward" if product == "forward" else "backward"
    index = 1 if product == "T2" else 0  # among the shard's products in that call
    phase, seen = [], []  # the executor call under way; the shard's products in it

    def in_phase(name):
        call = getattr(EncryptedExecutor, name)

        def wrapper(self, lid, *args):
            phase.append((name, lid))
            try:
                return call(self, lid, *args)
            finally:
                phase.pop()
        monkeypatch.setattr(EncryptedExecutor, name, wrapper)

    collect = WorkerConnection.collect

    def corrupting_collect(conn, tag, shapes):
        reply = collect(conn, tag, shapes)
        if phase != [(f"multiply_{direction}", 1)] or conn is not pool.conn(n_workers - 1):
            return reply
        matrices = []
        for m in reply.matrices:
            if len(seen) == index:
                m = m.copy()
                m[0, 0] += 1.0
            seen.append(m.shape)
            matrices.append(m)
        return Result(reply.request_tag, tuple(matrices))

    in_phase("multiply_forward")
    in_phase("multiply_backward")
    monkeypatch.setattr(WorkerConnection, "collect", corrupting_collect)
    with spawn_local_workers(n_workers) as addresses:
        with pool_for(addresses, net) as pool:
            ex = offload_executor(pool, net, rounds=30, seed=9, reuse_backward=reuse)
            with pytest.raises(IntegrityFailure):
                train(net, ds, TrainConfig(0.1, 8, 1, seed=9), ex)
    assert len(seen) > index  # the corrupted product was received
    assert ex.stats.failures == 1
    for lin, (w, b) in zip(net.linears, before):
        assert lin.W.tobytes() == w.tobytes() and lin.b.tobytes() == b.tobytes()


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

def run_offloaded(ds, addresses, *, policies=None, pipelined=False, epochs=3):
    net = make_net((2, 6, 2), policies=policies, seed=8)
    with pool_for(addresses, net) as pool:
        _, stats, report = run_training(
            net, ds, pool, learning_rate=0.1, batch_size=10, epochs=epochs,
            seed=8, pipelined=pipelined)
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


def test_directly_built_pipelined_executor_blinds_the_next_layer_before_collecting(
        monkeypatch):
    """Built with pipelined=True, the executor blinds layer l+1's weight
    shards while layer l's requests are in flight, before it collects
    their replies; unpipelined, it blinds them when layer l+1 runs.  The
    products and the counters are the same either way."""
    net = make_net((3, 5, 4, 2))
    x = make_rng(26).standard_normal((3, 6))
    events = []
    enc_left, collect = master.enc_left, WorkerConnection.collect

    def record_blind(sk, a, *args, **kw):
        events.extend(f"blind W{lin.layer_id}" for lin in net.linears if np.shares_memory(a, lin.W))
        return enc_left(sk, a, *args, **kw)

    def record_collect(conn, *args):
        events.append("collect")
        return collect(conn, *args)

    def forward(pool, pipelined):
        events.clear()
        ex = offload_executor(pool, net, seed=3, pipelined=pipelined)
        cur, outs = x, []
        for lin in net.linears:
            cur = ex.multiply_forward(lin.layer_id, lin.W, cur)
            outs.append(cur.tobytes())
        return outs, ex.stats.as_dict(), list(events)

    with spawn_local_workers(2) as addresses:
        with pool_for(addresses, net) as pool:
            monkeypatch.setattr(master, "enc_left", record_blind)
            monkeypatch.setattr(WorkerConnection, "collect", record_collect)
            piped = forward(pool, True)
            plain = forward(pool, False)
    def blind(lid):
        return [f"blind W{lid}"] * 2  # one per shard

    replies = ["collect"] * 2
    assert piped[2] == blind(0) + blind(1) + replies + blind(2) + replies + replies
    assert plain[2] == blind(0) + replies + blind(1) + replies + blind(2) + replies
    assert piped[:2] == plain[:2]


@pytest.mark.parametrize("case", ["narrower-batch", "other-weight"])
def test_pre_blinded_weight_is_sent_only_under_its_own_key(case):
    """A pipelined executor pre-blinds layer 1's weight shards for the
    batch width and weight of layer 0's call.  If layer 1 is then called
    with another width (so another key) or another weight, the shards are
    blinded afresh and honest workers' products verify."""
    net = make_net((3, 5, 4, 2))
    rng = make_rng(29)
    with spawn_local_workers(2) as addresses:
        with pool_for(addresses, net) as pool:
            ex = offload_executor(pool, net, seed=3, pipelined=True)
            ex.multiply_forward(0, net.linears[0].W, rng.standard_normal((3, 6)))
            if case == "narrower-batch":
                w, x = net.linears[1].W, rng.standard_normal((5, 4))
            else:
                w, x = 2 * net.linears[1].W, rng.standard_normal((5, 6))
            z = ex.multiply_forward(1, w, x)
    assert np.max(np.abs(z - w @ x)) < 1e-9
    assert ex.stats.failures == 0


def test_naive_backward_same_numerics():
    """The executor's reference backward mode trains to the same weights
    as the reuse mode, up to rounding, from more blinded matrices."""
    ds = gen_blobs(15, 2, 2, separation=8.0, seed=7)

    def train_offloaded(addresses, reuse_backward):
        net = make_net((2, 6, 2), seed=8)
        with pool_for(addresses, net) as pool:
            ex = offload_executor(pool, net, seed=8, reuse_backward=reuse_backward)
            train(net, ds, TrainConfig(0.1, 10, 3, seed=8), ex)
        return net, ex.stats

    with spawn_local_workers(2) as addresses:
        reuse, stats_reuse = train_offloaded(addresses, True)
        naive, stats_naive = train_offloaded(addresses, False)
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
    with spawn_local_workers(1, WorkerMode("tamper", 1.0, magnitude=1.0), seed=2) as addresses:
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
    with spawn_local_workers(1, WorkerMode("lazy", 1.0), seed=0) as addresses:
        with pool_for(addresses, net) as pool:
            with pytest.raises(IntegrityFailure):
                run_training(net, ds, pool, learning_rate=0.1, batch_size=10,
                             epochs=1, seed=3)


def test_aborted_step_leaves_weights_untouched():
    ds = gen_blobs(10, 2, 2, separation=8.0, seed=3)
    net = make_net((2, 4, 2), seed=3)
    before = [lin.W.copy() for lin in net.linears]
    with spawn_local_workers(1, WorkerMode("tamper", 1.0, 2.0), seed=1) as addresses:
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
            with pytest.raises(WorkerFault):  # nothing stored there
                pool.conn(0).call(MultBwd(9, 9, np.ones((1, 4))), ((1, 4), (1, 4)))


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


def small_store():
    """A request whose product is 2 x 3."""
    return StorePair(0, 0, np.ones((2, 4)), np.ones((4, 3)))


def test_oversized_reply_refused_before_its_body_is_read():
    conn, peer = raw_peer()
    try:
        tag = conn.request(small_store())
        # the header claims a 1 GiB reply, and no body follows: a reader
        # that trusted it would allocate the lot and then wait forever
        peer.sendall(HEADER.pack(MAGIC, VERSION, MsgType.RESULT, MAX_PAYLOAD))
        with pytest.raises(WorkerFault, match="exceeds the cap"):
            conn.collect(tag, ((2, 3),))
    finally:
        conn.close()
        peer.close()


def test_oversized_reply_does_not_grow_the_wire_buffer():
    conn, peer = raw_peer()
    try:
        tags = [conn.request(small_store()) for _ in range(2)]
        send_message(peer, Result(tags[0], (np.ones((2, 3)),)))
        conn.collect(tags[0], ((2, 3),))
        grown = conn.wire.data
        assert grown.size == 7 + protocol.result_size(((2, 3),))  # 7 bytes align the body
        peer.sendall(HEADER.pack(MAGIC, VERSION, MsgType.RESULT, MAX_PAYLOAD))
        with pytest.raises(WorkerFault, match="exceeds the cap"):
            conn.collect(tags[1], ((2, 3),))
        assert conn.wire.data is grown
    finally:
        conn.close()
        peer.close()


def test_warm_connection_receives_a_large_reply_without_allocating():
    """tracemalloc sees numpy's and bytearray's buffers: once the wire
    buffer has grown, a 2 MiB RESULT is received into it, and its
    matrix is a view into that buffer."""
    conn, peer = raw_peer()
    big = make_rng(23).standard_normal((512, 512))
    peaks = []
    try:
        for tag in [conn.request(small_store()) for _ in range(2)]:
            sender = threading.Thread(target=send_message, args=(peer, Result(tag, (big,))))
            sender.start()
            tracemalloc.start()
            try:
                reply = conn.collect(tag, (big.shape,))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
                sender.join(timeout=10)
            assert reply.matrices[0].tobytes() == big.tobytes()
            assert np.shares_memory(reply.matrices[0], conn.wire.data)
    finally:
        conn.close()
        peer.close()
    assert peaks[0] > big.nbytes  # the first reply grows the buffer
    assert peaks[1] < 64 << 10


def _recv_frame(sock) -> bytes:
    def exactly(nbytes):
        data = b""
        while len(data) < nbytes:
            chunk = sock.recv(nbytes - len(data))
            assert chunk, "the coordinator hung up mid-frame"
            data += chunk
        return data

    header = exactly(HEADER.size)
    return header + exactly(HEADER.unpack(header)[3])


def test_a_smaller_request_after_a_larger_one_carries_no_stale_bytes():
    """Operands are blinded into the pool's reused wire buffer, yet the
    bytes a worker receives for each product are exactly the encoding of
    freshly blinded operands, also when a smaller product follows a
    larger one."""
    left, peer = socket.socketpair()
    left.settimeout(5)
    peer.settimeout(5)
    pool = WorkerPool([WorkerConnection(left)])
    frames = []

    def serve():
        session = WorkerSession(WorkerMode.honest(), make_rng(0))
        for _ in range(2):
            frames.append(_recv_frame(peer))
            send_message(peer, session.handle(protocol.decode(bytearray(frames[-1]))))

    server = threading.Thread(target=serve)
    server.start()
    rng = make_rng(24)
    operands = [(rng.standard_normal((40, 30)), rng.standard_normal((30, 20))),
                (rng.standard_normal((5, 40)), rng.standard_normal((40, 3)))]
    ex = EncryptedExecutor(pool, make_net((30, 40, 5)), rounds=6, seed=5)
    try:
        products = [ex.multiply_forward(lid, w, x) for lid, (w, x) in enumerate(operands)]
        server.join(timeout=10)
    finally:
        pool.close()
        peer.close()
    assert len(frames) == 2
    for lid, ((w, x), z, frame) in enumerate(zip(operands, products, frames)):
        sk = ex.keys.get(lid, 0, *w.shape, x.shape[1])
        assert frame == bytes(encode(StorePair(lid, 0, enc_left(sk, w), enc_right(sk, x))))
        assert np.max(np.abs(z - w @ x)) < 1e-9


def test_later_calls_reuse_the_pools_wire_buffer():
    """All connections of a pool share one wire buffer; once a warm-up
    has grown it to the largest frame, further training and inference
    calls keep it."""
    ds = gen_blobs(20, 2, 3, separation=8.0, seed=7)
    net = make_net((3, 6, 2), seed=7)
    with spawn_local_workers(2) as addresses:
        with pool_for(addresses, net) as pool:
            assert all(conn.wire is pool.wire for conn in pool.connections)

            def calls():
                run_training(net, ds, pool, learning_rate=0.1, batch_size=10, epochs=1,
                             seed=7, pipelined=True)
                reference = offload_executor(pool, net, seed=7, pipelined=True,
                                             reuse_backward=False)
                train(net, ds, TrainConfig(0.1, 10, 1, seed=7), reference)
                run_inference(net, ds.features, pool, seed=7)

            calls()
            warm = pool.wire.data
            assert warm.size > 0
            calls()
            calls()
            assert pool.wire.data is warm


# -- layer outputs -----------------------------------------------------------

def raw_pool():
    """A one-connection pool over a raw peer, and that peer."""
    conn, peer = raw_peer()
    return WorkerPool([conn]), peer


def test_a_held_layer_output_or_a_view_of_it_is_not_handed_out_again():
    pool, peer = raw_pool()
    try:
        held = pool.layer_output(0, (3, 4))
        assert held.dtype == np.float64 and held.shape == (3, 4)
        assert held.flags["C_CONTIGUOUS"] and held.flags["OWNDATA"]
        second = pool.layer_output(0, (3, 4))
        assert second is not held  # the caller still holds the first
        view = second[:, :1]
        del second
        third = pool.layer_output(0, (3, 4))
        assert third is not view.base  # a live slice holds the array it views
        assert not np.shares_memory(third, view) and not np.shares_memory(third, held)
    finally:
        pool.close()
        peer.close()


def test_a_layer_output_nothing_refers_to_comes_back():
    pool, peer = raw_pool()
    try:
        kept = weakref.ref(pool.layer_output(0, (3, 4)))
        assert pool.layer_output(0, (3, 4)) is kept()
        view = pool.layer_output(0, (3, 4))[1:, :]
        del view
        again = pool.layer_output(0, (3, 4))
        assert again is kept()
        other = pool.layer_output(1, (3, 4))  # each layer keeps its own
        assert other is not again
    finally:
        pool.close()
        peer.close()


def test_a_changed_shape_gets_a_new_array_and_the_old_one_is_let_go():
    pool, peer = raw_pool()
    try:
        old = weakref.ref(pool.layer_output(0, (3, 4)))
        assert old() is not None  # the pool keeps it
        new = weakref.ref(pool.layer_output(0, (4, 3)))
        assert old() is None  # one array per layer: the old one is freed
        assert new() is not None and new().shape == (4, 3)
        assert pool.layer_output(0, (4, 3)) is new()
    finally:
        pool.close()
        peer.close()


def test_a_second_inference_call_writes_into_the_first_calls_layer_outputs(monkeypatch):
    """run_inference drops its executor and outputs when it returns, so
    the next call on the pool gets every layer's output back: no new
    array, and the same predictions."""
    from blindtrain.nn import predict
    net = make_net((3, 6, 5, 2), policies=["tensor", "data", "tensor"], seed=31)
    x = make_rng(31).standard_normal((3, 7))
    handed: list[list] = []
    layer_output = WorkerPool.layer_output

    def record(pool, lid, shape):
        z = layer_output(pool, lid, shape)
        handed[-1].append(weakref.ref(z))
        return z

    monkeypatch.setattr(WorkerPool, "layer_output", record)
    with spawn_local_workers(2) as addresses:
        with pool_for(addresses, net) as pool:
            for seed in (1, 2):
                handed.append([])
                assert np.array_equal(run_inference(net, x, pool, seed=seed),
                                      predict(net, x))
    first, second = handed
    assert len(first) == len(second) == 3
    for a, b in zip(first, second):
        assert a() is not None and a() is b()


def test_training_over_the_executor_keeps_its_pinned_bytes():
    """Two training runs on one pool, the second starting on layer
    outputs the first left free: the weights and biases hash as they did
    before layer outputs were kept."""
    ds = gen_blobs(12, 3, 4, separation=3.0, seed=21)
    net = make_net((4, 7, 5, 3), policies=["tensor", "data", "tensor"], seed=21)
    with spawn_local_workers(2) as addresses:
        with pool_for(addresses, net) as pool:
            for reuse in (True, False):
                ex = offload_executor(pool, net, seed=21, pipelined=True, reuse_backward=reuse)
                train(net, ds, TrainConfig(0.1, 8, 2, seed=21), ex)
    digest = hashlib.sha256()
    for lin in net.linears:
        digest.update(lin.W.tobytes())
        digest.update(lin.b.tobytes())
    assert digest.hexdigest() == \
        "e19e07414defee14526236880541007c1c8be6c02a1bc0e242ea7e5a1d21aa2f"


def test_raw_peer_wrong_shape_and_error_frames():
    conn, peer = raw_peer()
    try:
        tags = [conn.request(small_store()) for _ in range(4)]
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


def test_peer_hanging_up_before_its_reply_is_a_worker_fault():
    conn, peer = raw_peer()
    try:
        tag = conn.request(small_store())
        peer.close()
        with pytest.raises(WorkerFault, match=f"no reply to request {tag}"):
            conn.collect(tag, ((2, 3),))
    finally:
        conn.close()


def test_stalled_peer_is_a_worker_fault():
    left, peer = socket.socketpair()
    left.settimeout(0.2)
    conn = WorkerConnection(left)
    try:
        tag = conn.request(small_store())  # the peer reads nothing, answers nothing
        with pytest.raises(WorkerFault, match=f"no reply to request {tag}.*TimeoutError"):
            conn.collect(tag, ((2, 3),))
    finally:
        conn.close()
        peer.close()


def test_request_to_a_closed_peer_is_a_worker_fault():
    conn, peer = raw_peer()
    peer.close()
    try:
        with pytest.raises(WorkerFault, match="cannot send request 0 \\(StorePair\\)"):
            conn.request(small_store())
    finally:
        conn.close()


def test_reply_to_another_request_names_its_tag_not_its_matrices():
    conn, peer = raw_peer()
    try:
        tag = conn.request(small_store())
        send_message(peer, Result(tag + 5, (np.full((2, 3), 0.125),)))
        with pytest.raises(WorkerFault) as info:
            conn.collect(tag, ((2, 3),))
    finally:
        conn.close()
        peer.close()
    assert str(info.value) == \
        f"expected result for request {tag}, got Result for request {tag + 5}"


def test_a_closed_connection_names_the_first_failure_it_was_closed_after():
    conn, peer = raw_peer()
    try:
        conn.close(RuntimeError("first"))
        conn.close(RuntimeError("second"))
        conn.close()
        with pytest.raises(WorkerFault, match="closed after RuntimeError: first$"):
            conn.request(small_store())
    finally:
        peer.close()


class FirstProductTamperSession(WorkerSession):
    """Adds 1 to one entry of its first product, then answers honestly."""

    tampered = False

    def _emit(self, honest):
        if self.tampered:
            return honest
        self.tampered = True
        out = honest.copy()
        out[0, 0] += 1.0
        return out


def test_a_call_that_fails_with_replies_unread_closes_the_pool():
    """Shard 0's first product fails verification while shard 1's reply
    is still unread.  The pool closes, and every later request on it
    names that first failure instead of blaming shard 1's honest worker
    for a reply to the wrong request."""
    net = make_net((3, 5, 4, 2))
    x = make_rng(33).standard_normal((3, 4))
    server = serving(FirstProductTamperSession)
    try:
        with spawn_local_workers(1) as honest:
            with pool_for([server.address, *honest], net) as pool:
                with pytest.raises(IntegrityFailure) as first:
                    offload_executor(pool, net, rounds=20, seed=1).multiply_forward(
                        0, net.linears[0].W, x)
                for seed in (2, 3):  # the first failure is kept, not the later ones
                    with pytest.raises(WorkerFault) as later:
                        offload_executor(pool, net, rounds=20, seed=seed).multiply_forward(
                            0, net.linears[0].W, x)
                    message = str(later.value)
                    assert f"closed after IntegrityFailure: {first.value}" in message
                    assert "expected result" not in message and "array(" not in message
    finally:
        server.stop()


@pytest.mark.parametrize("fault", ["hung-up", "stalled"])
def test_a_worker_fault_with_replies_unread_closes_the_pool(fault):
    """Shard 1's peer has hung up, so sending to it fails with shard 0's
    reply unread; or it never answers, so its own reply may still come
    and be misread.  Either way later requests name that first fault."""
    net = make_net((3, 4, 2))
    x = np.ones((3, 2))
    left, peer = socket.socketpair()
    left.settimeout(0.2)
    if fault == "hung-up":
        peer.close()
    with spawn_local_workers(1) as honest:
        with pool_for(honest, net) as first:
            pool = WorkerPool([first.conn(0), WorkerConnection(left)])
            try:
                with pytest.raises(WorkerFault) as failed:
                    offload_executor(pool, net).multiply_forward(0, net.linears[0].W, x)
                with pytest.raises(WorkerFault) as later:
                    offload_executor(pool, net).multiply_forward(0, net.linears[0].W, x)
            finally:
                pool.close()
                peer.close()
    assert f"closed after WorkerFault: {failed.value}" in str(later.value)


class HangUpSession(WorkerSession):
    """Drops the connection on the first backward request, after the
    forward product of the step went through."""

    def handle(self, msg):
        if isinstance(msg, MultBwd):
            raise ConnectionResetError("worker went away")
        return super().handle(msg)


def test_worker_dropping_mid_run_is_a_worker_fault_weights_unchanged():
    ds = gen_blobs(10, 2, 2, separation=8.0, seed=3)
    net = make_net((2, 4, 2), seed=3)
    before = [(lin.W.copy(), lin.b.copy()) for lin in net.linears]
    server = serving(HangUpSession)
    try:
        with pool_for([server.address], net) as pool:
            with pytest.raises(WorkerFault, match="no reply to request"):
                run_training(net, ds, pool, learning_rate=0.1, batch_size=10,
                             epochs=1, seed=3)
    finally:
        server.stop()
    for lin, (w, b) in zip(net.linears, before):
        assert np.array_equal(lin.W, w) and np.array_equal(lin.b, b)


class LayerOneTamperSession(WorkerSession):
    """Adds 1 to one entry of one of the layer-1 products it computes:
    `target` counts them in the order the worker computes them, so 0 is
    the forward product, 1 the backward T1 and 2 the backward T2."""

    target = 0
    seen = 0

    def handle(self, msg):
        reply = super().handle(msg)
        if getattr(msg, "layer_id", None) != 1:
            return reply
        matrices = list(reply.matrices)
        for i, m in enumerate(matrices):
            if self.seen == self.target:
                matrices[i] = m.copy()
                matrices[i][0, 0] += 1.0
            self.seen += 1
        return Result(reply.request_tag, tuple(matrices))


@pytest.mark.parametrize("reuse", [True, False])
@pytest.mark.parametrize("target,direction",
                         [(0, "forward"), (1, "backward T1"), (2, "backward T2")])
def test_an_integrity_failure_names_its_layer_shard_direction_and_worker(target, direction,
                                                                         reuse):
    ds = gen_blobs(5, 2, 3, separation=8.0, seed=4)
    net = make_net((3, 4, 2), seed=4)
    session = type("Session", (LayerOneTamperSession,), {"target": target})
    server = serving(session)
    host, port = server.address
    try:
        with spawn_local_workers(1) as honest:
            with pool_for([*honest, server.address], net) as pool:
                ex = offload_executor(pool, net, rounds=30, seed=4, reuse_backward=reuse)
                with pytest.raises(IntegrityFailure) as info:
                    train(net, ds, TrainConfig(0.1, 10, 1, seed=4), ex)
    finally:
        server.stop()
    exc = info.value
    assert (exc.layer, exc.shard, exc.direction, exc.address) == \
        (1, 1, direction, f"{host}:{port}")
    message = str(exc)
    assert message.startswith(f"verification round {exc.round_index}: residual ")
    assert message.endswith(f" (layer 1, shard 1, {direction}, worker {host}:{port})")


def test_a_worker_fault_on_collect_names_its_layer_shard_and_worker():
    net = make_net((3, 4, 2))

    class HangUpOnStore(WorkerSession):
        def handle(self, msg):
            if isinstance(msg, StorePair):
                raise ConnectionResetError("worker went away")
            return super().handle(msg)

    server = serving(HangUpOnStore)
    host, port = server.address
    try:
        with spawn_local_workers(1) as honest:
            with pool_for([*honest, server.address], net) as pool:
                with pytest.raises(WorkerFault) as info:
                    run_inference(net, np.ones((3, 2)), pool)
    finally:
        server.stop()
    exc = info.value
    assert (exc.layer, exc.shard, exc.address) == (0, 1, f"{host}:{port}")
    assert str(exc).endswith(f" (layer 0, shard 1, worker {host}:{port})")


def test_a_worker_fault_on_request_names_its_layer_shard_and_worker():
    net = make_net((3, 4, 2))
    left, peer = socket.socketpair()
    peer.close()
    with spawn_local_workers(1) as honest:
        with pool_for(honest, net) as first:
            dead = WorkerConnection(left)
            pool = WorkerPool([first.conn(0), dead])
            try:
                with pytest.raises(WorkerFault, match="cannot send request") as info:
                    offload_executor(pool, net).multiply_forward(0, net.linears[0].W,
                                                                 np.ones((3, 2)))
            finally:
                pool.close()
    exc = info.value
    assert (exc.layer, exc.shard, exc.address) == (0, 1, dead.address)
    assert str(exc).endswith(f" (layer 0, shard 1, worker {dead.address})")


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


class VersionOnePeer:
    """A listener whose one connection answers HELLO with the empty
    RESULT a version-1 worker sent, then waits for the hang-up."""

    def __init__(self):
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()
        self.greeting = None
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        conn, _ = self._listener.accept()
        with conn:
            conn.settimeout(5)
            self.greeting = conn.recv(HEADER.size)
            conn.sendall(HEADER.pack(MAGIC, 1, MsgType.RESULT, 9) + struct.pack("<QB", 0, 0))
            try:
                while conn.recv(1):
                    pass
            except ConnectionResetError:  # closed with the RESULT body unread
                pass

    def stop(self):
        self._thread.join(timeout=10)
        self._listener.close()
        assert not self._thread.is_alive(), "the coordinator never hung up"


def test_version_one_worker_is_a_worker_fault():
    peer = VersionOnePeer()
    try:
        with pytest.raises(WorkerFault, match="bad reply to request 0: unsupported version 1"):
            WorkerPool.connect([peer.address], n_layers=1, timeout=5)
    finally:
        peer.stop()
    assert peer.greeting == HEADER.pack(MAGIC, 2, MsgType.HELLO, 0)


# -- secrecy ---------------------------------------------------------------

def test_wire_traffic_never_carries_plaintext_operands(monkeypatch):
    seen = []
    ds = gen_blobs(10, 2, 2, separation=8.0, seed=6)
    net = make_net((2, 4, 2), seed=6)
    plain_snapshots = []

    class Recorder(EncryptedExecutor):
        def multiply_forward(self, lid, w, x):
            plain_snapshots.append((w.copy(), x.copy()))
            return super().multiply_forward(lid, w, x)

    send_message = protocol.send_message

    def record(sock, msg):
        # a snapshot: the blinded operands live in the pool's wire
        # buffer, which the next request overwrites
        seen.append(protocol.decode(encode(msg)))
        send_message(sock, msg)

    monkeypatch.setattr(protocol, "send_message", record)
    with spawn_local_workers(1) as addresses:
        with pool_for(addresses, net) as pool:
            ex = Recorder(pool, net, rounds=5, seed=6)
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
        with pool_for(addresses, net) as pool:
            got = run_inference(net, ds.features, pool, seed=10)
    assert np.array_equal(got, predict(net, ds.features))


def test_run_inference_aborts_on_tampering():
    net = make_net((2, 4, 2), seed=1)
    x = make_rng(12).standard_normal((2, 8))
    with spawn_local_workers(1, WorkerMode("tamper", 1.0, 3.0), seed=5) as addresses:
        with pool_for(addresses, net) as pool:
            with pytest.raises(IntegrityFailure):
                run_inference(net, x, pool, seed=2)
