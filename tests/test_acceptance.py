"""End-to-end acceptance gate.

Each test is one numbered criterion and prints a single PASS line once
its assertions hold, so `pytest -v -s tests/test_acceptance.py` reads as
a checklist.  Tolerances and trial counts are part of the contract; the
seeds are fixed so every run sees the same draws.
"""
import math
import time

import numpy as np
import pytest

from blindtrain.data import gen_blobs
from blindtrain.master import WorkerPool, run_training
from blindtrain.nn import (
    LocalExecutor,
    Network,
    TrainConfig,
    accuracy,
    cross_entropy_softmax,
    forward,
    train,
)
from blindtrain.obfuscate import (
    IntegrityConfig,
    IntegrityFailure,
    KeySpaceConfig,
    brute_force_bound,
    dec,
    dec_only,
    enc_left,
    enc_pair,
    enc_right,
    encryption_matrix,
    inverse_encryption_matrix,
    key_shift,
    kgen,
    min_rounds,
)
from blindtrain.privacy import compare_schemes, mi_estimate, smooth_field
from blindtrain.protocol import (
    BadMagic,
    BadVersion,
    Config,
    Error,
    Hello,
    MultBwd,
    ProtocolError,
    Result,
    StorePair,
    TruncatedFrame,
    UnknownMessageType,
    decode,
    encode,
)
from blindtrain.tensor import make_rng
from blindtrain.worker import spawn_local_workers

KS = KeySpaceConfig(255)


def scaled_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want))))


def test_criterion_01_blind_multiply_roundtrip():
    rng = make_rng(0)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        m, n, p = (int(v) for v in rng.integers(1, 17, size=3))
        a = rng.standard_normal((m, n))
        b = rng.standard_normal((n, p))
        sk = kgen(m, n, p, KS, rng)
        a_enc, b_enc = enc_pair(sk, a, b)
        worst = max(worst, scaled_error(dec_only(sk, a_enc @ b_enc), a @ b))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-9
    assert elapsed < 10.0
    print(f"criterion 1: PASS (1000 roundtrips, max scaled error {worst:.2e}, "
          f"{elapsed:.1f}s)")


def test_criterion_02_encryption_matrix_oracle():
    rng = make_rng(1)
    worst = 0.0
    for _ in range(200):
        m, n, p = (int(v) for v in rng.integers(1, 13, size=3))
        a = rng.standard_normal((m, n))
        b = rng.standard_normal((n, p))
        sk = kgen(m, n, p, KS, rng)
        e1 = encryption_matrix(sk.slots[0])
        e2_inv = inverse_encryption_matrix(sk.slots[1])
        e3_inv = inverse_encryption_matrix(sk.slots[2])
        worst = max(worst, scaled_error(enc_left(sk, a), e1 @ a @ e2_inv))
        a_enc, b_enc = enc_pair(sk, a, b)
        worst = max(worst, scaled_error(a_enc @ b_enc, e1 @ (a @ b) @ e3_inv))
    assert worst <= 1e-9
    print(f"criterion 2: PASS (200 sandwich-form cases, max scaled error {worst:.2e})")


def test_criterion_03_key_shift_backward_identities():
    rng = make_rng(2)
    worst = 0.0
    for _ in range(200):
        m, n, p = (int(v) for v in rng.integers(1, 13, size=3))
        w = rng.standard_normal((m, n))
        x = rng.standard_normal((n, p))
        delta = rng.standard_normal((m, p))
        sk = kgen(m, n, p, KS, rng)
        w_enc, x_enc = enc_pair(sk, w, x)
        d_t = np.ascontiguousarray(delta.T)
        d_enc = enc_left(key_shift(sk, 2), d_t)
        t1 = dec(key_shift(sk, 1), x_enc @ d_enc, x, d_t, 4, rng)
        t2 = dec(key_shift(sk, 2), d_enc @ w_enc, d_t, w, 4, rng)
        worst = max(worst, scaled_error(t1, x @ delta.T))
        worst = max(worst, scaled_error(t2, delta.T @ w))
    assert worst <= 1e-9
    print(f"criterion 3: PASS (200 reuse-identity cases, max scaled error {worst:.2e})")


def test_criterion_04_gradient_check():
    rng = make_rng(3)
    net = Network.from_dims([6, 10, 8, 4])
    net.init_weights(3)
    x = rng.standard_normal((6, 8))
    labels = rng.integers(0, 4, size=8)
    eps = 1e-5

    def batch_loss():
        loss, _ = cross_entropy_softmax(forward(net, x, LocalExecutor())[-1], labels)
        return loss

    # analytic gradients through the executor seam
    ex = LocalExecutor()
    outs = forward(net, x, ex)
    _, delta = cross_entropy_softmax(outs[-1], labels)
    analytic = {}
    for i in range(len(net.linears) - 1, -1, -1):
        lin = net.linears[i]
        t1, t2 = ex.multiply_backward(lin.layer_id, delta)
        analytic[lin.layer_id] = (t1 / 8, delta.sum(axis=1) / 8)
        if i > 0:
            delta = t2 * (outs[i - 1] > 0.0)

    worst = 0.0
    for lin in net.linears:
        g_w, g_b = analytic[lin.layer_id]
        for arr, grad in ((lin.W, g_w), (lin.b, g_b)):
            flat = arr.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + eps
                up = batch_loss()
                flat[idx] = orig - eps
                down = batch_loss()
                flat[idx] = orig
                numeric = (up - down) / (2 * eps)
                a = grad.reshape(-1)[idx]
                worst = max(worst, abs(a - numeric) / max(abs(a) + abs(numeric), 1e-8))
    assert worst <= 1e-4
    print(f"criterion 4: PASS (finite-difference check, max relative error {worst:.2e})")


def test_criterion_05_executor_transparency():
    started = time.perf_counter()
    ds = gen_blobs(200, 2, 2, separation=10.0, seed=3)  # 400 samples

    def fresh_net(policies=None):
        net = Network.from_dims([2, 16, 16, 2], policies)
        net.init_weights(7)
        return net

    def run_local():
        net = fresh_net()
        train(net, ds, TrainConfig(0.05, 32, 20, seed=7), LocalExecutor())
        return net

    def run_offloaded(n_workers, policies=None, pipelined=False):
        net = fresh_net(policies)
        with spawn_local_workers(n_workers) as addresses:
            with WorkerPool.connect(addresses, n_layers=len(net.linears)) as pool:
                run_training(net, ds, pool, learning_rate=0.05, batch_size=32,
                             epochs=20, seed=7, pipelined=pipelined)
        return net

    nets = {
        "local": run_local(),
        "offloaded N=1": run_offloaded(1),
        "offloaded N=2 rows": run_offloaded(2),
        "offloaded N=2 cols": run_offloaded(2, policies=["data"] * 3),
        "offloaded N=2 pipelined": run_offloaded(2, pipelined=True),
    }
    names = list(nets)
    worst = 0.0
    for i, first in enumerate(names):
        for second in names[i + 1:]:
            for a, b in zip(nets[first].linears, nets[second].linears):
                worst = max(worst, float(np.max(np.abs(a.W - b.W))))
                worst = max(worst, float(np.max(np.abs(a.b - b.b))))
    accuracies = {name: accuracy(net, ds) for name, net in nets.items()}
    elapsed = time.perf_counter() - started
    assert worst <= 1e-6
    assert len(set(accuracies.values())) == 1
    assert elapsed < 120.0
    print(f"criterion 5: PASS (5 backends agree, max weight diff {worst:.2e}, "
          f"accuracy {accuracies['local']:.4f}, {elapsed:.1f}s)")


def test_criterion_06_integrity_rates():
    def tamper_rate(k: int, trials: int) -> float:
        rng = make_rng(5)
        caught = 0
        for _ in range(trials):
            m, n, p = (int(v) for v in rng.integers(2, 9, size=3))
            a = rng.standard_normal((m, n))
            b = rng.standard_normal((n, p))
            sk = kgen(m, n, p, KS, rng)
            a_enc, b_enc = enc_pair(sk, a, b)
            c_enc = a_enc @ b_enc
            c_enc[int(rng.integers(m)), int(rng.integers(p))] += 1.0
            try:
                dec(sk, c_enc, a, b, k, rng)
            except IntegrityFailure:
                caught += 1
        return caught / trials

    rate_k1 = tamper_rate(1, 1000)
    rate_k10 = tamper_rate(10, 1000)
    assert abs(rate_k1 - 0.5) <= 0.05
    assert rate_k10 >= 0.999

    k_star = min_rounds(IntegrityConfig(t=0.01, task="inference", n_workers=1, n_layers=10))
    assert k_star == 10

    rng = make_rng(6)
    false_positives = 0
    for _ in range(10_000):
        m, n, p = (int(v) for v in rng.integers(2, 7, size=3))
        a = rng.standard_normal((m, n))
        b = rng.standard_normal((n, p))
        sk = kgen(m, n, p, KS, rng)
        a_enc, b_enc = enc_pair(sk, a, b)
        try:
            dec(sk, a_enc @ b_enc, a, b, 5, rng)
        except IntegrityFailure:
            false_positives += 1
    assert false_positives == 0
    print(f"criterion 6: PASS (k=1 rate {rate_k1:.3f}, k=10 rate {rate_k10:.4f}, "
          f"min_rounds 10, honest false positives 0/10000)")


def test_criterion_07_encryption_accounting():
    from blindtrain.master import EncryptedExecutor

    ds = gen_blobs(10, 2, 4, separation=8.0, seed=5)  # 40 samples, dim 4
    dims = [4, 8, 6, 2]

    def backward_encryptions(reuse: bool) -> int:
        net = Network.from_dims(dims)
        net.init_weights(5)
        with spawn_local_workers(2) as addresses:
            with WorkerPool.connect(addresses, n_layers=3) as pool:
                ex = EncryptedExecutor(pool, net, rounds=4, seed=5,
                                       reuse_backward=reuse)
                x = ds.features[:, :16]
                cur = x
                for lin in net.linears:
                    cur = ex.multiply_forward(lin.layer_id, lin.W, cur)
                before = ex.stats.matrices_encrypted
                delta = make_rng(6).standard_normal((2, 16))
                for i in range(2, -1, -1):
                    lin = net.linears[i]
                    _, t2 = ex.multiply_backward(lin.layer_id, delta)
                    if i > 0:
                        delta = t2
                return ex.stats.matrices_encrypted - before

    shards_per_layer = 2
    n_layers = 3
    optimized = backward_encryptions(reuse=True)
    naive = backward_encryptions(reuse=False)
    assert optimized == 1 * shards_per_layer * n_layers
    assert naive == 4 * shards_per_layer * n_layers

    net = Network.from_dims(dims)
    net.init_weights(5)
    with spawn_local_workers(2) as addresses:
        with WorkerPool.connect(addresses, n_layers=3) as pool:
            _, stats, _ = run_training(net, ds, pool, learning_rate=0.1,
                                       batch_size=16, epochs=2, seed=5)
    batches = 2 * math.ceil(ds.n_samples / 16)
    # forward: each shard's weight rows plus the batch all shards share, once
    expected = (2 * shards_per_layer + 1) * n_layers * batches
    assert stats.matrices_encrypted == expected
    print(f"criterion 7: PASS (backward blinds {optimized} vs {naive} naive, "
          f"training total {stats.matrices_encrypted} == (2*shards+1)*L*batches)")


def test_criterion_08_privacy_ordering():
    started = time.perf_counter()
    sizes = [4, 16, 64, 255]
    rows = compare_schemes(sizes, seed=0)

    # zero-information baseline: identically produced but independent patches
    rng_a, rng_b = make_rng(0), make_rng(1234)
    pool_a = np.concatenate([smooth_field(48, 48, rng_a).ravel() for _ in range(12)])
    pool_b = np.concatenate([smooth_field(48, 48, rng_b).ravel() for _ in range(12)])
    independent_floor = -mi_estimate(pool_a, pool_b).bits

    for size in sizes:
        by = {r["scheme"]: r["privacy_bits"] for r in rows if r["keyspace"] == size}
        assert by["enc_full"] > by["enc_no_perm"] > by["scalar_mult"] > by["identity"]
        assert abs(by["enc_full"] - independent_floor) <= 0.1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    full_at_255 = next(r["privacy_bits"] for r in rows
                       if r["keyspace"] == 255 and r["scheme"] == "enc_full")
    print(f"criterion 8: PASS (ordering holds at sizes {sizes}, full blinding "
          f"{full_at_255:.4f} vs independent floor {independent_floor:.4f}, "
          f"{elapsed:.1f}s)")


def test_criterion_09_codec_fuzz_and_rejection():
    rng = make_rng(4)

    def random_message():
        kind = int(rng.integers(6))
        def mat(r=None, c=None):
            r = r or int(rng.integers(1, 7))
            c = c or int(rng.integers(1, 7))
            return rng.standard_normal((r, c))
        if kind == 0:
            return Hello()
        if kind == 1:
            return Config(int(rng.integers(1, 32)))
        if kind == 2:
            n = int(rng.integers(1, 7))
            return StorePair(int(rng.integers(8)), int(rng.integers(8)),
                             mat(c=n), mat(r=n))
        if kind == 3:
            return MultBwd(int(rng.integers(8)), int(rng.integers(8)), mat())
        if kind == 4:
            count = int(rng.integers(3))
            return Result(int(rng.integers(1 << 32)),
                          tuple(mat() for _ in range(count)))
        return Error(int(rng.integers(1, 5)), "worker detail " * int(rng.integers(3)))

    for _ in range(10_000):
        msg = random_message()
        assert decode(encode(msg)) == msg

    import struct
    frame = bytearray(encode(Hello()))
    broken_magic = bytes(b"XXXX") + bytes(frame[4:])
    with pytest.raises(BadMagic):
        decode(broken_magic)
    broken_version = bytes(frame[:4]) + b"\x09" + bytes(frame[5:])
    with pytest.raises(BadVersion):
        decode(broken_version)
    broken_type = bytes(frame[:5]) + b"\x44" + bytes(frame[6:])
    with pytest.raises(UnknownMessageType):
        decode(broken_type)
    with pytest.raises(TruncatedFrame):
        decode(bytes(frame[:-1]))
    zero_dim = bytearray(encode(MultBwd(0, 0, np.ones((2, 2)))))
    struct.pack_into("<II", zero_dim, 22, 0, 2)
    with pytest.raises(ProtocolError):
        decode(bytes(zero_dim))
    print("criterion 9: PASS (10000 fuzzed roundtrips, all five rejection "
          "classes raised)")


def test_criterion_10_brute_force_bound():
    bound = brute_force_bound(8, 8, 256)
    assert abs(bound - 158.6) <= 0.1
    assert brute_force_bound(9, 8, 256) > bound
    assert brute_force_bound(8, 9, 256) > bound
    assert brute_force_bound(8, 8, 257) > bound
    print(f"criterion 10: PASS (bound {bound:.4f} bits, monotone in every argument)")
