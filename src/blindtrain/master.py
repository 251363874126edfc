"""Trusted coordinator.

The coordinator owns the plaintext network and data.  For every linear
layer it blinds the operands under a per-epoch key, ships them to the
workers, verifies what comes back with randomized probes, and unblinds.
The backward pass reuses the pair each worker already holds: only the
transposed delta is freshly blinded (one matrix instead of the four a
from-scratch approach would need), shipped under the key rotated by
two, and the two returned products decrypt under rotations one and two.

Partitioning is per layer: "tensor" splits the weight by output rows,
"data" splits the batch by columns, "master" keeps the product local.
Each shard gets an independent key, so workers cannot pool what they
see, and keys are refreshed every epoch.
"""
from __future__ import annotations

import hashlib
import socket
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from . import nn, protocol
from .obfuscate import (
    IntegrityConfig,
    IntegrityFailure,
    KeySpaceConfig,
    SecretKey,
    dec,
    enc_left,
    enc_right,
    key_shift,
    kgen,
    min_rounds,
)
from .protocol import Config, Hello, MultBwd, MultFwd, Result, StorePair
from .tensor import ShapeError, concat, make_rng, split, sum_all

__all__ = [
    "LayerPlan",
    "PartitionPlan",
    "plan_partition",
    "EpochKeys",
    "OffloadStats",
    "WorkerFault",
    "WorkerConnection",
    "WorkerPool",
    "EncryptedExecutor",
    "run_training",
    "run_inference",
]


class WorkerFault(RuntimeError):
    """A worker answered with an error frame or broke the protocol."""


_ERROR_PAYLOAD_CAP = 1 << 16  # largest ERROR payload a coordinator reads


@dataclass(frozen=True)
class LayerPlan:
    policy: str  # "tensor" | "data" | "master"
    shards: int

    def __post_init__(self):
        if self.policy not in nn.Linear.POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.shards < 1:
            raise ValueError("shard count must be >= 1")


@dataclass(frozen=True)
class PartitionPlan:
    layers: dict[int, LayerPlan]

    def __getitem__(self, layer_id: int) -> LayerPlan:
        return self.layers[layer_id]


def plan_partition(net: nn.Network, n_workers: int) -> PartitionPlan:
    """One LayerPlan per linear layer from its policy attribute.

    Row-split layers are clipped to their output dim (a 3-row weight
    cannot fill 4 workers); batch-split layers are clipped per batch at
    offload time since the final batch may run short.
    """
    if n_workers < 1:
        raise ValueError("need at least one worker")
    layers = {}
    for lin in net.linears:
        shards = n_workers
        if lin.policy == "tensor":
            shards = min(shards, lin.out_dim)
        elif lin.policy == "master":
            shards = 1
        layers[lin.layer_id] = LayerPlan(lin.policy, shards)
    return PartitionPlan(layers)


def _derive_seed(master_seed: int, epoch: int, layer_id: int, shard_id: int,
                 m: int, n: int, p: int) -> int:
    """Stable per-key seed, independent of the order keys are first used
    (pipelined and unpipelined runs must agree bitwise)."""
    packed = struct.pack("<7q", master_seed, epoch, layer_id, shard_id, m, n, p)
    return int.from_bytes(hashlib.blake2b(packed, digest_size=8).digest(), "little")


class EpochKeys:
    """Per-epoch key store.  Keys never leave this process; the map is
    dropped wholesale on refresh so nothing outlives its epoch."""

    def __init__(self, master_seed: int, keyspace: KeySpaceConfig):
        self.master_seed = master_seed
        self.keyspace = keyspace
        self.epoch = 0
        self._cache: dict[tuple, SecretKey] = {}

    def refresh(self, epoch: int) -> None:
        self.epoch = epoch
        self._cache.clear()

    def get(self, layer_id: int, shard_id: int, m: int, n: int, p: int) -> SecretKey:
        slot = (layer_id, shard_id, m, n, p)
        sk = self._cache.get(slot)
        if sk is None:
            seed = _derive_seed(self.master_seed, self.epoch, layer_id, shard_id, m, n, p)
            sk = kgen(m, n, p, self.keyspace, make_rng(seed))
            self._cache[slot] = sk
        return sk


@dataclass
class OffloadStats:
    matrices_encrypted: int = 0
    matrices_decrypted: int = 0
    products_offloaded: int = 0
    verification_rounds: int = 0
    failures: int = 0

    def as_dict(self) -> dict:
        return dict(vars(self))


class WorkerConnection:
    """One socket to one worker.  Requests are answered in order; every
    send returns the tag its reply must carry."""

    def __init__(self, sock: socket.socket, tap=None):
        self._sock = sock
        self._next_tag = 0
        self._tap = tap

    def request(self, msg) -> int:
        if self._tap is not None:
            self._tap(msg)
        protocol.send_message(self._sock, msg)
        tag = self._next_tag
        self._next_tag += 1
        return tag

    def collect(self, tag: int, shapes: tuple) -> Result:
        """The reply to request `tag`: a RESULT carrying matrices of
        exactly `shapes` (() for an ack).  A frame declaring more payload
        than that, or than an ERROR frame's cap, is refused from its
        header before its body is read."""
        bound = max(protocol.result_size(shapes), _ERROR_PAYLOAD_CAP)
        try:
            reply = protocol.read_message(self._sock, bound)
        except (protocol.ProtocolError, UnicodeDecodeError) as exc:
            raise WorkerFault(f"bad reply to request {tag}: {exc}") from exc
        if isinstance(reply, protocol.Error):
            raise WorkerFault(f"worker error {reply.code}: {reply.text}")
        if not isinstance(reply, Result) or reply.request_tag != tag:
            raise WorkerFault(f"expected result for request {tag}, got {reply!r}")
        got = tuple(m.shape for m in reply.matrices)
        if got != shapes:
            raise WorkerFault(f"result for request {tag} carries shapes {got}, expected {shapes}")
        return reply

    def call(self, msg, shapes: tuple) -> Result:
        return self.collect(self.request(msg), shapes)

    def close(self):
        try:
            self._sock.close()
        except OSError:
            pass


class WorkerPool:
    """Connections to all workers, greeted and configured."""

    def __init__(self, connections: list[WorkerConnection]):
        if not connections:
            raise ValueError("worker pool cannot be empty")
        self.connections = connections

    @classmethod
    def connect(cls, addresses: list[tuple[str, int]], n_layers: int,
                mode: int = 1, tap=None, timeout: float = 30.0) -> "WorkerPool":
        conns = []
        try:
            for i, (host, port) in enumerate(addresses):
                try:
                    sock = socket.create_connection((host, port), timeout=timeout)
                except OSError as exc:
                    raise ConnectionError(
                        f"worker at {host}:{port} unreachable: {exc}") from exc
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                conn = WorkerConnection(sock, tap=tap)
                conns.append(conn)
                conn.call(Hello(worker_id=i), ())
                conn.call(Config(n_layers=n_layers, mode=mode), ())
        except BaseException:
            for conn in conns:
                conn.close()
            raise
        return cls(conns)

    @property
    def size(self) -> int:
        return len(self.connections)

    def conn(self, shard_id: int) -> WorkerConnection:
        return self.connections[shard_id]

    def close(self):
        for c in self.connections:
            c.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class EncryptedExecutor(nn.MatMulExecutor):
    """Offloading backend for the training loop.

    rounds is the per-product probe count (see min_rounds).  With
    pipelined=True the executor blinds the next layer's weight shards
    while the current layer's requests are in flight; results are
    bitwise identical either way because keys derive from (epoch, layer,
    shard, dims), not from call order.  reuse_backward=False is the
    reference accounting mode: the backward products are shipped as two
    freshly blinded pairs (four matrices) instead of one.
    """

    def __init__(
        self,
        pool: WorkerPool,
        plan: PartitionPlan,
        *,
        rounds: int,
        keyspace: KeySpaceConfig | None = None,
        tolerance: float = 1e-8,
        seed: int = 0,
        pipelined: bool = False,
        reuse_backward: bool = True,
    ):
        self.pool = pool
        self.plan = plan
        self.rounds = rounds
        self.tolerance = tolerance
        self.pipelined = pipelined
        self.reuse_backward = reuse_backward
        self.keys = EpochKeys(seed, keyspace or KeySpaceConfig())
        self.stats = OffloadStats()
        self._rng = make_rng(_derive_seed(seed, -1, -1, -1, 0, 0, 0))  # probes, one-off keys
        self._ctx: dict[int, dict] = {}
        self._pre_enc: dict[tuple[int, int], np.ndarray] = {}
        self._network: nn.Network | None = None

    def attach_network(self, net: nn.Network) -> None:
        """Needed only for pipelined pre-blinding of upcoming weights."""
        self._network = net

    def start_epoch(self, epoch: int) -> None:
        self.keys.refresh(epoch)
        self._pre_enc.clear()

    # -- helpers -------------------------------------------------------

    def _shards_for(self, lid: int, w: np.ndarray, x_width: int) -> int:
        plan = self.plan[lid]
        if plan.policy == "data":
            return min(plan.shards, x_width)
        if plan.policy == "tensor":
            return min(plan.shards, w.shape[0])
        return 1

    def _encrypt_weight(self, lid: int, shard: int, sk: SecretKey, w_part: np.ndarray) -> np.ndarray:
        cached = self._pre_enc.pop((lid, shard), None)
        if cached is not None:
            return cached
        self.stats.matrices_encrypted += 1
        return enc_left(sk, w_part)

    def _dec(self, sk, c_enc, a_plain, b_plain):
        self.stats.matrices_decrypted += 1
        self.stats.verification_rounds += self.rounds
        try:
            return dec(sk, c_enc, a_plain, b_plain, self.rounds, self._rng, self.tolerance)
        except IntegrityFailure:
            self.stats.failures += 1
            raise

    def _pre_encrypt_next(self, lid: int, batch_width: int) -> None:
        if self._network is None:
            return
        nxt = None
        for lin in self._network.linears:
            if lin.layer_id == lid + 1:
                nxt = lin
        if nxt is None or self.plan[nxt.layer_id].policy == "master":
            return
        w = nxt.W
        policy = self.plan[nxt.layer_id].policy
        s = self._shards_for(nxt.layer_id, w, batch_width)
        if policy == "tensor":
            for j, wj in enumerate(split(w, "rows", s)):
                sk = self.keys.get(nxt.layer_id, j, wj.shape[0], wj.shape[1], batch_width)
                self._pre_enc[(nxt.layer_id, j)] = enc_left(sk, wj)
                self.stats.matrices_encrypted += 1
        else:  # data: whole weight per shard, keyed by the shard's batch slice
            widths = [part.size for part in np.array_split(np.arange(batch_width), s)]
            for j, pj in enumerate(widths):
                sk = self.keys.get(nxt.layer_id, j, w.shape[0], w.shape[1], pj)
                self._pre_enc[(nxt.layer_id, j)] = enc_left(sk, w)
                self.stats.matrices_encrypted += 1

    # -- forward -------------------------------------------------------

    def multiply_forward(self, lid: int, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        if w.shape[1] != x.shape[0]:
            raise ShapeError(f"forward product: {w.shape} x {x.shape}")
        policy = self.plan[lid].policy
        if policy == "master":
            self._ctx[lid] = {"policy": policy, "w": w, "x": x}
            return w @ x

        p = x.shape[1]
        s = self._shards_for(lid, w, p)
        if policy == "tensor":
            w_parts, x_parts = split(w, "rows", s), [x] * s
        else:
            w_parts, x_parts = [w] * s, split(x, "cols", s)

        records = []
        for j in range(s):
            wj, xj = w_parts[j], x_parts[j]
            sk = self.keys.get(lid, j, wj.shape[0], wj.shape[1], xj.shape[1])
            w_enc = self._encrypt_weight(lid, j, sk, wj)
            x_enc = enc_right(sk, xj)
            self.stats.matrices_encrypted += 1
            conn = self.pool.conn(j)
            store_tag = conn.request(StorePair(lid, j, w_enc, x_enc))
            mult_tag = conn.request(MultFwd(lid, j))
            self.stats.products_offloaded += 1
            records.append({"sk": sk, "w": wj, "x": xj, "tags": (store_tag, mult_tag)})

        if self.pipelined:
            self._pre_encrypt_next(lid, p)

        z_parts = []
        for j, rec in enumerate(records):
            conn = self.pool.conn(j)
            conn.collect(rec["tags"][0], ())  # store ack
            reply = conn.collect(rec["tags"][1], ((rec["w"].shape[0], rec["x"].shape[1]),))
            z_parts.append(self._dec(rec["sk"], reply.matrices[0], rec["w"], rec["x"]))

        self._ctx[lid] = {"policy": policy, "records": records, "w": w, "x": x}
        return concat(z_parts, "rows" if policy == "tensor" else "cols")

    # -- backward ------------------------------------------------------

    def multiply_backward(self, lid: int, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ctx = self._ctx.pop(lid, None)
        if ctx is None:
            raise RuntimeError(f"backward for layer {lid} without a matching forward")
        if ctx["policy"] == "master":
            w, x = ctx["w"], ctx["x"]
            return x @ delta.T, delta.T @ w
        if delta.shape != (ctx["w"].shape[0], ctx["x"].shape[1]):
            raise ShapeError(
                f"backward delta {delta.shape} does not match product shape "
                f"({ctx['w'].shape[0]}, {ctx['x'].shape[1]})"
            )
        records = ctx["records"]
        if ctx["policy"] == "tensor":
            delta_parts = split(delta, "rows", len(records))
        else:
            delta_parts = split(delta, "cols", len(records))

        if self.reuse_backward:
            t1_parts, t2_parts = self._backward_reuse(lid, records, delta_parts)
        else:
            t1_parts, t2_parts = self._backward_naive(lid, records, delta_parts)

        if ctx["policy"] == "tensor":
            return concat(t1_parts, "cols"), sum_all(t2_parts)
        return sum_all(t1_parts), concat(t2_parts, "rows")

    def _backward_reuse(self, lid, records, delta_parts):
        """One fresh blinded matrix per shard: the transposed delta under
        the key rotated by two; the worker multiplies it against the pair
        it already holds."""
        tags = []
        for j, rec in enumerate(records):
            d_t = np.ascontiguousarray(delta_parts[j].T)
            rec["d_t"] = d_t
            d_enc = enc_left(key_shift(rec["sk"], 2), d_t)
            self.stats.matrices_encrypted += 1
            tags.append(self.pool.conn(j).request(MultBwd(lid, j, d_enc)))
            self.stats.products_offloaded += 2
        t1_parts, t2_parts = [], []
        for j, rec in enumerate(records):
            (m, n), p = rec["w"].shape, rec["x"].shape[1]
            reply = self.pool.conn(j).collect(tags[j], ((n, m), (p, n)))
            sk, d_t = rec["sk"], rec["d_t"]
            t1_parts.append(self._dec(key_shift(sk, 1), reply.matrices[0], rec["x"], d_t))
            t2_parts.append(self._dec(key_shift(sk, 2), reply.matrices[1], d_t, rec["w"]))
        return t1_parts, t2_parts

    def _backward_naive(self, lid, records, delta_parts):
        """Reference mode: no operand reuse.  Both backward products are
        shipped as independently keyed, freshly blinded pairs, so four
        matrices are blinded per shard where reuse needs one."""
        sent = []
        for j, rec in enumerate(records):
            d_t = np.ascontiguousarray(delta_parts[j].T)
            x, w = rec["x"], rec["w"]
            conn = self.pool.conn(j)
            k1 = kgen(x.shape[0], x.shape[1], d_t.shape[1], self.keys.keyspace, self._rng)
            a1, b1 = enc_left(k1, x), enc_right(k1, d_t)
            store1 = conn.request(StorePair(lid, j, a1, b1))
            tag1 = conn.request(MultFwd(lid, j))
            k2 = kgen(d_t.shape[0], d_t.shape[1], w.shape[1], self.keys.keyspace, self._rng)
            a2, b2 = enc_left(k2, d_t), enc_right(k2, w)
            store2 = conn.request(StorePair(lid, j, a2, b2))
            tag2 = conn.request(MultFwd(lid, j))
            self.stats.matrices_encrypted += 4
            self.stats.products_offloaded += 2
            sent.append((k1, k2, d_t, store1, tag1, store2, tag2))
        t1_parts, t2_parts = [], []
        for j, rec in enumerate(records):
            k1, k2, d_t, store1, tag1, store2, tag2 = sent[j]
            (m, n), p = rec["w"].shape, rec["x"].shape[1]
            conn = self.pool.conn(j)
            conn.collect(store1, ())  # store ack
            r1 = conn.collect(tag1, ((n, m),))
            t1_parts.append(self._dec(k1, r1.matrices[0], rec["x"], d_t))
            conn.collect(store2, ())
            r2 = conn.collect(tag2, ((p, n),))
            t2_parts.append(self._dec(k2, r2.matrices[0], d_t, rec["w"]))
        return t1_parts, t2_parts


def _integrity_rounds(t: float, task: str, pool_size: int, net: nn.Network,
                      epochs: int = 1, dataset_size: int = 1, batch_size: int = 1) -> int:
    return min_rounds(IntegrityConfig(
        t=t,
        task=task,
        n_epochs=max(epochs, 1),
        dataset_size=dataset_size,
        batch_size=batch_size,
        n_workers=pool_size,
        n_layers=len(net.linears),
    ))


def run_training(
    net: nn.Network,
    dataset,
    pool: WorkerPool,
    *,
    learning_rate: float,
    batch_size: int,
    epochs: int,
    seed: int = 0,
    t: float = 0.01,
    keyspace: int = 255,
    plan: PartitionPlan | None = None,
    pipelined: bool = False,
    reuse_backward: bool = True,
    tolerance: float = 1e-8,
):
    """Train over the pool and report.  Verification failures abort the
    run (the failing step commits nothing); honest workers never trip a
    probe, so completion means every product checked out."""
    plan = plan or plan_partition(net, pool.size)
    n_samples = dataset.features.shape[1]
    rounds = _integrity_rounds(t, "training", pool.size, net,
                               epochs=epochs, dataset_size=n_samples, batch_size=batch_size)
    executor = EncryptedExecutor(
        pool, plan, rounds=rounds, keyspace=KeySpaceConfig(keyspace),
        seed=seed, pipelined=pipelined, reuse_backward=reuse_backward,
        tolerance=tolerance,
    )
    executor.attach_network(net)

    epoch_log: list[dict] = []
    last_mark = time.perf_counter()

    def on_epoch(epoch: int, mean_loss: float):
        nonlocal last_mark
        now = time.perf_counter()
        epoch_log.append({"epoch": epoch, "loss": mean_loss, "seconds": now - last_mark})
        last_mark = now

    nn.train(net, dataset, nn.TrainConfig(learning_rate, batch_size, epochs, seed),
             executor, on_epoch)

    report = {
        "final_loss": epoch_log[-1]["loss"] if epoch_log else None,
        "accuracy": nn.accuracy(net, dataset),  # local pass, keeps offload counters exact
        "verification_rounds_per_product": rounds,
        "stats": executor.stats.as_dict(),
        "epochs": epoch_log,
    }
    return net, executor.stats, report


def run_inference(
    net: nn.Network,
    x: np.ndarray,
    pool: WorkerPool,
    *,
    seed: int = 0,
    t: float = 0.01,
    keyspace: int = 255,
    plan: PartitionPlan | None = None,
) -> np.ndarray:
    """Class predictions for a batch of column samples, every product
    offloaded and verified."""
    plan = plan or plan_partition(net, pool.size)
    rounds = _integrity_rounds(t, "inference", pool.size, net)
    executor = EncryptedExecutor(pool, plan, rounds=rounds,
                                 keyspace=KeySpaceConfig(keyspace), seed=seed)
    return nn.predict(net, x, executor)
