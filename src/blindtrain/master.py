"""Trusted coordinator.

The coordinator owns the plaintext network and data.  For every linear
layer it blinds the operands under a per-epoch key, ships them to the
workers, verifies what comes back with randomized probes, and unblinds.
The backward pass reuses the pair each worker already holds: only the
transposed delta is freshly blinded (one matrix instead of the four a
from-scratch approach would need), shipped under the key rotated by
two, and the two returned products decrypt under rotations one and two.

The network is the partition plan: the executor reads each layer's
policy from the network it serves.  "tensor" splits the weight by
output rows, "data" splits the batch by columns, "master" keeps the
product local.  An offloaded layer is cut into one shard per worker,
clipped to the dim it cuts (shard_layout).  Each shard gets an
independent key, so workers cannot pool what they see, and keys are
refreshed every epoch.
"""
from __future__ import annotations

import hashlib
import socket
import struct
import time
from dataclasses import dataclass

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
from .protocol import Config, Hello, MultBwd, Result, StorePair
from .tensor import ShapeError, make_rng, shard_slices

__all__ = [
    "Shard",
    "shard_layout",
    "EpochKeys",
    "OffloadStats",
    "WorkerFault",
    "WireBuffer",
    "WorkerConnection",
    "WorkerPool",
    "EncryptedExecutor",
    "run_training",
    "run_inference",
]


class WorkerFault(RuntimeError):
    """A worker answered with an error frame, broke the protocol, hung
    up or stalled past the socket timeout."""


_ERROR_PAYLOAD_CAP = 1 << 16  # largest ERROR payload a coordinator reads


@dataclass(frozen=True)
class Shard:
    """One shard of a layer product W (m x n) @ X (n x p): the rows of W
    and the columns of X it multiplies, which also index its block of
    the product, and the (m, n, p) dims of its own product."""

    rows: slice
    cols: slice
    dims: tuple[int, int, int]


def shard_layout(policy: str, shards: int, m: int, n: int, p: int) -> list[Shard]:
    """The shards of one offloaded product under its layer's policy.

    "tensor" cuts W's m rows and ships all of X to each shard; "data"
    cuts X's p columns and ships all of W.  Either is clipped to the dim
    it cuts and sized by shard_slices, so the forward product, the
    pipelined pre-blinding and the backward delta all split alike.
    """
    if policy == "tensor":
        return [Shard(r, slice(0, p), (r.stop - r.start, n, p))
                for r in shard_slices(m, min(shards, m))]
    return [Shard(slice(0, m), c, (m, n, c.stop - c.start))
            for c in shard_slices(p, min(shards, p))]


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


class WireBuffer:
    """One grow-only byte buffer that the coordinator blinds the
    operands it sends into and receives every reply into.

    Reusing it spares the kernel mapping and zeroing fresh pages for
    every MiB-sized operand and reply.  Whatever it holds lasts only
    until its next use: a request's operands until the request is sent,
    a reply until the next reply is received.
    """

    def __init__(self):
        self.data = np.empty(0, np.uint8)

    def __call__(self, nbytes: int) -> np.ndarray:
        """The buffer's first nbytes, grown to hold them; a grown buffer
        keeps none of what the old one held."""
        if self.data.size < nbytes:
            self.data = np.empty(nbytes, np.uint8)
        return self.data[:nbytes]

    def matrices(self, *shapes) -> list[np.ndarray]:
        """float64 matrices of these shapes, laid end to end from the
        start of the buffer."""
        data = self(8 * sum(r * c for r, c in shapes))
        out, offset = [], 0
        for r, c in shapes:
            out.append(np.ndarray((r, c), np.float64, data, offset))
            offset += 8 * r * c
        return out


class WorkerConnection:
    """One socket to one worker.  Requests are answered in order; every
    send returns the tag its reply must carry.  Replies are received
    into `wire`, which a pool replaces with the one its connections
    share."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._next_tag = 0
        self.wire = WireBuffer()

    def request(self, msg) -> int:
        """Send one request; a worker that hung up is a WorkerFault."""
        tag = self._next_tag
        try:
            protocol.send_message(self._sock, msg)
        except OSError as exc:
            raise WorkerFault(
                f"cannot send request {tag} ({type(msg).__name__}): {exc!r}") from exc
        self._next_tag += 1
        return tag

    def collect(self, tag: int, shapes: tuple) -> Result:
        """The reply to request `tag`: a RESULT carrying matrices of
        exactly `shapes` (() for an ack).  A frame declaring more payload
        than that, or than an ERROR frame's cap, is refused from its
        header before its body is read or the buffer grows for it.  A
        worker that hangs up or stalls past the socket timeout is a
        WorkerFault too.

        The reply is received into the connection's wire buffer, and its
        matrices are views into it: they stay valid until that buffer is
        next written, by the next blinded operand or the next collect on
        any connection of the pool.  Unblind them before either."""
        bound = max(protocol.result_size(shapes), _ERROR_PAYLOAD_CAP)
        try:
            reply = protocol.read_message(self._sock, bound, self.wire)
        except (protocol.ProtocolError, UnicodeDecodeError) as exc:
            raise WorkerFault(f"bad reply to request {tag}: {exc}") from exc
        except OSError as exc:  # reset, closed mid-frame, timed out
            raise WorkerFault(f"no reply to request {tag}: {exc!r}") from exc
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
    """Connections to all workers, greeted and configured, sharing one
    wire buffer.  Sharing it is safe because a request is fully handed
    to the kernel before `request` returns, and the executor unblinds
    every reply before it collects the next."""

    def __init__(self, connections: list[WorkerConnection]):
        if not connections:
            raise ValueError("worker pool cannot be empty")
        self.connections = connections
        self.wire = WireBuffer()
        for conn in connections:
            conn.wire = self.wire

    @classmethod
    def connect(cls, addresses: list[tuple[str, int]], n_layers: int,
                timeout: float = 30.0) -> "WorkerPool":
        conns = []
        try:
            for host, port in addresses:
                try:
                    sock = socket.create_connection((host, port), timeout=timeout)
                except OSError as exc:
                    raise ConnectionError(
                        f"worker at {host}:{port} unreachable: {exc}") from exc
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                conn = WorkerConnection(sock)
                conns.append(conn)
                conn.call(Hello(), ())
                conn.call(Config(n_layers), ())
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
    """Offloading backend for the training loop over `net`, whose
    layer `lid` is split by the policy of net.linears[lid] into
    pool.size shards.

    rounds is the per-product probe count (see min_rounds).  With
    pipelined=True the executor blinds the next layer's weight shards
    while the current layer's requests are in flight, as nn.forward
    calls them: with the network's weights and one batch width for all
    layers.  Results are bitwise identical either way because keys
    derive from (epoch, layer, shard, dims), not from call order.
    reuse_backward=False is the reference accounting mode: the backward
    products are shipped as two freshly blinded pairs (four matrices)
    instead of one.
    """

    def __init__(
        self,
        pool: WorkerPool,
        net: nn.Network,
        *,
        rounds: int,
        keyspace: KeySpaceConfig | None = None,
        seed: int = 0,
        pipelined: bool = False,
        reuse_backward: bool = True,
    ):
        self.pool = pool
        self.net = net
        self.rounds = rounds
        self.pipelined = pipelined
        self.reuse_backward = reuse_backward
        self.keys = EpochKeys(seed, keyspace or KeySpaceConfig())
        self.stats = OffloadStats()
        self._rng = make_rng(_derive_seed(seed, -1, -1, -1, 0, 0, 0))  # probes, one-off keys
        self._ctx: dict[int, dict] = {}
        self._pre_enc: dict[tuple[int, int], np.ndarray] = {}

    def start_epoch(self, epoch: int) -> None:
        self.keys.refresh(epoch)
        self._pre_enc.clear()

    # -- helpers -------------------------------------------------------

    def _encrypt_weight(self, lid: int, shard: int, sk: SecretKey, w_part: np.ndarray,
                        out: np.ndarray) -> np.ndarray:
        cached = self._pre_enc.pop((lid, shard), None)
        if cached is not None:
            return cached
        self.stats.matrices_encrypted += 1
        return enc_left(sk, w_part, out=out)

    def _dec(self, sk, c_enc, a_plain, b_plain, out=None):
        self.stats.matrices_decrypted += 1
        self.stats.verification_rounds += self.rounds
        try:
            return dec(sk, c_enc, a_plain, b_plain, self.rounds, self._rng, out=out)
        except IntegrityFailure:
            self.stats.failures += 1
            raise

    def _pre_encrypt_next(self, lid: int, batch_width: int) -> None:
        if lid + 1 == len(self.net.linears):
            return
        nxt = self.net.linears[lid + 1]
        if nxt.policy == "master":
            return
        for j, sh in enumerate(shard_layout(nxt.policy, self.pool.size, *nxt.W.shape,
                                            batch_width)):
            sk = self.keys.get(lid + 1, j, *sh.dims)
            # a new array: it must outlive the collects before its send
            self._pre_enc[(lid + 1, j)] = enc_left(sk, nxt.W[sh.rows])
            self.stats.matrices_encrypted += 1

    # -- forward -------------------------------------------------------

    def multiply_forward(self, lid: int, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        if w.shape[1] != x.shape[0]:
            raise ShapeError(f"forward product: {w.shape} x {x.shape}")
        policy = self.net.linears[lid].policy
        if policy == "master":
            self._ctx[lid] = {"w": w, "x": x}
            return w @ x

        p = x.shape[1]
        records = []
        for j, sh in enumerate(shard_layout(policy, self.pool.size, *w.shape, p)):
            wj, xj = w[sh.rows], x[:, sh.cols]
            sk = self.keys.get(lid, j, *sh.dims)
            w_out, x_out = self.pool.wire.matrices(wj.shape, xj.shape)
            w_enc = self._encrypt_weight(lid, j, sk, wj, w_out)
            x_enc = enc_right(sk, xj, out=x_out)
            self.stats.matrices_encrypted += 1
            tag = self.pool.conn(j).request(StorePair(lid, j, w_enc, x_enc))
            self.stats.products_offloaded += 1
            records.append({"sk": sk, "w": wj, "x": xj, "shard": sh, "tag": tag})

        if self.pipelined:
            self._pre_encrypt_next(lid, p)

        z = np.empty((w.shape[0], p))  # each shard unblinds into its block
        for j, rec in enumerate(records):
            sh = rec["shard"]
            reply = self.pool.conn(j).collect(rec["tag"], ((sh.dims[0], sh.dims[2]),))
            self._dec(rec["sk"], reply.matrices[0], rec["w"], rec["x"], out=z[sh.rows, sh.cols])

        self._ctx[lid] = {"records": records, "w": w, "x": x}
        return z

    # -- backward ------------------------------------------------------

    def multiply_backward(self, lid: int, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ctx = self._ctx.pop(lid, None)
        if ctx is None:
            raise RuntimeError(f"backward for layer {lid} without a matching forward")
        policy = self.net.linears[lid].policy
        if policy == "master":
            w, x = ctx["w"], ctx["x"]
            return x @ delta.T, delta.T @ w
        (m, n), p = ctx["w"].shape, ctx["x"].shape[1]
        if delta.shape != (m, p):
            raise ShapeError(
                f"backward delta {delta.shape} does not match product shape ({m}, {p})")
        t1, t2 = np.empty((n, m)), np.empty((p, n))
        # All shards write one block whole: T2 under "tensor", T1 under "data".
        # Shard 0 unblinds into it; later shards add theirs in shard order.
        shared = (policy == "data", policy == "tensor")
        # A sender ships one shard's requests and returns the keys that
        # unblind T1 and T2 and the (tag, reply shapes) of each request;
        # the replies carry T1, then T2.
        send = self._send_reuse if self.reuse_backward else self._send_naive
        sent = []
        for j, rec in enumerate(ctx["records"]):
            sh = rec["shard"]
            d_t = np.ascontiguousarray(delta[sh.rows, sh.cols].T)
            sent.append((rec, d_t, *send(lid, j, rec, d_t)))
        for j, (rec, d_t, keys, requests) in enumerate(sent):
            conn, sh = self.pool.conn(j), rec["shard"]
            # lazily, so each reply is unblinded before the next one is
            # received over it in the pool's wire buffer
            products = (c for tag, shapes in requests for c in conn.collect(tag, shapes).matrices)
            operands = ((rec["x"], d_t), (d_t, rec["w"]))
            blocks = (t1[:, sh.rows], t2[sh.cols])
            for sk, c_enc, (a, b), block, summed in zip(keys, products, operands, blocks, shared):
                if j and summed:
                    block += self._dec(sk, c_enc, a, b)
                else:
                    self._dec(sk, c_enc, a, b, out=block)
        return t1, t2

    def _send_reuse(self, lid, j, rec, d_t):
        """One fresh blinded matrix per shard: the transposed delta under
        the key rotated by two; the worker multiplies it against the pair
        it already holds."""
        m, n, p = rec["shard"].dims
        k1, k2 = key_shift(rec["sk"], 1), key_shift(rec["sk"], 2)
        d_enc = enc_left(k2, d_t, out=self.pool.wire.matrices(d_t.shape)[0])
        self.stats.matrices_encrypted += 1
        tag = self.pool.conn(j).request(MultBwd(lid, j, d_enc))
        self.stats.products_offloaded += 2
        return (k1, k2), [(tag, ((n, m), (p, n)))]

    def _send_naive(self, lid, j, rec, d_t):
        """Reference mode: no operand reuse.  Both backward products are
        shipped as independently keyed, freshly blinded pairs, so four
        matrices are blinded per shard where reuse needs one."""
        m, n, p = rec["shard"].dims
        x, w = rec["x"], rec["w"]
        conn, wire = self.pool.conn(j), self.pool.wire
        k1 = kgen(n, p, m, self.keys.keyspace, self._rng)
        a1, b1 = wire.matrices(x.shape, d_t.shape)
        tag1 = conn.request(StorePair(lid, j, enc_left(k1, x, out=a1), enc_right(k1, d_t, out=b1)))
        k2 = kgen(p, m, n, self.keys.keyspace, self._rng)
        a2, b2 = wire.matrices(d_t.shape, w.shape)
        tag2 = conn.request(StorePair(lid, j, enc_left(k2, d_t, out=a2), enc_right(k2, w, out=b2)))
        self.stats.matrices_encrypted += 4
        self.stats.products_offloaded += 2
        return (k1, k2), [(tag1, ((n, m),)), (tag2, ((p, n),))]


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
    pipelined: bool = False,
    reuse_backward: bool = True,
):
    """Train over the pool and report.  Verification failures abort the
    run (the failing step commits nothing); honest workers never trip a
    probe, so completion means every product checked out."""
    n_samples = dataset.features.shape[1]
    rounds = _integrity_rounds(t, "training", pool.size, net,
                               epochs=epochs, dataset_size=n_samples, batch_size=batch_size)
    executor = EncryptedExecutor(
        pool, net, rounds=rounds, keyspace=KeySpaceConfig(keyspace),
        seed=seed, pipelined=pipelined, reuse_backward=reuse_backward,
    )

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
) -> np.ndarray:
    """Class predictions for a batch of column samples, every product
    offloaded and verified."""
    rounds = _integrity_rounds(t, "inference", pool.size, net)
    executor = EncryptedExecutor(pool, net, rounds=rounds,
                                 keyspace=KeySpaceConfig(keyspace), seed=seed)
    return nn.predict(net, x, executor)
