"""Trusted coordinator.

The coordinator owns the plaintext network and data.  For every linear
layer it blinds the operands under a per-epoch key, ships them to the
workers, verifies what comes back with randomized probes, and unblinds.
The backward pass reuses the pair each worker already holds: only the
transposed delta is freshly blinded (one matrix instead of the four a
from-scratch approach would need), shipped under the key rotated by
two, and the two returned products decrypt under rotations one and two.

Every offloaded product takes one path.  A call sends all its requests
first: a freshly blinded pair as a StorePair or, in the reuse backward
mode, the blinded delta as a MultBwd.  Then one collector receives the
replies in send order, verifies every product each carries and
unblinds it into its block of the result; the probe sides of the
checks are computed before the first collect, while the workers
multiply.  The reuse and the reference backward modes differ only in
the requests they queue.

The network is the partition plan: the executor reads each layer's
policy from the network it serves and cuts the layer by shard_layout.
"tensor" splits the weight by output rows and "data" the batch by
columns, one shard per worker, clipped to the dim it cuts; "master" is
a layout with no shards, whose products the executor computes itself.
Each shard gets an independent key, so workers cannot pool what they
see, and keys are refreshed every epoch.
"""
from __future__ import annotations

import hashlib
import socket
import struct
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

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
    probe_sides,
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
    up or stalled past the socket timeout.  One raised inside an
    executor call names where (see _attribute); otherwise its layer,
    shard and address are None."""

    layer: int | None = None
    shard: int | None = None
    address: str | None = None


def _attribute(exc: Exception, lid: int, j: int, conn: WorkerConnection,
               direction: str | None = None) -> None:
    """Record on exc the layer, shard and worker address of the request
    it was raised for, and the product's direction if given (an
    IntegrityFailure's), and append them to its message."""
    exc.layer, exc.shard, exc.address = lid, j, conn.address
    where = f"layer {lid}, shard {j}, "
    if direction is not None:
        exc.direction = direction
        where += f"{direction}, "
    exc.args = (f"{exc} ({where}worker {conn.address})",)


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
    """The shards of one layer product under its layer's policy.

    "tensor" cuts W's m rows and ships all of X to each shard; "data"
    cuts X's p columns and ships all of W.  Either is clipped to the dim
    it cuts and sized by shard_slices, so the forward product, the
    pipelined pre-blinding and the backward delta all split alike.
    "master" has no shards: nothing of the layer leaves the coordinator.
    """
    if policy == "master":
        return []
    if policy == "tensor":
        return [Shard(r, slice(0, p), (r.stop - r.start, n, p))
                for r in shard_slices(m, min(shards, m))]
    return [Shard(slice(0, m), c, (m, n, c.stop - c.start))
            for c in shard_slices(p, min(shards, p))]


def _operands(policy: str, sh: Shard, w: np.ndarray, x: np.ndarray) -> tuple:
    """The shard's slices of W and X.  The operand every shard shares
    (W under "data", X under "tensor") is passed whole, as the same
    object, so probe_sides sees that it is shared."""
    return (w, x[:, sh.cols]) if policy == "data" else (w[sh.rows], x)


def _derive_seed(master_seed: int, epoch: int, layer_id: int, shard_id: int,
                 m: int, n: int, p: int) -> int:
    """Stable per-key seed, independent of the order keys are first used
    (pipelined and unpipelined runs must agree bitwise)."""
    packed = struct.pack("<7q", master_seed, epoch, layer_id, shard_id, m, n, p)
    return int.from_bytes(hashlib.blake2b(packed, digest_size=8).digest(), "little")


class EpochKeys:
    """Per-epoch key store.  Keys never leave this process; the map is
    dropped wholesale on refresh so nothing outlives its epoch.  The
    master seed must fit the signed 64-bit integer _derive_seed packs."""

    def __init__(self, master_seed: int, keyspace: KeySpaceConfig):
        if not 0 <= master_seed <= 2**63 - 1:
            raise ValueError(f"seed must be in [0, 2**63 - 1], got {master_seed}")
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
    share.  `failure` names what closed the connection with replies
    unread, if anything did; `address` is the worker's host:port as the
    socket reports its peer."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        peer = sock.getpeername()
        self.address = f"{peer[0]}:{peer[1]}" if isinstance(peer, tuple) else repr(peer)
        self._next_tag = 0
        self.wire = WireBuffer()
        self.failure: str | None = None

    def request(self, msg) -> int:
        """Send one request; a worker that hung up, or a connection
        closed after a failure, is a WorkerFault."""
        tag = self._next_tag
        if self.failure is not None:
            raise WorkerFault(f"cannot send request {tag} ({type(msg).__name__}): "
                              f"the connection was closed after {self.failure}")
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
            raise WorkerFault(f"expected result for request {tag}, got {type(reply).__name__} "
                              f"for request {getattr(reply, 'request_tag', None)}")
        got = tuple(m.shape for m in reply.matrices)
        if got != shapes:
            raise WorkerFault(f"result for request {tag} carries shapes {got}, expected {shapes}")
        return reply

    def call(self, msg, shapes: tuple) -> Result:
        return self.collect(self.request(msg), shapes)

    def close(self, failure: BaseException | None = None):
        """Close the socket; a failure given is kept, if it is the first."""
        if failure is not None and self.failure is None:
            self.failure = f"{type(failure).__name__}: {failure}"
        try:
            self._sock.close()
        except OSError:
            pass


class WorkerPool:
    """Connections to all workers, greeted and configured, sharing one
    wire buffer.  Sharing it is safe because a request is fully handed
    to the kernel before `request` returns, and the executor unblinds
    every reply before it collects the next.

    The pool also keeps the last forward output it handed out for each
    layer id (layer_output), so that a layer whose previous output is
    dead writes its next one into pages already mapped: on a run of
    inference calls that is every call after the first.  It keeps at
    most one array per layer."""

    def __init__(self, connections: list[WorkerConnection]):
        if not connections:
            raise ValueError("worker pool cannot be empty")
        self.connections = connections
        self.wire = WireBuffer()
        for conn in connections:
            conn.wire = self.wire
        self._outputs: dict[int, np.ndarray] = {}

    def layer_output(self, lid: int, shape: tuple[int, int]) -> np.ndarray:
        """An uninitialized C-contiguous float64 array of `shape` that owns
        its data and that nothing outside the pool refers to.

        That is layer lid's last output again if its shape matches and
        nothing refers to it but the pool's own entry: no caller, no view
        (a view refers to the array that owns its memory) and no
        executor holding it as an operand.  CPython's reference count
        tells, as for ndarray.resize(refcheck=True); it is taken on the
        dict lookup, not on a local name, so it counts exactly the
        entry and the call's argument.  Otherwise a new array is
        allocated, and kept in place of the old one."""
        outputs = self._outputs
        if lid in outputs and outputs[lid].shape == shape \
                and sys.getrefcount(outputs[lid]) == 2:
            return outputs[lid]
        z = outputs[lid] = np.empty(shape)
        return z

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

    def close(self, failure: BaseException | None = None):
        """Close every connection.  A failure that left replies unread
        is kept, so a later request names it (WorkerConnection.request)."""
        for c in self.connections:
            c.close(failure)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class _Product(NamedTuple):
    """One product a queued request's reply carries: its key and plaintext
    operands, the block of the result it is unblinded into (added to it
    where add is set), and the layer and direction ("forward",
    "backward T1" or "backward T2") a failure names."""

    sk: SecretKey
    a: np.ndarray
    b: np.ndarray
    block: np.ndarray
    add: bool
    layer: int
    direction: str


class EncryptedExecutor(nn.MatMulExecutor):
    """Offloading backend for the training loop over `net`, whose
    layer `lid` is split by the policy of net.linears[lid] into at most
    pool.size shards (shard_layout).  A layer with no shards ("master")
    it multiplies itself, in plaintext: w @ x forward, x @ delta.T and
    delta.T @ w backward, with the same pairing and shape checks.

    A sent request is queued as (shard, tag, products), one _Product per
    product its reply carries, and _finish collects, verifies and
    unblinds the queue in send order.  A WorkerFault or IntegrityFailure
    raised for a request names its layer, shard and worker address (and
    the product's direction).  A failure that leaves a queued reply
    unread closes the pool, whose later requests then raise a
    WorkerFault naming that failure.

    A forward output is the pool's layer_output for its layer, so a
    layer's previous output is written over once nothing refers to it.

    rounds is the per-product probe count (see min_rounds).  With
    pipelined=True the executor blinds the next layer's weight shards
    while the current layer's requests are in flight, as nn.forward
    calls them: with the network's weights and one batch width for all
    layers.  A pre-blinded weight is sent only under the key and from
    the weight it was blinded for; otherwise it is blinded afresh.
    Results are bitwise identical either way because keys derive from
    (epoch, layer, shard, dims), not from call order.
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
        # per layer awaiting its backward: w, x and each shard's key
        self._held: dict[int, tuple[np.ndarray, np.ndarray, list[SecretKey]]] = {}
        # (layer, shard) -> the key and weight a pre-blinded weight shard serves
        self._pre_enc: dict[tuple[int, int], tuple[SecretKey, np.ndarray, np.ndarray]] = {}

    def start_epoch(self, epoch: int) -> None:
        self.keys.refresh(epoch)
        self._pre_enc.clear()

    def _send(self, lid: int, j: int, msg) -> int:
        """Send msg to shard j; a WorkerFault names the layer and shard."""
        conn = self.pool.conn(j)
        try:
            return conn.request(msg)
        except WorkerFault as exc:
            _attribute(exc, lid, j, conn)
            raise

    def _store(self, j: int, product: _Product, a_enc: np.ndarray | None = None) -> tuple:
        """Blind the product's (a, b) under its key into the pool's wire
        buffer, send them to shard j as one StorePair, answered by their
        blinded product, and return the request for _finish.  a_enc, if
        given, is a already blinded under the key."""
        sk, a, b, lid = product.sk, product.a, product.b, product.layer
        a_out, b_out = self.pool.wire.matrices(a.shape, b.shape)
        if a_enc is None:
            a_enc = enc_left(sk, a, out=a_out)
            self.stats.matrices_encrypted += 1
        b_enc = enc_right(sk, b, out=b_out)
        self.stats.matrices_encrypted += 1
        tag = self._send(lid, j, StorePair(lid, j, a_enc, b_enc))
        self.stats.products_offloaded += 1
        return j, tag, [product]

    @contextmanager
    def _requests(self):
        """The queue of one call's sent requests.  A failure that leaves
        any of them unread closes the pool: their replies could only be
        misread as answers to later requests."""
        pending: list = []
        try:
            yield pending
        except BaseException as exc:
            if pending:
                self.pool.close(exc)
            raise

    def _finish(self, pending: list) -> None:
        """Collect every queued request's reply in send order, and verify
        and unblind each product a reply carries: into its block, or
        added to it where add is set.  Each is done before the next
        collect receives over it in the wire buffer, and a request leaves
        the queue once its reply is read.  A failed collect or check
        names the request's layer, shard and worker (see _attribute).

        Before the first collect, while the workers multiply, the probe
        side of every queued product is computed in one probe_sides call,
        so an operand the call's products share is probed once; each
        product's dec then only checks its reply."""
        sides = iter(probe_sides([(pr.a, pr.b) for _, _, products in pending
                                  for pr in products], self.rounds, self._rng))
        while pending:
            j, tag, products = pending[0]
            conn = self.pool.conn(j)
            try:
                reply = conn.collect(tag, tuple((pr.a.shape[0], pr.b.shape[1])
                                                for pr in products))
            except WorkerFault as exc:
                _attribute(exc, products[0].layer, j, conn)
                raise
            del pending[0]
            for c_enc, (sk, a, b, block, add, lid, direction) in zip(reply.matrices, products):
                self.stats.matrices_decrypted += 1
                self.stats.verification_rounds += self.rounds
                try:
                    c = dec(sk, c_enc, a, b, self.rounds, self._rng,
                            out=None if add else block, probe=next(sides))
                except IntegrityFailure as exc:
                    self.stats.failures += 1
                    _attribute(exc, lid, j, conn, direction)
                    raise
                if add:
                    block += c

    def _pre_encrypt_next(self, lid: int, batch_width: int) -> None:
        if lid + 1 == len(self.net.linears):
            return
        nxt = self.net.linears[lid + 1]
        for j, sh in enumerate(shard_layout(nxt.policy, self.pool.size, *nxt.W.shape,
                                            batch_width)):
            sk = self.keys.get(lid + 1, j, *sh.dims)
            # a new array: it must outlive the collects before its send
            self._pre_enc[(lid + 1, j)] = (sk, nxt.W, enc_left(sk, nxt.W[sh.rows]))
            self.stats.matrices_encrypted += 1

    # -- forward -------------------------------------------------------

    def multiply_forward(self, lid: int, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        if w.shape[1] != x.shape[0]:
            raise ShapeError(f"forward product: {w.shape} x {x.shape}")
        policy = self.net.linears[lid].policy
        p = x.shape[1]
        layout = shard_layout(policy, self.pool.size, *w.shape, p)
        if not layout:
            self._held[lid] = (w, x, [])
            return w @ x
        z = self.pool.layer_output(lid, (w.shape[0], p))  # each shard unblinds into its block
        keys = []
        with self._requests() as pending:
            for j, sh in enumerate(layout):
                wj, xj = _operands(policy, sh, w, x)
                sk = self.keys.get(lid, j, *sh.dims)
                pre = self._pre_enc.pop((lid, j), None)
                w_enc = pre[2] if pre and pre[0] is sk and pre[1] is w else None
                product = _Product(sk, wj, xj, z[sh.rows, sh.cols], False, lid, "forward")
                pending.append(self._store(j, product, w_enc))
                keys.append(sk)
            if self.pipelined:
                self._pre_encrypt_next(lid, p)
            self._finish(pending)
        self._held[lid] = (w, x, keys)
        return z

    # -- backward ------------------------------------------------------

    def multiply_backward(self, lid: int, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        policy = self.net.linears[lid].policy
        held = self._held.pop(lid, None)
        if held is None:
            raise RuntimeError(f"backward for layer {lid} without a matching forward")
        w, x, keys = held
        (m, n), p = w.shape, x.shape[1]
        if delta.shape != (m, p):
            raise ShapeError(
                f"backward delta {delta.shape} does not match product shape ({m}, {p})")
        layout = shard_layout(policy, self.pool.size, m, n, p)
        if not layout:
            return x @ delta.T, delta.T @ w
        t1, t2 = np.empty((n, m)), np.empty((p, n))
        with self._requests() as pending:
            for j, (sh, sk) in enumerate(zip(layout, keys)):
                wj, xj = _operands(policy, sh, w, x)
                d_t = np.ascontiguousarray(delta[sh.rows, sh.cols].T)
                # All shards write one block whole: T2 under "tensor", T1 under "data".
                # Shard 0 unblinds into it; later shards add theirs in shard order.
                t1_part = (xj, d_t, t1[:, sh.rows], j > 0 and policy == "data",
                           lid, "backward T1")
                t2_part = (d_t, wj, t2[sh.cols], j > 0 and policy == "tensor",
                           lid, "backward T2")
                if self.reuse_backward:
                    # the transposed delta under the key rotated by two; the
                    # worker multiplies it against the pair it still holds
                    k2 = key_shift(sk, 2)
                    d_enc = enc_left(k2, d_t, out=self.pool.wire.matrices(d_t.shape)[0])
                    self.stats.matrices_encrypted += 1
                    tag = self._send(lid, j, MultBwd(lid, j, d_enc))
                    self.stats.products_offloaded += 2
                    pending.append((j, tag, [_Product(key_shift(sk, 1), *t1_part),
                                             _Product(k2, *t2_part)]))
                else:
                    # reference mode: two independently keyed, freshly blinded pairs
                    mj, _, pj = sh.dims
                    k1 = kgen(n, pj, mj, self.keys.keyspace, self._rng)
                    pending.append(self._store(j, _Product(k1, *t1_part)))
                    k2 = kgen(pj, mj, n, self.keys.keyspace, self._rng)
                    pending.append(self._store(j, _Product(k2, *t2_part)))
            self._finish(pending)
        return t1, t2


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
):
    """Train over the pool and report.  Verification failures abort the
    run (the failing step commits nothing); honest workers never trip a
    probe, so completion means every product checked out."""
    n_samples = dataset.features.shape[1]
    rounds = _integrity_rounds(t, "training", pool.size, net,
                               epochs=epochs, dataset_size=n_samples, batch_size=batch_size)
    executor = EncryptedExecutor(pool, net, rounds=rounds, keyspace=KeySpaceConfig(keyspace),
                                 seed=seed, pipelined=pipelined)
    epoch_log = nn.train(net, dataset, nn.TrainConfig(learning_rate, batch_size, epochs, seed),
                         executor)
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
