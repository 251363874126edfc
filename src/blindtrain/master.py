"""Trusted coordinator.

The coordinator owns the plaintext network and data.  For every linear
layer it blinds the operands under a per-epoch key, ships them to the
workers, verifies what comes back with randomized probes, and unblinds.
The backward pass reuses the pair each worker already holds: only the
delta is freshly blinded (one matrix instead of the four a from-scratch
approach would need), in the forward product's shape and straight from
its block of the caller's delta, and the worker multiplies it against
the transposes of its pair.  The two products come back in the layouts
the update reads, delta @ X^T like W and W^T @ delta like X, and decrypt
under the forward key's transposed rotations (obfuscate.key_transpose):
the coordinator transposes nothing.

Every offloaded product takes one path, EncryptedExecutor._offload.  A
call lists its products once and hands them over with a generator of
its requests: a freshly blinded pair as a StorePair or, in the reuse
backward mode, the blinded delta as a MultBwd.  _offload checks the
operands' peaks against the range a probe can check before the first
request is blinded, so a refused operand is never blinded or sent; it
then sends every request, computes the probe sides while the workers
multiply, and collects the replies in send order, verifying and
unblinding each product into its block of the result.  The reuse and
the reference backward modes differ only in the requests they yield.

The network is the partition plan: the executor reads each layer's
policy from the network it serves and cuts the layer by shard_layout,
the only code that tells policies apart.  "tensor" splits the weight
by output rows and "data" the batch by columns, one shard per worker,
clipped to the dim it cuts; "master" is a layout with no shards, whose
products the executor computes itself.  Each shard carries its cut,
the key slot it owns: 0 (W's rows) or 2 (X's columns).  The slots of
the operand a shard gets whole (X under "tensor", W under "data") are
the layer's, so that operand is blinded once and every shard is sent
the same bytes: two workers of one layer hold it under one key, not
two.  Keys are refreshed every epoch.  The cut decides the rest: an
operand is blinded for shard 0 and each shard that cuts it, forward
and pipelined alike, and a backward product is summed across shards
when it contracts over the cut operand.
"""
from __future__ import annotations

import hashlib
import socket
import struct
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import nn, protocol
from .obfuscate import (
    IntegrityConfig,
    IntegrityFailure,
    KeySlot,
    KeySpaceConfig,
    SecretKey,
    dec,
    enc_left,
    enc_right,
    key_shift,
    key_transpose,
    kgen,
    kslot,
    min_rounds,
    operand_peaks,
    probe_sides,
)
from .protocol import Config, Hello, MultBwd, Result, StorePair
from .tensor import make_rng, shard_slices

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


def _attribute(exc: Exception, lid: int | None, j: int | None,
               conn: WorkerConnection | None = None, direction: str | None = None) -> None:
    """Record on exc the layer, shard and worker address of the request
    it was raised for (layer and shard None outside an executor call,
    address None where no worker is at fault), and the product's
    direction if given, and append those known to its message."""
    exc.layer, exc.shard, exc.address = lid, j, conn and conn.address
    if direction is not None:
        exc.direction = direction
    where = [] if lid is None else [f"layer {lid}", f"shard {j}"]
    where += [s for s in (direction, conn and f"worker {conn.address}") if s]
    exc.args = (f"{exc} ({', '.join(where)})",)


_ERROR_PAYLOAD_CAP = 1 << 16  # largest ERROR payload a coordinator reads


@dataclass(frozen=True)
class Shard:
    """One shard of a layer product W (m x n) @ X (n x p): the rows of W
    and the columns of X it multiplies, which also index its block of
    the product, the (m, n, p) dims of its own product, and `cut`, the
    key slot its layout cuts and the shard owns: 0 (W's rows) under
    "tensor", 2 (X's columns) under "data"."""

    rows: slice
    cols: slice
    dims: tuple[int, int, int]
    cut: int

    def operands(self, w: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The shard's slices of W and X.  The operand every shard shares
        is passed whole, as the same object, so probe_sides sees that it
        is shared."""
        return (w[self.rows], x) if self.cut == 0 else (w, x[:, self.cols])


def shard_layout(policy: str, shards: int, m: int, n: int, p: int) -> list[Shard]:
    """The shards of one layer product under its layer's policy.

    "tensor" cuts W's m rows and ships all of X to each shard; "data"
    cuts X's p columns and ships all of W.  Either is clipped to the dim
    it cuts and sized by shard_slices, so the forward product, the
    pipelined pre-blinding and the backward delta all split alike.
    "master" has no shards: nothing of the layer leaves the coordinator.
    Nor has an empty batch (p = 0), whose product is empty.
    """
    if policy == "master" or p == 0:
        return []
    if policy == "tensor":
        return [Shard(r, slice(0, p), (r.stop - r.start, n, p), 0)
                for r in shard_slices(m, min(shards, m))]
    return [Shard(slice(0, m), c, (m, n, c.stop - c.start), 2)
            for c in shard_slices(p, min(shards, p))]


def _derive_seed(master_seed: int, *fields: int) -> int:
    """Stable seed for what the fields name, independent of the order
    seeds are first asked for (pipelined and unpipelined runs must agree
    bitwise)."""
    packed = struct.pack(f"<{1 + len(fields)}q", master_seed, *fields)
    return int.from_bytes(hashlib.blake2b(packed, digest_size=8).digest(), "little")


class EpochKeys:
    """Per-epoch key store.  Keys never leave this process; the maps are
    dropped wholesale on refresh so nothing outlives its epoch.  The
    master seed must fit the signed 64-bit integer _derive_seed packs.

    The shards of a layer share key slots.  A shard's key for an (m, n,
    p) product takes the slot of the dim its layout cuts (`cut`: 0, W's
    rows, under "tensor"; 2, X's columns, under "data") as its own, and
    the other two from the layer, so every shard's key holds the same
    KeySlot objects for them.  Each slot is drawn by kslot from its own
    seed (master seed, epoch, layer, axis, owner, size), the owner being
    the shard for the cut axis and -1 (the layer) for the others: no key
    depends on the order keys are asked for.  The keys a forward key's
    backward products decrypt under (transposed) are kept beside it."""

    def __init__(self, master_seed: int, keyspace: KeySpaceConfig):
        if not 0 <= master_seed <= 2**63 - 1:
            raise ValueError(f"seed must be in [0, 2**63 - 1], got {master_seed}")
        self.master_seed = master_seed
        self.keyspace = keyspace
        self.epoch = 0
        self._keys: dict[tuple, SecretKey] = {}
        self._transposed: dict[tuple, tuple[SecretKey, SecretKey]] = {}
        self._slots: dict[tuple, KeySlot] = {}

    def refresh(self, epoch: int) -> None:
        self.epoch = epoch
        self._keys.clear()
        self._transposed.clear()
        self._slots.clear()

    def get(self, layer_id: int, shard_id: int, m: int, n: int, p: int, cut: int) -> SecretKey:
        key = (layer_id, shard_id, m, n, p, cut)
        sk = self._keys.get(key)
        if sk is None:
            sk = self._keys[key] = SecretKey(tuple(
                self._slot(layer_id, axis, shard_id if axis == cut else -1, size)
                for axis, size in enumerate((m, n, p))))
        return sk

    def transposed(self, layer_id: int, shard_id: int, m: int, n: int, p: int,
                   cut: int) -> tuple[SecretKey, SecretKey]:
        """The keys of delta @ X^T and W^T @ delta for the product get()
        keys alike: key_transpose(key_shift(sk, 1)) and
        key_transpose(key_shift(sk, 2)), built once an epoch."""
        key = (layer_id, shard_id, m, n, p, cut)
        pair = self._transposed.get(key)
        if pair is None:
            sk = self.get(*key)
            pair = self._transposed[key] = (key_transpose(key_shift(sk, 1)),
                                            key_transpose(key_shift(sk, 2)))
        return pair

    def _slot(self, layer_id: int, axis: int, owner: int, size: int) -> KeySlot:
        slot = (layer_id, axis, owner, size)
        ks = self._slots.get(slot)
        if ks is None:
            rng = make_rng(_derive_seed(self.master_seed, self.epoch, *slot))
            ks = self._slots[slot] = kslot(size, self.keyspace, rng)
        return ks


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
        except protocol.ProtocolError as exc:
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
                try:
                    conn.call(Hello(), ())
                    conn.call(Config(n_layers), ())
                except WorkerFault as exc:
                    _attribute(exc, None, None, conn)
                    raise
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
    """One product an offloaded call's reply carries: the shard that
    computes it, its key and plaintext operands, the block of the result
    it is unblinded into (added to it where add is set), and the layer
    and direction ("forward", "backward T1" or "backward T2") a failure
    names."""

    shard: int
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
    it multiplies itself, in plaintext: w @ x forward, delta @ x.T and
    w.T @ delta backward.  The seam checks the pairing (_hold, _release)
    and keeps, with the pair, the per-shard operand peaks the forward
    scanned, so the backward's range check scans only the delta; the
    backward asks the key store for the transposed keys of the forward's.

    Each call lists its products once, in send order, and hands them to
    _offload with a generator of its requests; _offload refuses, sends,
    probes, collects and closes the pool on a failure (see there).

    A forward output is the pool's layer_output for its layer, so a
    layer's previous output is written over once nothing refers to it.

    Each shard's cut (see Shard) decides what a call blinds for it.  The
    shard keys of a layer share the slots of the operand every shard
    gets whole (see EpochKeys), so a forward call blinds W for shard 0
    and each shard whose cut is 0, X for shard 0 and each shard whose
    cut is 2, and every shard's StorePair sends shard 0's bytes of the
    shared one.  In the pool's wire buffer, W's block comes first and
    X's after shard 0's W block; shard 0's blocks are the largest, so no
    later shard's overwrites the shared one.  The backward sums
    delta @ X^T across shards when X is cut, and W^T @ delta when W is.

    rounds is the per-product probe count (see min_rounds).  With
    pipelined=True the executor blinds the next layer's weight while
    the current layer's requests are in flight, as nn.forward calls
    them, with the network's weights, by the forward's rule: once per
    shard under "tensor", once for all shards under "data".  A weight
    is blinded under the slots of its own two dims alone, which no
    batch width changes, so a pre-blinded weight is sent for any width,
    but only when the layer is called with the very weight array it was
    blinded from; another weight is blinded afresh.  Results are bitwise
    identical either way because keys derive from (epoch, layer, slot
    axis, owner, size), not from call order.
    reuse_backward=False is the reference accounting mode: the backward
    products are shipped as two freshly blinded pairs (four matrices,
    each transposed operand copied contiguous first) instead of one.
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
        super().__init__()
        self.pool = pool
        self.net = net
        self.rounds = rounds
        self.pipelined = pipelined
        self.reuse_backward = reuse_backward
        self.keys = EpochKeys(seed, keyspace or KeySpaceConfig())
        self.stats = OffloadStats()
        self._rng = make_rng(_derive_seed(seed, -1, -1, -1, 0, 0, 0))  # probes, one-off keys
        # layer -> the weight pre-blinded for it and its blinded shards ("data": one)
        self._pre_enc: dict[int, tuple[np.ndarray, list[np.ndarray]]] = {}

    def start_epoch(self, epoch: int) -> None:
        self.keys.refresh(epoch)
        self._pre_enc.clear()

    def _blind(self, enc, sk: SecretKey, a: np.ndarray, out: np.ndarray | None = None):
        """enc (enc_left or enc_right) of a under sk, counted."""
        self.stats.matrices_encrypted += 1
        return enc(sk, a, out=out)

    def _offload(self, products: list[_Product], requests,
                 known: dict[int, float] | None = None) -> list[tuple[float, float]]:
        """Offload one call's products, listed in send order, and return
        their operand peaks.  `requests` yields each request as (message,
        the products its reply carries), blinding its operands into the
        wire buffer only when asked for.

        First the operand peaks of every product are taken, before the
        first request is asked for, so operands past what a probe can
        check under the key space are never blinded or sent: they are an
        OverflowError that names the product's layer, shard and direction
        but no worker, and the pool stays usable.  Operands in `known`
        (id() to peak, see operand_peaks) are not scanned.  Then every
        request is sent, and after the last one, while the workers
        multiply, the probe side of every product is computed in one
        probe_sides call, so an operand the products share is probed
        once.  Then the replies are collected in send order, and each
        product a reply carries is verified and unblinded into its block
        (added to it, one row block at a time, where add is set) before
        the next collect receives over it in the wire buffer.  A failed
        send, collect or check names the request's layer, shard and
        worker (see _attribute).  A failure, one raised by `requests`
        too, that leaves a reply unread closes the pool: that reply could
        only be misread as the answer to a later request."""
        pairs = [(pr.a, pr.b) for pr in products]
        ratio = self.keys.keyspace.size
        try:
            peaks = operand_peaks(pairs, ratio, known)
        except OverflowError as exc:
            pr = products[exc.index]
            _attribute(exc, pr.layer, pr.shard, direction=pr.direction)
            raise
        unread: list = []  # (tag, products) of each request sent, its reply not yet read
        try:
            for msg, carried in requests:
                conn = self.pool.conn(carried[0].shard)
                try:
                    unread.append((conn.request(msg), carried))
                except WorkerFault as exc:
                    _attribute(exc, carried[0].layer, carried[0].shard, conn)
                    raise
                self.stats.products_offloaded += len(carried)
            sides = iter(probe_sides(pairs, self.rounds, self._rng, ratio, peaks))
            while unread:
                tag, carried = unread[0]
                conn = self.pool.conn(carried[0].shard)
                try:
                    reply = conn.collect(tag, tuple((pr.a.shape[0], pr.b.shape[1])
                                                    for pr in carried))
                except WorkerFault as exc:
                    _attribute(exc, carried[0].layer, carried[0].shard, conn)
                    raise
                del unread[0]
                for c_enc, pr in zip(reply.matrices, carried):
                    self.stats.matrices_decrypted += 1
                    self.stats.verification_rounds += self.rounds
                    try:
                        dec(pr.sk, c_enc, pr.a, pr.b, self.rounds, self._rng,
                            out=pr.block, probe=next(sides), add=pr.add)
                    except IntegrityFailure as exc:
                        self.stats.failures += 1
                        _attribute(exc, pr.layer, pr.shard, conn, pr.direction)
                        raise
        except BaseException as exc:
            if unread:
                self.pool.close(exc)
            raise
        return peaks

    def _pre_encrypt_next(self, lid: int, batch_width: int) -> None:
        """Blind layer lid + 1's weight ahead by the forward's rule, for
        shard 0 and each shard that cuts W of a call batch_width wide:
        every shard's rows under "tensor", the whole weight once under
        "data".  Each is a new array: it must outlive the collects before
        its send."""
        if lid + 1 == len(self.net.linears):
            return
        nxt = self.net.linears[lid + 1]
        layout = shard_layout(nxt.policy, self.pool.size, *nxt.W.shape, batch_width)
        self._pre_enc[lid + 1] = (nxt.W, [
            self._blind(enc_left, self.keys.get(lid + 1, j, *sh.dims, sh.cut), nxt.W[sh.rows])
            for j, sh in enumerate(layout) if j == 0 or sh.cut == 0])

    # -- forward -------------------------------------------------------

    def multiply_forward(self, lid: int, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        self._hold(lid, w, x)
        p = x.shape[1]
        layout = shard_layout(self.net.linears[lid].policy, self.pool.size, *w.shape, p)
        pre = self._pre_enc.pop(lid, None)
        pre = pre[1] if pre and pre[0] is w else None
        if not layout:
            return w @ x
        z = self.pool.layer_output(lid, (w.shape[0], p))  # each shard unblinds into its block
        products = [_Product(j, self.keys.get(lid, j, *sh.dims, sh.cut), *sh.operands(w, x),
                             z[sh.rows, sh.cols], False, lid, "forward")
                    for j, sh in enumerate(layout)]

        def requests():
            for sh, pr in zip(layout, products):
                j = pr.shard
                # blinded for shard 0 and each shard it is cut for; a shared
                # operand goes to every shard as shard 0's bytes (see the class)
                w_head, x_out = self.pool.wire.matrices(layout[0].dims[:2], pr.b.shape)
                if j == 0 or sh.cut == 0:
                    w_enc = pre[j] if pre else \
                        self._blind(enc_left, pr.sk, pr.a, w_head[:len(pr.a)])
                if j == 0 or sh.cut == 2:
                    x_enc = self._blind(enc_right, pr.sk, pr.b, x_out)
                yield StorePair(lid, j, w_enc, x_enc), [pr]
            if self.pipelined:
                self._pre_encrypt_next(lid, p)

        # the forward's peaks stay with the held pair, for the backward
        self._held[lid] = (w, x, self._offload(products, requests()))
        return z

    # -- backward ------------------------------------------------------

    def multiply_backward(self, lid: int, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        w, x, peaks = self._release(lid, delta)
        (m, n), p = w.shape, x.shape[1]
        layout = shard_layout(self.net.linears[lid].policy, self.pool.size, m, n, p)
        if not layout:
            return delta @ x.T, w.T @ delta
        g, d = np.empty((m, n)), np.empty((n, p))
        w_t, x_t = w.T, x.T  # each shared one is passed as one object (see Shard.operands)
        products = []  # per shard its T1, then its T2
        known = {}  # id -> the peak the forward scanned; a transposed view has its matrix's
        for j, sh in enumerate(layout):
            wj, xj = sh.operands(w, x)
            wj_t, xj_t = w_t if wj is w else wj.T, x_t if xj is x else xj.T
            delta_j = delta[sh.rows, sh.cols]
            if peaks:
                known[id(wj_t)], known[id(xj_t)] = peaks[j]
            k1, k2 = self.keys.transposed(lid, j, *sh.dims, sh.cut)
            # A product that contracts over a cut operand is summed across
            # shards, all writing one block whole: T1 when X is cut, T2 when
            # W is.  Shard 0 unblinds into it; later shards add theirs in order.
            products += [
                _Product(j, k1, delta_j, xj_t, g[sh.rows], j > 0 and sh.cut == 2,
                         lid, "backward T1"),
                _Product(j, k2, wj_t, delta_j, d[:, sh.cols], j > 0 and sh.cut == 0,
                         lid, "backward T2")]

        def requests():
            for t1_pr, t2_pr in zip(products[::2], products[1::2]):
                if self.reuse_backward:
                    # the shard's delta block, blinded in the forward product's
                    # shape; the worker multiplies it against the pair it holds
                    delta_j = t1_pr.a
                    d_enc = self._blind(enc_left, t1_pr.sk, delta_j,
                                        self.pool.wire.matrices(delta_j.shape)[0])
                    yield MultBwd(lid, t1_pr.shard, d_enc), [t1_pr, t2_pr]
                    continue
                # reference mode: each product under its own fresh key, its
                # pair copied contiguous, blinded into the wire buffer and
                # sent as a StorePair
                for pr in (t1_pr, t2_pr):
                    k = kgen(*pr.a.shape, pr.b.shape[1], self.keys.keyspace, self._rng)
                    a_enc, b_enc = self.pool.wire.matrices(pr.a.shape, pr.b.shape)
                    self._blind(enc_left, k, np.ascontiguousarray(pr.a), a_enc)
                    self._blind(enc_right, k, np.ascontiguousarray(pr.b), b_enc)
                    yield StorePair(lid, pr.shard, a_enc, b_enc), [pr._replace(sk=k)]

        self._offload(products, requests(), known)
        return g, d


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
    rounds = min_rounds(IntegrityConfig(
        t=t, task="training", n_epochs=max(epochs, 1), dataset_size=dataset.features.shape[1],
        batch_size=batch_size, n_workers=pool.size, n_layers=len(net.linears)))
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
    rounds = min_rounds(IntegrityConfig(t=t, n_workers=pool.size, n_layers=len(net.linears)))
    executor = EncryptedExecutor(pool, net, rounds=rounds,
                                 keyspace=KeySpaceConfig(keyspace), seed=seed)
    return nn.predict(net, x, executor)
