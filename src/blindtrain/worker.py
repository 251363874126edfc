"""Untrusted compute node.

A worker answers each blinded operand pair A', B' it is sent with the
pair's product and keeps the pair in its (layer, shard) slot, so the
backward pass can multiply a blinded delta D' of the product's shape
against it, answering D' B'^T and A'^T D'; it never sees a plaintext.
Requests on a connection are answered strictly in arrival order and
every reply carries the sequence number of the request it answers.

For experiments the worker can also misbehave on purpose: "tamper"
perturbs one entry of a result, "lazy" returns a stale product of the
right shape (or zeros) instead of computing.  Only these two modes draw
randomness, so only they get a per-connection generator; an honest
worker builds none, and so does not import numpy.random either.
"""
from __future__ import annotations

import socket
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import protocol
from .protocol import (
    Config,
    Error,
    Hello,
    MultBwd,
    Result,
    StorePair,
    ERR_CACHE_MISS,
    ERR_SHAPE,
)
from .tensor import make_rng

__all__ = [
    "WorkerMode",
    "apply_adversary",
    "WorkerSession",
    "WorkerServer",
    "spawn_local_workers",
    "run_worker",
]


@dataclass(frozen=True)
class WorkerMode:
    kind: str = "honest"  # "honest" | "tamper" | "lazy"
    probability: float = 0.0
    magnitude: float = 1.0

    def __post_init__(self):
        if self.kind not in ("honest", "tamper", "lazy"):
            raise ValueError(f"unknown worker mode {self.kind!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")

    @classmethod
    def honest(cls):
        return cls("honest")


def apply_adversary(
    mode: WorkerMode,
    honest_result: np.ndarray,
    rng: np.random.Generator,
    last_by_shape: dict,
) -> np.ndarray:
    """Possibly corrupt one result matrix according to the worker mode.

    Tampering adds `magnitude` to a single uniformly chosen entry.
    Laziness substitutes the honest product last computed for a matrix
    of the same shape, or zeros if there is none, as a worker replaying
    an old product would; `last_by_shape` holds that history and is
    updated with every honest product, whatever is returned.
    """
    out = honest_result
    if mode.kind == "tamper" and rng.random() < mode.probability:
        out = honest_result.copy()
        i = int(rng.integers(out.shape[0]))
        j = int(rng.integers(out.shape[1]))
        out[i, j] += mode.magnitude
    elif mode.kind == "lazy" and rng.random() < mode.probability:
        out = last_by_shape.get(honest_result.shape)
        if out is None:
            out = np.zeros_like(honest_result)
    last_by_shape[honest_result.shape] = honest_result
    return out


class WorkerSession:
    """Message handler for one connection; no sockets in here so the
    logic is testable directly.  `rng` is None in the honest mode, which
    draws nothing."""

    def __init__(self, mode: WorkerMode, rng: np.random.Generator | None):
        self.mode = mode
        self.rng = rng
        self.cache: dict[tuple[int, int], tuple] = {}  # (layer, shard) -> (a_enc, b_enc)
        self.last_by_shape: dict = {}
        self._next_tag = 0

    def handle(self, msg):
        """Process one request, returning the reply message."""
        tag = self._next_tag
        self._next_tag += 1
        if isinstance(msg, (Hello, Config)):
            return Result(tag, ())
        if isinstance(msg, StorePair):
            a_enc, b_enc = msg.a_enc, msg.b_enc
            if a_enc.shape[1] != b_enc.shape[0]:
                return Error(
                    ERR_SHAPE,
                    f"stored operands do not chain: {a_enc.shape} x {b_enc.shape}",
                )
            self.cache[(msg.layer_id, msg.shard_id)] = (a_enc, b_enc)
            return Result(tag, (self._emit(a_enc @ b_enc),))
        if isinstance(msg, MultBwd):
            slot = self.cache.get((msg.layer_id, msg.shard_id))
            if slot is None:
                return Error(
                    ERR_CACHE_MISS,
                    f"no stored pair for layer {msg.layer_id} shard {msg.shard_id}",
                )
            a_enc, b_enc = slot
            d = msg.d_enc  # in the shape of the pair's product
            if d.shape != (a_enc.shape[0], b_enc.shape[1]):
                return Error(
                    ERR_SHAPE,
                    f"backward operand {d.shape} does not match cached pair "
                    f"{a_enc.shape} x {b_enc.shape}",
                )
            t1 = self._emit(d @ b_enc.T)
            t2 = self._emit(a_enc.T @ d)
            return Result(tag, (t1, t2))
        return Error(protocol.ERR_UNSUPPORTED, f"unexpected message {type(msg).__name__}")

    def _emit(self, honest: np.ndarray) -> np.ndarray:
        return apply_adversary(self.mode, honest, self.rng, self.last_by_shape)


class WorkerServer:
    """Threaded TCP server; one `session_class` instance per connection.

    In an adversary mode each connection's session draws from its own
    generator, seeded `seed + 1000003 * i` for the i-th connection
    accepted, so its corruptions are reproducible; an honest session
    gets None."""

    session_class = WorkerSession

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 mode: WorkerMode | None = None, seed: int = 0):
        self.mode = mode or WorkerMode.honest()
        self.seed = seed
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen()
        self.address: tuple[str, int] = self._listener.getsockname()
        self._threads: list[threading.Thread] = []
        self._accept_thread: threading.Thread | None = None
        self._stopping = False
        self._conn_count = 0

    def start(self) -> "WorkerServer":
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        return self

    def _accept_loop(self):
        while not self._stopping:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            # replies go out as soon as they are written; with Nagle's
            # algorithm on, a RESULT sent while the one before it is still
            # unacknowledged (two STORE_PAIRs in flight, as the executor's
            # reference backward mode sends them) waits for the
            # coordinator's delayed ACK (about 40 ms)
            try:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                conn.close()  # the peer is already gone
                continue
            # counted in every mode, so a connection's seed is set by its index
            rng = (make_rng(self.seed + 1000003 * self._conn_count)
                   if self.mode.kind != "honest" else None)
            self._conn_count += 1
            t = threading.Thread(target=self._serve, args=(conn, rng), daemon=True)
            # listed before it runs: once a reply is out, stop() must see it;
            # finished ones go, so a long-running worker's list stays bounded
            # (this thread alone writes it, and rebinds rather than edits it)
            self._threads = [u for u in self._threads if u.is_alive()] + [t]
            t.start()

    def _serve(self, conn: socket.socket, rng: np.random.Generator | None):
        session = self.session_class(self.mode, rng)
        try:
            with conn:
                while True:
                    try:
                        msg = protocol.read_message(conn)
                    except protocol.ProtocolError as exc:  # any frame it cannot decode
                        protocol.send_message(conn, Error(protocol.ERR_UNSUPPORTED, str(exc)))
                        return
                    protocol.send_message(conn, session.handle(msg))
        except OSError:  # the peer hung up, reset or stalled: no one to answer
            return

    def serve_forever(self):
        self.start()
        assert self._accept_thread is not None
        self._accept_thread.join()

    def stop(self):
        self._stopping = True
        try:
            # wakes an accept() blocked on the listener, which close()
            # alone does not on Linux: the socket would stay open
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already closed
        try:
            self._listener.close()
        except OSError:
            pass
        for t in self._threads:
            if t.is_alive():  # one listed but not yet started cannot be joined
                t.join(timeout=1.0)


@contextmanager
def spawn_local_workers(n: int, mode: WorkerMode | None = None, seed: int = 0):
    """Start n loopback workers for tests and the --local-workers CLI
    flag, and yield their addresses.  Every server started is stopped on
    exit, also when a later one fails to start."""
    servers = []
    try:
        for i in range(n):
            servers.append(WorkerServer(mode=mode, seed=seed + i))
            servers[-1].start()
        yield [s.address for s in servers]
    finally:
        for s in servers:
            s.stop()


def run_worker(host: str, port: int, mode: WorkerMode, seed: int = 0) -> None:
    """Blocking entry point used by the CLI."""
    server = WorkerServer(host, port, mode, seed)
    print(f"worker listening on {server.address[0]}:{server.address[1]} "
          f"mode={mode.kind}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.stop()
