"""Small fully-connected classifier with a pluggable matrix-product backend.

A network is its linear layers: a ReLU sits between each pair and a
softmax follows the last, so those are implied, not stored.  Samples
are columns: a batch of p inputs of dimension n is an (n x p)
matrix, a linear layer holds W (m x n) and bias b (m,), and the forward
product is W @ X.  Every heavy product goes through a MatMulExecutor so
the same training loop runs against plain local numpy or against the
blinded remote offload; the two must agree to float tolerance.

The backward pass consumes the pair of products the executor returns
for each linear layer, each in the layout of what it updates:

    T1 = delta @ X.T    (m x n, like W: the weight gradient is T1 / batch)
    T2 = W.T @ delta    (n x p, like X: the upstream delta is T2, gated
                         by the ReLU derivative)

It builds the new weight in T1's memory and the upstream delta in
T2's, and applies all weight updates only after every product
verified, so an aborted step leaves the network untouched.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, make_rng

__all__ = [
    "Linear",
    "Network",
    "TrainConfig",
    "MatMulExecutor",
    "LocalExecutor",
    "cross_entropy_softmax",
    "forward",
    "backward",
    "train",
    "predict",
    "accuracy",
]


class MatMulExecutor:
    """Seam for the two products of each linear layer.

    multiply_forward returns a C-contiguous array that owns its data and
    that nothing else refers to, which the caller owns while it holds it
    and may write in place: nn.forward adds the bias to it, applies the
    ReLU to it in place and passes that same array as the next layer's
    x.  Once the caller, its views and any executor holding it as an
    operand have all let it go, a later call may return the same array
    again (EncryptedExecutor does, through WorkerPool.layer_output).

    multiply_backward returns (delta @ x.T, w.T @ delta), the first in
    w's layout and the second in x's, as two C-contiguous arrays that
    own their data and that nothing else refers to: the caller owns
    both and may write them, and nn.backward builds the new weight in
    the first and the next layer's delta in the second.

    The seam keeps the pairing: multiply_forward hands its operands to
    _hold, which checks that they chain and keeps them (so the caller
    must not write x after passing it), and the layer's multiply_backward
    takes them back from _release, which checks delta's shape.  A
    backward with no forward before it raises.  The held record is
    (w, x, peaks): peaks is None, or what an executor's forward put
    there, the per-shard (max|w_j|, max|x_j|) it scanned (see
    EncryptedExecutor), so its backward need not scan them again.
    """

    def __init__(self):
        self._held: dict[int, tuple[np.ndarray, np.ndarray, list | None]] = {}

    def start_epoch(self, epoch: int) -> None:
        pass

    def multiply_forward(self, layer_id: int, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def multiply_backward(self, layer_id: int, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _hold(self, layer_id: int, w: np.ndarray, x: np.ndarray) -> None:
        """Check that w @ x chains and keep the pair for the layer's backward."""
        if w.shape[1] != x.shape[0]:
            raise ShapeError(f"forward product: {w.shape} x {x.shape}")
        self._held[layer_id] = (w, x, None)

    def _release(self, layer_id: int,
                 delta: np.ndarray) -> tuple[np.ndarray, np.ndarray, list | None]:
        """The (w, x, peaks) the layer's forward kept, no longer kept;
        delta must have the shape of w @ x."""
        if layer_id not in self._held:
            raise RuntimeError(f"backward for layer {layer_id} without a matching forward")
        w, x, peaks = self._held.pop(layer_id)
        if delta.shape != (w.shape[0], x.shape[1]):
            raise ShapeError(f"backward delta {delta.shape} does not match product shape "
                             f"({w.shape[0]}, {x.shape[1]})")
        return w, x, peaks


class LocalExecutor(MatMulExecutor):
    """In-process reference backend: plain numpy products."""

    def multiply_forward(self, layer_id, w, x):
        self._hold(layer_id, w, x)
        return w @ x

    def multiply_backward(self, layer_id, delta):
        w, x, _ = self._release(layer_id, delta)
        return delta @ x.T, w.T @ delta


class Linear:
    """Affine layer W @ x + b.  policy picks how it is partitioned when
    offloaded: split by output rows ("tensor"), by batch columns
    ("data"), or kept on the coordinator ("master")."""

    POLICIES = ("tensor", "data", "master")

    def __init__(self, out_dim: int, in_dim: int, policy: str = "tensor"):
        if out_dim < 1 or in_dim < 1:
            raise ShapeError(f"linear dims must be positive, got ({out_dim}, {in_dim})")
        if policy not in self.POLICIES:
            raise ValueError(f"unknown policy {policy!r}, expected one of {self.POLICIES}")
        self.out_dim = out_dim
        self.in_dim = in_dim
        self.policy = policy
        self.layer_id: int = -1  # assigned by Network
        self.W: np.ndarray | None = None
        self.b: np.ndarray | None = None


class Network:
    """Linear layers, with a ReLU between each pair and a softmax after
    the last; adjacent linear dims must chain."""

    def __init__(self, linears: list[Linear]):
        if not linears:
            raise ValueError("a network needs at least one linear layer")
        for prev, cur in zip(linears, linears[1:]):
            if cur.in_dim != prev.out_dim:
                raise ShapeError(
                    f"layer dims do not chain: ({prev.out_dim}, {prev.in_dim}) "
                    f"then ({cur.out_dim}, {cur.in_dim})"
                )
        for i, lin in enumerate(linears):
            lin.layer_id = i
        self.linears = list(linears)

    @classmethod
    def from_dims(cls, dims: list[int], policies: list[str] | None = None) -> "Network":
        """[2, 16, 16, 2] -> three linear layers, 2 -> 16 -> 16 -> 2."""
        if len(dims) < 2:
            raise ValueError("need at least input and output dims")
        n_linear = len(dims) - 1
        if policies is None:
            policies = ["tensor"] * n_linear
        if len(policies) != n_linear:
            raise ValueError(f"{n_linear} linear layers need {n_linear} policies, got {len(policies)}")
        return cls([Linear(dims[i + 1], dims[i], policies[i]) for i in range(n_linear)])

    def init_weights(self, seed: int) -> None:
        """Uniform in [-sqrt(1/n), sqrt(1/n)] per layer, biases zero."""
        rng = make_rng(seed)
        for lin in self.linears:
            bound = math.sqrt(1.0 / lin.in_dim)
            lin.W = rng.uniform(-bound, bound, size=(lin.out_dim, lin.in_dim))
            lin.b = np.zeros(lin.out_dim)

    @property
    def in_dim(self) -> int:
        return self.linears[0].in_dim


def cross_entropy_softmax(z: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of softmax(z) against integer labels, plus the
    fused delta (softmax - onehot) that seeds backprop."""
    labels = np.asarray(labels)
    n_classes, width = z.shape
    if labels.shape != (width,):
        raise ShapeError(f"labels {labels.shape} do not match batch width {width}")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(f"labels must be in [0, {n_classes}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    shifted = z - z.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=0)
    cols = np.arange(width)
    loss = float(np.mean(np.log(total) - shifted[labels, cols]))
    delta = e / total
    delta[labels, cols] -= 1.0
    return loss, delta


def forward(net: Network, x: np.ndarray, executor: MatMulExecutor) -> list[np.ndarray]:
    """The output of every layer, in order: the last is the logits (the
    softmax is left to the loss), and each hidden one has had its ReLU
    applied in place, as the next layer's input.  The backward pass
    reads only a hidden output's sign, and relu(z) > 0 exactly where
    z > 0."""
    if x.shape[0] != net.in_dim:
        raise ShapeError(f"input {x.shape} does not match network in_dim {net.in_dim}")
    outs = []
    cur = x
    for lin in net.linears:
        if lin.layer_id:  # the ReLU between this layer and the one before, in place
            np.maximum(cur, 0.0, out=cur)
        cur = executor.multiply_forward(lin.layer_id, lin.W, cur)
        cur += lin.b[:, None]
        outs.append(cur)
    return outs


def backward(
    net: Network,
    outs: list[np.ndarray],
    labels: np.ndarray,
    executor: MatMulExecutor,
    learning_rate: float,
    batch_size: int,
) -> float:
    """One SGD step; returns the batch's loss before the step.  All
    products are fetched and verified before any weight changes, so a
    verification failure leaves the network as it was.  So does a step
    whose loss, new weights or new biases are not all finite: training
    has diverged, and an OverflowError naming the learning rate says so."""
    loss, delta = cross_entropy_softmax(outs[-1], labels)
    scale = learning_rate / batch_size
    updates = []
    for i in range(len(net.linears) - 1, -1, -1):
        lin = net.linears[i]
        g, d = executor.multiply_backward(lin.layer_id, delta)
        # W - s g built in g's own memory: (-s) g = -(s g) and
        # a + (-b) = a - b exactly, so the bytes are those of W - s g.
        np.multiply(g, -scale, out=g)
        g += lin.W
        new_b = lin.b - scale * delta.sum(axis=1)
        updates.append((lin, g, new_b))
        if i > 0:  # the next delta in d's memory
            delta = np.multiply(d, outs[i - 1] > 0.0, out=d)
    if not (math.isfinite(loss) and all(np.isfinite(w).all() and np.isfinite(b).all()
                                        for _, w, b in updates)):
        raise OverflowError(f"training diverged at learning rate {learning_rate:g}: the "
                            f"step's loss, weights or biases are past float range")
    for lin, new_w, new_b in updates:
        lin.W = new_w
        lin.b = new_b
    return loss


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    batch_size: int
    epochs: int
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size must be >= 1 and epochs >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def train(net, dataset, cfg: TrainConfig, executor: MatMulExecutor) -> list[dict]:
    """Mini-batch SGD over the whole dataset, epochs * ceil(n / batch)
    steps.  Batch order is shuffled per epoch from cfg.seed, so two runs
    with the same seed (whatever the executor) visit identical batches.
    No step's layer outputs are held into the next step's forward, so an
    executor may hand each layer the same array every step.

    Returns the run's epoch log: one {"epoch", "loss", "seconds"} entry
    per epoch, in order, with the mean of its batches' losses and its
    wall time; [] for 0 epochs.
    """
    features, labels = dataset.features, dataset.labels
    n = features.shape[1]
    if n < cfg.batch_size:
        raise ShapeError(f"dataset has {n} samples, smaller than batch size {cfg.batch_size}")
    order_rng = make_rng(cfg.seed)
    n_batches = math.ceil(n / cfg.batch_size)
    log = []
    for epoch in range(cfg.epochs):
        start = time.perf_counter()
        executor.start_epoch(epoch)
        order = order_rng.permutation(n)
        losses = []
        for b in range(n_batches):
            idx = order[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            xb = np.ascontiguousarray(features[:, idx])
            yb = labels[idx]
            losses.append(backward(net, forward(net, xb, executor), yb, executor,
                                   cfg.learning_rate, idx.size))
        log.append({"epoch": epoch, "loss": float(np.mean(losses)),
                    "seconds": time.perf_counter() - start})
    return log


def predict(net: Network, x: np.ndarray, executor: MatMulExecutor | None = None) -> np.ndarray:
    logits = forward(net, x, executor if executor is not None else LocalExecutor())[-1]
    return np.argmax(logits, axis=0)


_BLOCK_BYTES = 1 << 20  # widest layer output bytes per accuracy block: cache-sized


def accuracy(net: Network, dataset) -> float:
    """The share of the dataset's samples that predict labels right, by
    a local pass over blocks of columns, each of whose widest layer
    output fills at most _BLOCK_BYTES: the pass holds one block's layer
    outputs, not the whole dataset's."""
    x, labels = dataset.features, dataset.labels
    n = x.shape[1]
    if n == 0:
        return float(np.mean(predict(net, x) == labels))
    step = max(_BLOCK_BYTES // (8 * max(lin.out_dim for lin in net.linears)), 1)
    hits = sum(int(np.count_nonzero(predict(net, x[:, lo:lo + step]) == labels[lo:lo + step]))
               for lo in range(0, n, step))
    return hits / n
