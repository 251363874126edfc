"""Coefficient-and-permutation blinding for outsourced matrix products.

A secret key for a product A (m x n) times B (n x p) holds three slots,
one per dimension.  Each slot pairs a vector of nonzero integer
coefficients with a random permutation.  Blinding scales every entry by
a ratio of coefficients and shuffles rows and columns, so the plain
product of the blinded operands decrypts exactly to A @ B: the inner
coefficients cancel term by term and the permutations invert.

Decryption can additionally verify the returned product with k rounds
of randomized binary probes before releasing it; a single corrupted
entry survives one round with probability 1/2, so k rounds leave a
2**-k escape probability.  All k probes go through one matrix product.
min_rounds() turns a whole-run error budget into the per-product k, and
brute_force_bound() gives the log2 cost of enumerating keys.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import ShapeError, max_abs

__all__ = [
    "KeySlot",
    "SecretKey",
    "KeySpaceConfig",
    "IntegrityConfig",
    "IntegrityFailure",
    "kgen",
    "key_shift",
    "enc_pair",
    "enc_left",
    "enc_right",
    "dec",
    "dec_only",
    "encryption_matrix",
    "inverse_encryption_matrix",
    "min_rounds",
    "brute_force_bound",
]

DEFAULT_TOLERANCE = 1e-8


@dataclass(frozen=True)
class KeySpaceConfig:
    """Coefficients are drawn uniformly from {1, ..., size}.

    Zero is excluded so every coefficient ratio is invertible.  255 is
    the default working size; anything >= 2 is accepted.
    """

    size: int = 255

    def __post_init__(self):
        if self.size < 2:
            raise ValueError(f"key space size must be >= 2, got {self.size}")


@dataclass(frozen=True)
class KeySlot:
    """One blinding slot: nonzero coefficients plus a permutation."""

    coeffs: np.ndarray  # float64, values in {1..keyspace}
    perm: np.ndarray  # int64 permutation of 0..size-1
    inv_perm: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=np.float64)
        perm = np.asarray(self.perm, dtype=np.int64)
        if coeffs.ndim != 1 or perm.shape != coeffs.shape:
            raise ShapeError(
                f"key slot: coeffs {coeffs.shape} and perm {perm.shape} must be equal-length vectors"
            )
        if np.any(coeffs == 0):
            raise ValueError("key slot: zero coefficient is not invertible")
        if not np.array_equal(np.sort(perm), np.arange(perm.size)):
            raise ValueError("key slot: perm is not a permutation of 0..size-1")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "inv_perm", np.argsort(perm))

    @property
    def size(self) -> int:
        return int(self.coeffs.size)


@dataclass(frozen=True)
class SecretKey:
    """Three slots sized (m, n, p) for one product shape."""

    slots: tuple[KeySlot, KeySlot, KeySlot]

    @property
    def dims(self) -> tuple[int, int, int]:
        return tuple(s.size for s in self.slots)  # type: ignore[return-value]


class IntegrityFailure(Exception):
    """A verification probe exceeded tolerance: the returned product is bad."""

    def __init__(self, round_index: int, residual: float, threshold: float):
        self.round_index = round_index
        self.residual = residual
        self.threshold = threshold
        super().__init__(
            f"verification round {round_index}: residual {residual:.3e} "
            f"exceeds threshold {threshold:.3e}"
        )


def kgen(m: int, n: int, p: int, keyspace: KeySpaceConfig, rng: np.random.Generator) -> SecretKey:
    """Sample a fresh key for an (m x n) @ (n x p) product.

    Coefficients for all three slots are drawn first, then the three
    permutations, so a fixed rng seed pins the whole key.
    """
    dims = (m, n, p)
    if min(dims) < 1:
        raise ValueError(f"key dims must be positive, got {dims}")
    coeffs = [rng.integers(1, keyspace.size + 1, size=d).astype(np.float64) for d in dims]
    perms = [rng.permutation(d) for d in dims]
    return SecretKey(tuple(KeySlot(c, q) for c, q in zip(coeffs, perms)))


def key_shift(sk: SecretKey, phi: int) -> SecretKey:
    """Left-rotate the slots: new slot i is old slot (i + phi) mod 3.

    Shifting by 2 turns an (m, n, p) key into the (p, m, n) key that
    blinds the transposed delta during the backward pass; shifting by 1
    yields the (n, p, m) key that decrypts the first backward product.
    """
    phi %= 3
    return SecretKey(tuple(sk.slots[(i + phi) % 3] for i in range(3)))


def _enc(row_slot: KeySlot, col_slot: KeySlot, a: np.ndarray) -> np.ndarray:
    # out(i, j) = (c_row(i) / c_col(j)) * a(perm_row(i), perm_col(j))
    return (row_slot.coeffs[:, None] / col_slot.coeffs[None, :]) * a[
        np.ix_(row_slot.perm, col_slot.perm)
    ]


def enc_left(sk: SecretKey, a: np.ndarray) -> np.ndarray:
    """Blind the first operand (shape m x n) of the keyed product."""
    m, n, _ = sk.dims
    if a.shape != (m, n):
        raise ShapeError(f"enc_left: operand {a.shape} does not match key dims ({m}, {n})")
    return _enc(sk.slots[0], sk.slots[1], a)


def enc_right(sk: SecretKey, b: np.ndarray) -> np.ndarray:
    """Blind the second operand (shape n x p) of the keyed product."""
    _, n, p = sk.dims
    if b.shape != (n, p):
        raise ShapeError(f"enc_right: operand {b.shape} does not match key dims ({n}, {p})")
    return _enc(sk.slots[1], sk.slots[2], b)


def enc_pair(sk: SecretKey, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Blind both operands; the shared inner slot makes A' @ B' decryptable."""
    return enc_left(sk, a), enc_right(sk, b)


def dec_only(sk: SecretKey, c_enc: np.ndarray) -> np.ndarray:
    """Undo the blinding of a returned product without verifying it."""
    m, _, p = sk.dims
    if c_enc.shape != (m, p):
        raise ShapeError(f"dec_only: product {c_enc.shape} does not match key dims ({m}, {p})")
    row, col = sk.slots[0], sk.slots[2]
    im, ip = row.inv_perm, col.inv_perm
    return (col.coeffs[ip][None, :] / row.coeffs[im][:, None]) * c_enc[np.ix_(im, ip)]


def _verify(
    a_plain: np.ndarray,
    b_plain: np.ndarray,
    c_dec: np.ndarray,
    k: int,
    rng: np.random.Generator,
    tol: float,
) -> None:
    """k rounds of binary probing of c_dec against a_plain @ b_plain.

    The k probes are the columns of one R in {0,1}^(p x k), compared as
    A(BR) against CR; the bracketing keeps every step a product with a
    k-column matrix.  The columns are independent, so each still lets a
    corrupted product through with probability 1/2.  The threshold
    scales with the operand magnitudes so honest float64 rounding never
    trips it; a NaN residual fails it too.
    """
    n = a_plain.shape[1]
    p = b_plain.shape[1]
    threshold = tol * max(1.0, max_abs(a_plain) * max_abs(b_plain) * n)
    r = rng.integers(0, 2, size=(p, k)).astype(np.float64)
    residuals = np.max(np.abs(a_plain @ (b_plain @ r) - c_dec @ r), axis=0)
    failed = np.flatnonzero(~(residuals <= threshold))
    if failed.size:
        i = int(failed[0])
        raise IntegrityFailure(i, float(residuals[i]), threshold)


def dec(
    sk: SecretKey,
    c_enc: np.ndarray,
    a_plain: np.ndarray,
    b_plain: np.ndarray,
    k: int,
    rng: np.random.Generator,
    tol: float = DEFAULT_TOLERANCE,
) -> np.ndarray:
    """Unblind a returned product and verify it against the retained operands.

    Raises IntegrityFailure (carrying the first failing round and its
    residual) if any of the k probe rounds exceeds tolerance or is not a
    number; otherwise returns the decrypted product.
    """
    m, n, p = sk.dims
    if a_plain.shape != (m, n) or b_plain.shape != (n, p):
        raise ShapeError(
            f"dec: plaintext operands {a_plain.shape} x {b_plain.shape} "
            f"do not match key dims {sk.dims}"
        )
    c_dec = dec_only(sk, c_enc)
    _verify(a_plain, b_plain, c_dec, k, rng, tol)
    return c_dec


def encryption_matrix(slot: KeySlot) -> np.ndarray:
    """The slot as an invertible matrix: E(i, perm(i)) = c(i), zero elsewhere.

    Blinding the pair (A, B) equals E1 A E2^-1 and E2 B E3^-1, which is
    what makes the outsourced product decryptable and is the oracle the
    tests compare against.
    """
    s = slot.size
    out = np.zeros((s, s))
    out[np.arange(s), slot.perm] = slot.coeffs
    return out


def inverse_encryption_matrix(slot: KeySlot) -> np.ndarray:
    """Exact inverse of encryption_matrix(slot), built directly.

    Row i holds 1 / c(perm^-1(i)) at column perm^-1(i); the coefficient
    index must follow the inverse permutation or E @ E^-1 is a diagonal
    of coefficient ratios rather than the identity.
    """
    s = slot.size
    out = np.zeros((s, s))
    out[np.arange(s), slot.inv_perm] = 1.0 / slot.coeffs[slot.inv_perm]
    return out


@dataclass(frozen=True)
class IntegrityConfig:
    """Whole-run error budget from which the per-product probe count derives.

    t is the acceptable probability that any corrupted product in the
    run escapes detection.  A training run multiplies the product count
    by 3 per layer per batch (one forward product, two backward).
    """

    t: float
    task: str = "inference"  # "inference" | "training"
    n_epochs: int = 1
    dataset_size: int = 1
    batch_size: int = 1
    n_workers: int = 1
    n_layers: int = 1

    def __post_init__(self):
        if not 0.0 < self.t < 1.0:
            raise ValueError(f"t must be in (0, 1), got {self.t}")
        if self.task not in ("inference", "training"):
            raise ValueError(f"task must be 'inference' or 'training', got {self.task!r}")
        for name in ("n_epochs", "dataset_size", "batch_size", "n_workers", "n_layers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    @property
    def products_per_worker_layer(self) -> int:
        if self.task == "training":
            return 3 * self.n_epochs * math.ceil(self.dataset_size / self.batch_size)
        return 1


def min_rounds(cfg: IntegrityConfig) -> int:
    """Smallest k so the whole run's escape probability stays below t.

    Each verified product escapes with probability 2**-k; the run
    performs alpha * N * L verifications, so k must strictly exceed
    log2(1 / (1 - (1 - t)**(1 / (alpha * N * L)))).
    """
    total = cfg.products_per_worker_layer * cfg.n_workers * cfg.n_layers
    per_product = 1.0 - (1.0 - cfg.t) ** (1.0 / total)
    bound = math.log2(1.0 / per_product)
    return math.floor(bound) + 1


def brute_force_bound(m: int, n: int, keyspace_size: int) -> float:
    """log2 of the key-enumeration count for one (m, n) operand: two
    permutations and m + n coefficients."""
    if m < 1 or n < 1:
        raise ValueError(f"dims must be positive, got ({m}, {n})")
    if keyspace_size < 2:
        raise ValueError(f"key space size must be >= 2, got {keyspace_size}")
    ln2 = math.log(2.0)
    return (math.lgamma(m + 1) + math.lgamma(n + 1)) / ln2 + (m + n) * math.log2(keyspace_size)
