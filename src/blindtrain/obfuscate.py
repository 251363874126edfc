"""Coefficient-and-permutation blinding for outsourced matrix products.

A secret key for a product A (m x n) times B (n x p) holds three slots,
one per dimension.  Each slot pairs a vector of nonzero integer
coefficients with a random permutation.  Blinding scales every entry by
a ratio of coefficients and shuffles rows and columns, so the plain
product of the blinded operands decrypts exactly to A @ B: the inner
coefficients cancel term by term and the permutations invert.

Each slot keeps its coefficients' reciprocals, so a ratio is one
multiplication, num * (1 / den), not a division per entry: a blinded or
unblinded entry lies within 5 ulps of the division form
(num / den) * a (see _gather_scale).

Decryption can additionally verify the returned product with k rounds
of randomized binary probes before releasing it; a single corrupted
entry survives one round with probability 1/2, so k rounds leave a
2**-k escape probability.  The k probes are the rows of one k x m
matrix L, and (LA)B is compared against LC.  The check has two sides.
The probe side (probe_sides) needs only the plaintext operands: it
draws L and computes (LA)B and the threshold, so a caller can do it
while the product is still being computed remotely.  The check (dec)
needs the reply: it computes LC and compares.  probe_sides does the
work on an operand that several products share once, by stacking their
probes; every product still draws its own L and keeps its own
threshold.  min_rounds() turns a whole-run error budget into the
per-product k, and brute_force_bound() gives the log2 cost of
enumerating keys.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import ShapeError, max_abs

__all__ = [
    "KeySlot",
    "SecretKey",
    "ProbeSide",
    "KeySpaceConfig",
    "IntegrityConfig",
    "IntegrityFailure",
    "kgen",
    "key_shift",
    "enc_pair",
    "enc_left",
    "enc_right",
    "probe_sides",
    "dec",
    "dec_only",
    "encryption_matrix",
    "inverse_encryption_matrix",
    "min_rounds",
    "brute_force_bound",
]

_TOLERANCE = 1e-8  # probe threshold per unit of max|A| max|B| n
_NORMAL_MIN = np.finfo(np.float64).tiny  # 2**-1022, the smallest normal float64


@dataclass(frozen=True)
class KeySpaceConfig:
    """Coefficients are drawn uniformly from {1, ..., size}.

    Zero is excluded so every coefficient ratio is invertible.  255 is
    the default working size; anything from 2 to 2**63 - 1, the largest
    coefficient an int64 draw can give, is accepted.
    """

    size: int = 255

    def __post_init__(self):
        if not 2 <= self.size <= 2**63 - 1:
            raise ValueError(f"key space size must be in [2, 2**63 - 1], got {self.size}")


@dataclass(frozen=True)
class KeySlot:
    """One blinding slot: nonzero coefficients plus a permutation, with
    the coefficients' reciprocals and the inverse permutation derived
    once, when the slot is made."""

    coeffs: np.ndarray  # float64, values in {1..keyspace}
    perm: np.ndarray  # int64 permutation of 0..size-1
    inv_perm: np.ndarray = field(init=False)
    recip: np.ndarray = field(init=False)  # 1 / coeffs

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=np.float64)
        perm = np.asarray(self.perm, dtype=np.int64)
        if coeffs.ndim != 1 or perm.shape != coeffs.shape:
            raise ShapeError(
                f"key slot: coeffs {coeffs.shape} and perm {perm.shape} must be equal-length vectors"
            )
        mag = np.abs(coeffs)  # NaN fails both bounds
        if not ((mag >= _NORMAL_MIN) & (mag <= 1.0 / _NORMAL_MIN)).all():
            raise ValueError("key slot: a coefficient is not invertible: each must have "
                             "magnitude in [2**-1022, 2**1022], so that it and its "
                             "reciprocal are normal floats")
        size = perm.size
        if size and (perm.min() < 0 or perm.max() >= size):
            raise ValueError("key slot: perm has entries outside 0..size-1")
        inv = np.full(size, -1)
        inv[perm] = np.arange(size)
        if (inv < 0).any():  # an index never hit: perm repeats another
            raise ValueError("key slot: perm is not a permutation of 0..size-1")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "inv_perm", inv)
        object.__setattr__(self, "recip", 1.0 / coeffs)

    @property
    def size(self) -> int:
        return int(self.coeffs.size)


@dataclass(frozen=True)
class SecretKey:
    """Three slots sized (m, n, p) for one product shape."""

    slots: tuple[KeySlot, KeySlot, KeySlot]
    dims: tuple[int, int, int] = field(init=False)  # derived from the slots

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(s.size for s in self.slots))


class IntegrityFailure(Exception):
    """A verification probe exceeded tolerance: the returned product is bad.

    One raised inside an executor call also names the product's layer,
    shard, direction ("forward", "backward T1" or "backward T2") and
    worker address; raised elsewhere, those are None."""

    layer: int | None = None
    shard: int | None = None
    direction: str | None = None
    address: str | None = None

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


_BLOCK_BYTES = 1 << 18  # output bytes filled per row block: cache-sized


def _gather_scale(a, rows: np.ndarray, cols: np.ndarray,
                  row_f: np.ndarray, col_f: np.ndarray, out=None) -> np.ndarray:
    """out(i, j) = a(rows(i), cols(j)) * (row_f(i) * col_f(j)), as float64.

    row_f and col_f are 1-D factors, one per output row and one per
    output column: a coefficient vector and the reciprocals of another
    (see KeySlot), either way round.  The output is filled in
    cache-sized blocks of rows: gather the block's rows, gather their
    columns straight into the block, then scale it in place by the
    block's coefficient ratios, their outer product built by einsum.
    Each entry is rounded as in (num * recip) * a[np.ix_(rows, cols)],
    and IEEE multiplication commutes, so the bytes are the same whichever
    factor holds the coefficients; only block-sized temporaries are
    made.  (einsum writes a zero ratio as +0.0; no kgen key has one.)
    The operand is multiplied by the ratio once, as in the division form
    (num / den) * a[...].  Where the ratio is a normal float (kgen's
    integer coefficients always give one) and the entry does not
    overflow, the entry lies within 5 ulps of that form: the reciprocal,
    the ratio and the product are each rounded by at most 2**-53
    relative, the division form twice.  rows and cols are key
    permutations, already validated, so take() may skip its bounds
    check.  `out`, if given, must not overlap `a`; it may be a strided
    view.
    """
    a = np.asarray(a, dtype=np.float64)
    m, n = rows.size, cols.size
    if out is None:
        out = np.empty((m, n))
    elif out.shape != (m, n) or out.dtype != np.float64:
        raise ShapeError(f"output {out.shape} {out.dtype} is not ({m}, {n}) float64")
    elif np.may_share_memory(out, a):
        raise ValueError("output overlaps the operand")
    step = _BLOCK_BYTES // (8 * n) or 1
    for lo in range(0, m, step):
        hi = lo + step
        block = out[lo:hi]
        a.take(rows[lo:hi], axis=0).take(cols, axis=1, out=block, mode="clip")
        block *= np.einsum("i,j->ij", row_f[lo:hi], col_f)
    return out


def enc_left(sk: SecretKey, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Blind the first operand (shape m x n) of the keyed product:
    E1 A E2^-1 (see encryption_matrix) up to rounding, computed by
    _gather_scale as out(i, j) = (c1(i) * (1 / c2(j))) * a(perm1(i),
    perm2(j)) over the key's first two slots.  Any real input comes back
    as float64, and is never written.

    The blinded operand is written into `out` when one is given (an
    m x n float64 array or view that does not overlap `a`, such as a
    slice of a reused send buffer) and into a new array otherwise; the
    bytes are the same either way."""
    m, n, _ = sk.dims
    if a.shape != (m, n):
        raise ShapeError(f"enc_left: operand {a.shape} does not match key dims ({m}, {n})")
    row, col = sk.slots[0], sk.slots[1]
    return _gather_scale(a, row.perm, col.perm, row.coeffs, col.recip, out)


def enc_right(sk: SecretKey, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Blind the second operand (shape n x p) of the keyed product,
    E2 B E3^-1 over the key's last two slots, into `out` when one is
    given (see enc_left)."""
    _, n, p = sk.dims
    if b.shape != (n, p):
        raise ShapeError(f"enc_right: operand {b.shape} does not match key dims ({n}, {p})")
    row, col = sk.slots[1], sk.slots[2]
    return _gather_scale(b, row.perm, col.perm, row.coeffs, col.recip, out)


def enc_pair(sk: SecretKey, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Blind both operands; the shared inner slot makes A' @ B' decryptable."""
    return enc_left(sk, a), enc_right(sk, b)


def dec_only(sk: SecretKey, c_enc: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Undo the blinding of a returned product without verifying it.

    The product is written into `out` when one is given (an m x p
    float64 array or view, such as a shard's slice of a layer output)
    and into a new array otherwise."""
    m, _, p = sk.dims
    if c_enc.shape != (m, p):
        raise ShapeError(f"dec_only: product {c_enc.shape} does not match key dims ({m}, {p})")
    row, col = sk.slots[0], sk.slots[2]
    im, ip = row.inv_perm, col.inv_perm
    return _gather_scale(c_enc, im, ip, row.recip[im], col.coeffs[ip], out)


@dataclass(frozen=True)
class ProbeSide:
    """The half of one product's check that needs only its plaintext
    operands A (m x n) and B (n x p): k binary probes L, (LA)B and the
    residual threshold."""

    probes: np.ndarray  # L, k x m float64 in {0, 1}
    expected: np.ndarray  # (LA)B, k x p
    threshold: float


def _products(lefts: list, rights: list) -> list:
    """lefts[i] @ rights[i] for every i, the lefts all k-row matrices.
    Where several entries share a right operand (the same array object),
    their lefts are stacked and multiplied by it once, and each gets its
    own k rows of the result."""
    out = [None] * len(lefts)
    groups: dict[int, list[int]] = {}
    for i, r in enumerate(rights):
        groups.setdefault(id(r), []).append(i)
    for idx in groups.values():
        r = rights[idx[0]]
        if len(idx) == 1:
            out[idx[0]] = lefts[idx[0]] @ r
            continue
        stacked = np.concatenate([lefts[i] for i in idx]) @ r
        k = len(stacked) // len(idx)
        for g, i in enumerate(idx):
            out[i] = stacked[g * k:(g + 1) * k]
    return out


def probe_sides(pairs: list, k: int, rng: np.random.Generator) -> list[ProbeSide]:
    """The probe side of each (A, B) product in `pairs`, in order.

    Each product draws its own L = rng.integers(0, 2, size=(k, m)), in
    the order of `pairs`, and keeps its own threshold
    1e-8 * max(1, max|A| * max|B| * n), which scales with the operand
    magnitudes so honest float64 rounding never trips it.  The bracketing
    (LA)B keeps every step a product with a k-row matrix; BLAS runs
    those faster than k-column ones, so no probe comes from the right.
    Work on an operand that several products share (the same array
    object) is done once: one product of their stacked probes with a
    shared A, one of their stacked LA with a shared B, and one max|.|
    scan per distinct operand.  Stacking only batches the arithmetic: no
    probe is shared, so each product's escapes stay independent.
    """
    peaks: dict[int, float] = {}
    for x in (x for pair in pairs for x in pair):
        if id(x) not in peaks:
            peaks[id(x)] = max_abs(x)
    probes = [rng.integers(0, 2, size=(k, a.shape[0])).astype(np.float64) for a, _ in pairs]
    la = _products(probes, [a for a, _ in pairs])
    expected = _products(la, [b for _, b in pairs])
    return [ProbeSide(l, e, _TOLERANCE * max(1.0, peaks[id(a)] * peaks[id(b)] * a.shape[1]))
            for l, e, (a, b) in zip(probes, expected, pairs)]


def _check(side: ProbeSide, c_dec: np.ndarray) -> None:
    """Compare LC against the probe side's (LA)B, row by row.

    Freivalds' check: each probe row lets a corrupted product through
    with probability 1/2, independently of the others.  A NaN residual
    fails too, and a NaN or Inf anywhere in C fails every row, as
    0 * NaN and 0 * Inf are NaN.
    """
    residuals = np.max(np.abs(side.expected - side.probes @ c_dec), axis=1)
    failed = np.flatnonzero(~(residuals <= side.threshold))
    if failed.size:
        i = int(failed[0])
        raise IntegrityFailure(i, float(residuals[i]), side.threshold)


def dec(
    sk: SecretKey,
    c_enc: np.ndarray,
    a_plain: np.ndarray,
    b_plain: np.ndarray,
    k: int,
    rng: np.random.Generator,
    out: np.ndarray | None = None,
    probe: ProbeSide | None = None,
) -> np.ndarray:
    """Unblind a returned product and verify it against the retained operands.

    `probe` is the product's probe side (see probe_sides) when the caller
    computed it ahead of the reply; otherwise dec builds it the same way,
    drawing its k probes from rng after unblinding.  Raises
    IntegrityFailure (carrying the first failing round and its residual)
    if any of the k probe rounds exceeds tolerance or is not a number;
    otherwise returns the decrypted product, written into `out` when one
    is given (see dec_only).  After a failure `out` holds the unverified
    product.
    """
    m, n, p = sk.dims
    if a_plain.shape != (m, n) or b_plain.shape != (n, p):
        raise ShapeError(
            f"dec: plaintext operands {a_plain.shape} x {b_plain.shape} "
            f"do not match key dims {sk.dims}"
        )
    c_dec = dec_only(sk, c_enc, out)
    if probe is None:
        probe = probe_sides([(a_plain, b_plain)], k, rng)[0]
    _check(probe, c_dec)
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
    log2(1 / (1 - (1 - t)**(1 / (alpha * N * L)))).  The per-product
    budget is computed as -expm1(log1p(-t) / total), which neither
    cancels nor rounds to 0 for large counts.  A count too large for
    that (beyond float range, or a budget below the smallest float)
    raises OverflowError.
    """
    total = cfg.products_per_worker_layer * cfg.n_workers * cfg.n_layers
    per_product = -math.expm1(math.log1p(-cfg.t) / total)
    if per_product == 0.0:
        raise OverflowError("the per-product escape budget is below the smallest float")
    return math.floor(math.log2(1.0 / per_product)) + 1


def brute_force_bound(m: int, n: int, keyspace_size: int) -> float:
    """log2 of the key-enumeration count for one (m, n) operand: two
    permutations and m + n coefficients."""
    if m < 1 or n < 1:
        raise ValueError(f"dims must be positive, got ({m}, {n})")
    if keyspace_size < 2:
        raise ValueError(f"key space size must be >= 2, got {keyspace_size}")
    ln2 = math.log(2.0)
    return (math.lgamma(m + 1) + math.lgamma(n + 1)) / ln2 + (m + n) * math.log2(keyspace_size)
