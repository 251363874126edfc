"""How much does a blinded matrix still reveal about the plaintext?

The measure is plug-in mutual information between original and
observable entries paired by position: flatten X and X_o, bin each over
its own range, and compute I from the joint histogram.  Identity leaks
everything (I equals the binned entropy of X), full blinding leaves the
positional pairing essentially independent, and the weaker schemes land
in between.

Scheme randomness (the blinding key, the scalar, the additive mask) is
redrawn per application.  A fixed deterministic bijection such as one
global scalar has the same histogram as identity, so the comparison
harness pools several applications on fresh smooth patches, which is
also what pushes the sample count past the point where the estimator is
stable.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .obfuscate import KeySpaceConfig, enc_left, kgen
from .tensor import ShapeError, make_rng

__all__ = [
    "MIEstimate",
    "mi_estimate",
    "smooth_field",
    "SCHEMES",
    "pooled_privacy_score",
    "compare_schemes",
]


@dataclass(frozen=True)
class MIEstimate:
    bits: float
    n_bins: int
    n_samples: int


def mi_estimate(x, y, n_bins: int = 16) -> MIEstimate:
    """Histogram mutual information in bits over paired samples.

    Equal-width bins over each variable's observed range; the plug-in
    estimate is clamped at zero since true MI cannot be negative.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.size != y.size:
        raise ShapeError(f"paired samples differ in length: {x.size} vs {y.size}")
    if x.size == 0:
        raise ShapeError("no samples")
    joint, _, _ = np.histogram2d(x, y, bins=n_bins)
    pxy = joint / joint.sum()
    px = pxy.sum(axis=1)
    py = pxy.sum(axis=0)
    nz = pxy > 0
    denom = np.outer(px, py)
    bits = float(np.sum(pxy[nz] * np.log2(pxy[nz] / denom[nz])))
    return MIEstimate(max(bits, 0.0), n_bins, x.size)


def _gaussian_blur(field: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian filter, axis 0 then axis 1: radius 4*sigma
    rounded, normalized exp(-x^2 / 2 sigma^2) weights, edges mirrored
    with the edge entry repeated.  Each output sums the centre tap
    first, then each mirrored pair from the outermost in, which is the
    order ndimage.gaussian_filter uses, so its defaults give bitwise the
    same field."""
    r = int(4.0 * sigma + 0.5)
    w = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    w = w / w.sum()
    for _ in range(2):  # the second pass filters axis 1 through the transpose
        n = field.shape[0]
        p = np.pad(field, ((r, r), (0, 0)), mode="symmetric")
        out = p[r:r + n] * w[r]
        for j in range(r, 0, -1):
            out += (p[r - j:r - j + n] + p[r + j:r + j + n]) * w[r - j]
        field = out.T
    return np.ascontiguousarray(field)


def smooth_field(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Structured test input: noise low-pass filtered with sigma 3,
    standardized.  Neighboring entries correlate, like the feature maps
    the pipeline actually ships."""
    field = _gaussian_blur(rng.standard_normal((rows, cols)), 3.0)
    return (field - field.mean()) / field.std()


def _enc_full(x, keyspace, rng):
    """The full blinding: coefficient ratios plus row and column
    permutations."""
    return enc_left(kgen(*x.shape, 1, keyspace, rng), x)


def _enc_no_perm(x, keyspace, rng):
    """Coefficient ratios only, permutations disabled: every entry is
    scaled in place by c_row(i) / c_col(j)."""
    sk = kgen(*x.shape, 1, keyspace, rng)
    return (sk.slots[0].coeffs[:, None] / sk.slots[1].coeffs[None, :]) * x


def _add_random(x, keyspace, rng):
    """Add a Gaussian mask with the input's own spread."""
    return x + (float(x.std()) or 1.0) * rng.standard_normal(x.shape)


def _scalar_mult(x, keyspace, rng):
    """Multiply the whole matrix by one nonzero scalar drawn from the
    coefficient space."""
    return float(rng.integers(1, keyspace.size + 1)) * x


def _identity(x, keyspace, rng):
    """Ship the plaintext: the do-nothing baseline."""
    return x.copy()


# name -> f(x, keyspace, rng), one application with fresh randomness,
# from the strongest blinding to none: the display order of the table.
SCHEMES = {
    "enc_full": _enc_full,
    "enc_no_perm": _enc_no_perm,
    "add_random": _add_random,
    "scalar_mult": _scalar_mult,
    "identity": _identity,
}


def pooled_privacy_score(name: str, patches: list[np.ndarray], keyspace: KeySpaceConfig,
                         rng: np.random.Generator, n_bins: int = 16) -> float:
    """Negated MI pooled over several applications with fresh randomness
    each, one per patch."""
    scheme = SCHEMES[name]
    xs, ys = [], []
    for patch in patches:
        xs.append(patch.ravel())
        ys.append(scheme(patch, keyspace, rng).ravel())
    return -mi_estimate(np.concatenate(xs), np.concatenate(ys), n_bins).bits


def compare_schemes(
    keyspace_sizes: list[int],
    *,
    n_patches: int = 12,
    n_bins: int = 16,
    seed: int = 0,
) -> list[dict]:
    """Privacy score per scheme per coefficient-space size, on shared
    48x48 smooth patches.  Rows come back ready for a CSV table."""
    patch_rng = make_rng(seed)
    patches = [smooth_field(48, 48, patch_rng) for _ in range(n_patches)]
    n_samples = sum(patch.size for patch in patches)
    rows = []
    for size in keyspace_sizes:
        keyspace = KeySpaceConfig(size)
        for name in SCHEMES:
            score = pooled_privacy_score(
                name, patches, keyspace, make_rng(seed + size), n_bins
            )
            rows.append({
                "scheme": name,
                "keyspace": size,
                "privacy_bits": score,
                "n_samples": n_samples,
                "n_bins": n_bins,
            })
    return rows
