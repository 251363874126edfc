"""Dense float64 matrix helpers shared by the rest of the package.

A "matrix" everywhere in this package is a plain 2-D numpy array of
float64 in row-major (C) order.  Every shape mismatch the package
checks raises ShapeError naming both shapes instead of whatever numpy
would have said.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "ShapeError",
    "make_rng",
    "shard_slices",
    "max_abs",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator pinned to the PCG64 bit generator.

    The same seed yields the same stream on every platform, which the
    key generation, batching and verification probes all depend on.
    """
    return np.random.Generator(np.random.PCG64(seed))


def shard_slices(size: int, n_shards: int) -> list[slice]:
    """n_shards consecutive slices covering range(size).

    Their lengths differ by at most one and the remainder goes to the
    first shards, as np.array_split does.  This is the one rule every
    shard split follows: weights, batches and backward-pass deltas.
    """
    q, r = divmod(size, n_shards)
    bounds = [j * q + min(j, r) for j in range(n_shards + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def max_abs(a: np.ndarray) -> float:
    """max |a| from two reductions and no temporary; NaN propagates, an
    empty array raises.  abs() only clears the sign of a -0.0."""
    return abs(float(max(a.max(), -a.min())))
