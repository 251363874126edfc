"""Dense float64 matrix helpers shared by the rest of the package.

A "matrix" everywhere in this package is a plain 2-D numpy array of
float64 in row-major (C) order.  The helpers here add the shape
validation the higher layers rely on: every mismatch raises ShapeError
naming both shapes instead of whatever numpy would have said.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "ShapeError",
    "make_rng",
    "shard_slices",
    "split",
    "concat",
    "sum_all",
    "max_abs",
]

_AXES = {"rows": 0, "cols": 1}


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


def split(a: np.ndarray, axis: str, n_shards: int) -> list[np.ndarray]:
    """Cut into n_shards contiguous blocks along "rows" or "cols", sized
    by shard_slices."""
    ax = _AXES[axis]
    if n_shards < 1:
        raise ShapeError(f"split: n_shards must be >= 1, got {n_shards}")
    if n_shards > a.shape[ax]:
        raise ShapeError(
            f"split: {n_shards} shards exceed {axis}={a.shape[ax]} of {a.shape}"
        )
    parts = shard_slices(a.shape[ax], n_shards)
    return [np.ascontiguousarray(a[part] if ax == 0 else a[:, part]) for part in parts]


def concat(parts: list[np.ndarray], axis: str) -> np.ndarray:
    if not parts:
        raise ShapeError("concat: no parts given")
    ax = _AXES[axis]
    other = 1 - ax
    first = parts[0].shape[other]
    for part in parts[1:]:
        if part.shape[other] != first:
            raise ShapeError(
                f"concat: off-axis sizes differ, {parts[0].shape} vs {part.shape}"
            )
    return np.concatenate(parts, axis=ax)


def sum_all(parts: list[np.ndarray]) -> np.ndarray:
    if not parts:
        raise ShapeError("sum_all: no parts given")
    acc = parts[0].copy()
    for part in parts[1:]:
        if part.shape != acc.shape:
            raise ShapeError(f"sum_all: shapes differ, {acc.shape} vs {part.shape}")
        acc += part
    return acc


def max_abs(a: np.ndarray) -> float:
    """max |a| from two reductions and no temporary; NaN propagates, an
    empty array raises.  abs() only clears the sign of a -0.0."""
    return abs(float(max(a.max(), -a.min())))
