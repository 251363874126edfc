"""Dataset container, synthetic blobs, and CSV loading.

A dataset is features (dim x n_samples, samples as columns) plus an
integer label per sample.  The CSV layout is one sample per row, label
first: ``label,f1,f2,...``.  A header row is allowed and detected by
its non-numeric cells; a nan or inf cell is refused, never taken for
a header.  Features are read as written: nothing is rescaled, so a
sample reads the same whichever other rows share its file.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .tensor import make_rng

__all__ = ["Dataset", "DataError", "gen_blobs", "load_csv"]


class DataError(ValueError):
    pass


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (dim, n_samples)
    labels: np.ndarray  # (n_samples,) int

    def __post_init__(self):
        if self.features.ndim != 2:
            raise DataError("features must be 2-D (dim x samples)")
        if self.labels.shape != (self.features.shape[1],):
            raise DataError(
                f"{self.features.shape[1]} samples but {self.labels.shape[0]} labels"
            )
        if self.labels.size and self.labels.min() < 0:
            raise DataError("labels must be non-negative class indices")

    @property
    def n_samples(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0


def gen_blobs(n_per_class: int, n_classes: int, dim: int, separation: float,
              seed: int) -> Dataset:
    """Gaussian clusters with unit noise.  Class k's center sits at
    distance `separation` along axis k mod dim (scaled up each wrap), so
    separation 0 collapses all classes onto one cloud."""
    if n_per_class < 1 or n_classes < 2 or dim < 1 or seed < 0:
        raise DataError("need n_per_class >= 1, n_classes >= 2, dim >= 1, seed >= 0")
    rng = make_rng(seed)
    cols, labels = [], []
    for k in range(n_classes):
        center = np.zeros(dim)
        center[k % dim] = separation * (1 + k // dim)
        cols.append(center[:, None] + rng.standard_normal((dim, n_per_class)))
        labels.append(np.full(n_per_class, k, dtype=np.int64))
    return Dataset(np.concatenate(cols, axis=1), np.concatenate(labels))


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def load_csv(path: str) -> Dataset:
    """Read label,features rows, each value as written."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for line_no, cells in enumerate(reader, start=1):
            if not cells or (len(cells) == 1 and not cells[0].strip()):
                continue
            if line_no == 1 and not all(_is_number(c) for c in cells):
                continue  # header
            if len(cells) < 2:
                raise DataError(f"{path}:{line_no}: need a label and at least one feature")
            if not all(_is_number(c) for c in cells):
                raise DataError(f"{path}:{line_no}: non-numeric cell")
            label, *feats = (float(c) for c in cells)
            if not all(math.isfinite(v) for v in (label, *feats)):
                raise DataError(f"{path}:{line_no}: non-finite cell (nan or inf)")
            if label < 0 or label != int(label):
                raise DataError(f"{path}:{line_no}: label must be a non-negative integer")
            rows.append((int(label), feats))
    if not rows:
        raise DataError(f"{path}: no data rows")
    width = len(rows[0][1])
    for i, (_, feats) in enumerate(rows, start=1):
        if len(feats) != width:
            raise DataError(f"{path}: row {i} has {len(feats)} features, expected {width}")
    features = np.array([feats for _, feats in rows], dtype=np.float64).T
    labels = np.array([label for label, _ in rows], dtype=np.int64)
    return Dataset(features, labels)
