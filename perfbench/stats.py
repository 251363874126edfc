"""Statistics the benchmark reports: percentiles, failure shares and span
self time.  Pure functions, so the self-tests can pin them down."""
from __future__ import annotations

import math


def percentile(values, q: float) -> float:
    """Linear-interpolated q-th percentile (0 <= q <= 100) of a sample,
    the same rule as numpy's default."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def supports_percentile(n: int, q: float, beyond: int = 10) -> bool:
    """A percentile is reported as a tail only when at least `beyond`
    samples lie past it: p90 needs 100 samples, p99 needs 1,000."""
    return n * (100.0 - q) >= beyond * 100.0


def failed_share(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("failed_share needs at least one attempt")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed {failed} out of range for {attempted} attempts")
    return failed / attempted


def median(values) -> float:
    return percentile(values, 50.0)


def self_times(spans) -> list[float]:
    """Per-span self time: duration minus the time covered by its direct
    children.  A span is (start, end, parent_index); parent -1 is a root.
    Children of one parent never overlap (one thread records them)."""
    out = [end - start for start, end, _ in spans]
    for start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out
