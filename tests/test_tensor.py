import math

import numpy as np
import pytest

from blindtrain.tensor import make_rng, max_abs


def test_make_rng_is_deterministic():
    a = make_rng(42).integers(0, 1 << 30, size=8)
    b = make_rng(42).integers(0, 1 << 30, size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, make_rng(43).integers(0, 1 << 30, size=8))


def test_max_abs():
    assert max_abs(np.array([[-3.0, 2.0], [1.0, -0.5]])) == 3.0


def test_max_abs_matches_numpy_on_random_arrays():
    rng = make_rng(4)
    for _ in range(200):
        rows, cols = (int(v) for v in rng.integers(1, 12, size=2))
        a = rng.standard_normal((rows, cols)) * 10.0 ** int(rng.integers(-5, 6))
        a += float(rng.choice([-3.0, 0.0, 3.0]))  # all-negative and all-positive too
        assert max_abs(a) == float(np.max(np.abs(a)))
        assert max_abs(a.T) == max_abs(a)


@pytest.mark.parametrize("where", [0, 5, 11])
def test_max_abs_propagates_nan(where):
    a = make_rng(5).standard_normal((3, 4))
    a.flat[where] = np.nan
    assert math.isnan(max_abs(a))


def test_max_abs_infinities_and_signed_zero():
    assert max_abs(np.array([[1.0, -np.inf]])) == np.inf
    assert max_abs(np.array([[np.inf, -2.0]])) == np.inf
    zero = max_abs(np.array([[-0.0]]))
    assert zero == 0.0 and math.copysign(1.0, zero) == 1.0


def test_max_abs_rejects_empty():
    with pytest.raises(ValueError):
        max_abs(np.zeros((0, 3)))
