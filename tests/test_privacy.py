import subprocess
import sys

import numpy as np
import pytest

from blindtrain.obfuscate import KeySpaceConfig
from blindtrain.privacy import (
    SCHEMES,
    compare_schemes,
    mi_estimate,
    pooled_privacy_score,
    smooth_field,
)
from blindtrain.tensor import ShapeError, make_rng

KS = KeySpaceConfig(255)


# -- estimator -------------------------------------------------------------

def test_mi_of_variable_with_itself_is_binned_entropy():
    rng = make_rng(0)
    x = rng.standard_normal(20000)
    est = mi_estimate(x, x, n_bins=16)
    hist, _ = np.histogram(x, bins=16)
    p = hist / hist.sum()
    entropy = -np.sum(p[p > 0] * np.log2(p[p > 0]))
    assert est.bits == pytest.approx(entropy, abs=1e-9)
    assert est.n_samples == 20000


def test_mi_of_independent_samples_is_near_zero():
    rng = make_rng(1)
    est = mi_estimate(rng.standard_normal(10000), rng.standard_normal(10000))
    assert est.bits < 0.05


def test_mi_invariant_under_monotone_bijection():
    rng = make_rng(2)
    x = rng.standard_normal(20000)
    same = mi_estimate(x, x).bits
    flipped = mi_estimate(x, -x).bits
    assert flipped == pytest.approx(same, abs=1e-9)


def test_mi_is_symmetric():
    rng = make_rng(3)
    x = rng.standard_normal(5000)
    y = x + 0.5 * rng.standard_normal(5000)
    assert mi_estimate(x, y).bits == pytest.approx(mi_estimate(y, x).bits, abs=1e-9)


def test_mi_never_negative_and_validates():
    rng = make_rng(4)
    for _ in range(20):
        est = mi_estimate(rng.standard_normal(500), rng.standard_normal(500))
        assert est.bits >= 0.0
    with pytest.raises(ShapeError):
        mi_estimate(np.ones(3), np.ones(4))
    with pytest.raises(ShapeError):
        mi_estimate(np.array([]), np.array([]))


def test_smooth_field_is_standardized_and_correlated():
    field = smooth_field(48, 48, make_rng(5))
    assert field.shape == (48, 48)
    assert abs(field.mean()) < 1e-12
    assert field.std() == pytest.approx(1.0, abs=1e-12)
    # neighbors must correlate strongly, unlike white noise
    corr = np.corrcoef(field[:, :-1].ravel(), field[:, 1:].ravel())[0, 1]
    assert corr > 0.9


@pytest.mark.parametrize("shape", [(48, 48), (24, 24), (8, 8), (6, 7), (3, 50)])
def test_smooth_field_matches_scipy_gaussian_filter(shape):
    # 6x7 and 3x50 have sides shorter than the filter radius of 12, so the
    # symmetric padding has to reflect more than once
    ndimage = pytest.importorskip("scipy.ndimage")
    for seed in range(4):
        noise = make_rng(seed).standard_normal(shape)
        blurred = ndimage.gaussian_filter(noise, sigma=3.0)
        expect = (blurred - blurred.mean()) / blurred.std()
        got = smooth_field(*shape, make_rng(seed))
        assert got.flags.c_contiguous
        assert np.max(np.abs(got - expect)) <= 1e-15


def test_package_imports_without_scipy():
    code = "import sys, blindtrain, blindtrain.cli; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


# -- scheme mechanics --------------------------------------------------------

def test_identity_returns_copy():
    x = smooth_field(8, 8, make_rng(6))
    out = SCHEMES["identity"](x, KS, make_rng(0))
    assert np.array_equal(out, x) and out is not x


def test_scalar_mult_draws_one_fresh_scalar():
    x = smooth_field(8, 8, make_rng(7))
    drawn = SCHEMES["scalar_mult"](x, KS, make_rng(8))
    ratio = drawn / x
    mu = ratio.flat[0]
    assert np.allclose(ratio, mu)
    assert 1 <= mu <= 255 and mu == int(mu)


def test_add_random_mask_scales_with_input():
    x = smooth_field(16, 16, make_rng(9))
    out = SCHEMES["add_random"](x, KS, make_rng(0))
    mask = out - x
    assert mask.std() == pytest.approx(x.std(), rel=0.2)


def test_enc_no_perm_is_positional_coefficient_ratio():
    from blindtrain.obfuscate import kgen
    x = smooth_field(6, 7, make_rng(10))
    out = SCHEMES["enc_no_perm"](x, KS, make_rng(11))
    sk = kgen(6, 7, 1, KS, make_rng(11))  # same rng state -> same key
    expect = (sk.slots[0].coeffs[:, None] / sk.slots[1].coeffs[None, :]) * x
    assert np.max(np.abs(out - expect)) < 1e-15


def test_enc_full_matches_enc_left():
    from blindtrain.obfuscate import enc_left, kgen
    x = smooth_field(6, 7, make_rng(12))
    out = SCHEMES["enc_full"](x, KS, make_rng(13))
    sk = kgen(6, 7, 1, KS, make_rng(13))
    assert np.max(np.abs(out - enc_left(sk, x))) < 1e-15


def test_enc_full_shuffles_while_preserving_multiset_magnitudes():
    """Undoing each entry's coefficient ratio leaves the input's entries,
    shuffled: the sorted magnitudes match the input's to within 1 ulp,
    though the entries have moved."""
    from blindtrain.obfuscate import kgen
    x = smooth_field(10, 10, make_rng(14))
    keyspace = KeySpaceConfig(2)
    out = SCHEMES["enc_full"](x, keyspace, make_rng(15))
    assert out.shape == x.shape
    assert not np.allclose(out, x)
    sk = kgen(10, 10, 1, keyspace, make_rng(15))  # the key the scheme drew
    ratio = sk.slots[0].coeffs[:, None] / sk.slots[1].coeffs[None, :]
    unscaled = out / ratio
    assert not np.allclose(unscaled, x)  # the permutations moved entries
    np.testing.assert_array_max_ulp(np.sort(np.abs(unscaled), axis=None),
                                    np.sort(np.abs(x), axis=None), maxulp=1)


# -- scores ------------------------------------------------------------------

def test_identity_score_is_most_negative():
    x = smooth_field(48, 48, make_rng(16))
    s_id = pooled_privacy_score("identity", [x], KS, make_rng(17))
    s_full = pooled_privacy_score("enc_full", [x], KS, make_rng(17))
    assert s_id < s_full <= 0.0


def assert_required_ordering(scores):
    """Full blinding beats coefficients-only beats one scalar beats
    nothing; additive masking sits on its own branch below full."""
    assert scores["enc_full"] > scores["enc_no_perm"]
    assert scores["enc_no_perm"] > scores["scalar_mult"]
    assert scores["scalar_mult"] > scores["identity"]
    assert scores["enc_full"] > scores["add_random"]
    assert scores["add_random"] >= scores["identity"]


def test_pooled_scores_recover_strict_ordering():
    patch_rng = make_rng(18)
    patches = [smooth_field(48, 48, patch_rng) for _ in range(12)]
    rng = make_rng(19)
    scores = {name: pooled_privacy_score(name, patches, KS, rng) for name in SCHEMES}
    assert_required_ordering(scores)


@pytest.mark.parametrize("size", [4, 16, 64, 255])
def test_compare_schemes_ordering_per_keyspace(size):
    rows = compare_schemes([size], seed=0)
    by_name = {r["scheme"]: r["privacy_bits"] for r in rows}
    assert_required_ordering(by_name)
    assert list(by_name) == list(SCHEMES)  # rows in display order
    assert all(r["keyspace"] == size for r in rows)
    assert all(r["privacy_bits"] <= 0.0 for r in rows)


def test_compare_schemes_row_format():
    rows = compare_schemes([16], n_patches=4, seed=1)
    assert len(rows) == 5
    assert set(rows[0]) == {"scheme", "keyspace", "privacy_bits", "n_samples", "n_bins"}
    assert rows[0]["n_samples"] == 4 * 48 * 48
