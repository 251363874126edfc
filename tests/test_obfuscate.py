import math

import numpy as np
import pytest

from blindtrain.obfuscate import (
    IntegrityConfig,
    IntegrityFailure,
    KeySlot,
    KeySpaceConfig,
    SecretKey,
    brute_force_bound,
    dec,
    dec_only,
    enc_left,
    enc_pair,
    enc_right,
    encryption_matrix,
    inverse_encryption_matrix,
    key_shift,
    kgen,
    min_rounds,
)
from blindtrain.tensor import ShapeError, make_rng

KS = KeySpaceConfig()


def random_case(rng, hi=9):
    m, n, p = (int(v) for v in rng.integers(1, hi, size=3))
    a = rng.standard_normal((m, n))
    b = rng.standard_normal((n, p))
    return kgen(m, n, p, KS, rng), a, b


def hand_key():
    # 2x2x2 key with known slots; permutations are 0-based here
    return SecretKey((
        KeySlot(np.array([2.0, 3.0]), np.array([1, 0])),
        KeySlot(np.array([1.0, 2.0]), np.array([0, 1])),
        KeySlot(np.array([1.0, 1.0]), np.array([1, 0])),
    ))


# -- key generation --------------------------------------------------------

def test_kgen_same_seed_same_key():
    k1 = kgen(4, 3, 2, KS, make_rng(11))
    k2 = kgen(4, 3, 2, KS, make_rng(11))
    for s1, s2 in zip(k1.slots, k2.slots):
        assert np.array_equal(s1.coeffs, s2.coeffs)
        assert np.array_equal(s1.perm, s2.perm)
    assert k1.dims == (4, 3, 2)


def test_kgen_coefficients_in_range_and_perms_bijective():
    rng = make_rng(12)
    for _ in range(20):
        sk = kgen(5, 4, 3, KS, rng)
        for slot in sk.slots:
            assert slot.coeffs.min() >= 1 and slot.coeffs.max() <= KS.size
            assert np.array_equal(slot.coeffs, np.round(slot.coeffs))
            assert np.array_equal(np.sort(slot.perm), np.arange(slot.size))
            assert np.array_equal(slot.perm[slot.inv_perm], np.arange(slot.size))


def test_kgen_validation():
    with pytest.raises(ValueError):
        kgen(0, 2, 2, KS, make_rng(0))
    with pytest.raises(ValueError):
        KeySpaceConfig(1)


def test_key_slot_validation():
    with pytest.raises(ValueError):
        KeySlot(np.array([0.0, 1.0]), np.array([0, 1]))  # zero coefficient
    with pytest.raises(ValueError):
        KeySlot(np.array([1.0, 2.0]), np.array([0, 0]))  # not a permutation
    with pytest.raises(ShapeError):
        KeySlot(np.array([1.0, 2.0]), np.array([0, 1, 2]))


# -- blinding --------------------------------------------------------------

def test_enc_left_hand_case():
    # identity operand: the blinded matrix exposes the scaled permutation
    a = np.eye(2)
    a_enc = enc_left(hand_key(), a)
    assert np.allclose(a_enc, [[0.0, 1.0], [3.0, 0.0]], atol=1e-15)


def test_enc_pair_shares_inner_slot():
    rng = make_rng(20)
    sk, a, b = random_case(rng)
    a_enc, b_enc = enc_pair(sk, a, b)
    assert np.array_equal(a_enc, enc_left(sk, a))
    assert np.array_equal(b_enc, enc_right(sk, b))


def test_enc_shape_validation():
    sk = kgen(3, 4, 2, KS, make_rng(21))
    with pytest.raises(ShapeError):
        enc_left(sk, np.zeros((4, 3)))
    with pytest.raises(ShapeError):
        enc_right(sk, np.zeros((2, 4)))
    with pytest.raises(ShapeError):
        dec_only(sk, np.zeros((2, 3)))


def test_roundtrip_exact_to_float_noise():
    rng = make_rng(22)
    for _ in range(100):
        sk, a, b = random_case(rng)
        a_enc, b_enc = enc_pair(sk, a, b)
        plain = a @ b
        got = dec_only(sk, a_enc @ b_enc)
        assert np.max(np.abs(got - plain)) <= 1e-9 * max(1.0, np.max(np.abs(plain)))


def test_blinded_operands_differ_from_plaintext():
    rng = make_rng(23)
    sk = kgen(6, 6, 6, KS, rng)
    a = rng.standard_normal((6, 6))
    b = rng.standard_normal((6, 6))
    a_enc, b_enc = enc_pair(sk, a, b)
    assert np.max(np.abs(a_enc - a)) > 1e-6
    assert np.max(np.abs(b_enc - b)) > 1e-6


# -- the matrix-form oracle ------------------------------------------------

def test_encryption_matrix_inverse_is_exact():
    rng = make_rng(24)
    for _ in range(30):
        sk = kgen(int(rng.integers(1, 10)), 2, 2, KS, rng)
        e = encryption_matrix(sk.slots[0])
        e_inv = inverse_encryption_matrix(sk.slots[0])
        assert np.max(np.abs(e @ e_inv - np.eye(sk.dims[0]))) < 1e-12
        assert np.max(np.abs(e_inv - np.linalg.inv(e))) < 1e-12


def test_enc_equals_sandwich_by_encryption_matrices():
    rng = make_rng(25)
    for _ in range(50):
        sk, a, b = random_case(rng)
        e1 = encryption_matrix(sk.slots[0])
        e2 = encryption_matrix(sk.slots[1])
        e3 = encryption_matrix(sk.slots[2])
        e2_inv = inverse_encryption_matrix(sk.slots[1])
        e3_inv = inverse_encryption_matrix(sk.slots[2])
        a_enc, b_enc = enc_pair(sk, a, b)
        assert np.max(np.abs(a_enc - e1 @ a @ e2_inv)) < 1e-9
        assert np.max(np.abs(b_enc - e2 @ b @ e3_inv)) < 1e-9
        assert np.max(np.abs(a_enc @ b_enc - e1 @ a @ b @ e3_inv)) < 1e-9


def test_dec_only_equals_inverse_sandwich():
    rng = make_rng(26)
    for _ in range(30):
        sk, a, b = random_case(rng)
        c_enc = rng.standard_normal((sk.dims[0], sk.dims[2]))  # arbitrary, not a product
        e1_inv = inverse_encryption_matrix(sk.slots[0])
        e3 = encryption_matrix(sk.slots[2])
        assert np.max(np.abs(dec_only(sk, c_enc) - e1_inv @ c_enc @ e3)) < 1e-12


# -- key shift -------------------------------------------------------------

def test_key_shift_rotates_slots_left():
    sk = kgen(2, 3, 4, KS, make_rng(27))
    shifted = key_shift(sk, 2)
    assert shifted.dims == (4, 2, 3)
    assert shifted.slots[0] is sk.slots[2]  # p slot leads after a shift by two
    assert shifted.slots[1] is sk.slots[0]
    assert shifted.slots[2] is sk.slots[1]
    assert key_shift(sk, 0).slots == sk.slots
    assert key_shift(sk, 3).slots == sk.slots
    assert key_shift(key_shift(sk, 1), 1).slots == key_shift(sk, 2).slots
    assert key_shift(sk, 5).slots == key_shift(sk, 2).slots


def test_backward_reuse_identities():
    # products of already-blinded operands with the shifted-key delta
    # decrypt to the two backward products
    rng = make_rng(28)
    for _ in range(50):
        sk, w, x = random_case(rng)
        m, n, p = sk.dims
        delta = rng.standard_normal((m, p))
        w_enc, x_enc = enc_pair(sk, w, x)
        d_enc = enc_left(key_shift(sk, 2), delta.T)
        t1 = dec_only(key_shift(sk, 1), x_enc @ d_enc)
        t2 = dec_only(key_shift(sk, 2), d_enc @ w_enc)
        assert np.max(np.abs(t1 - x @ delta.T)) <= 1e-9 * max(1.0, np.max(np.abs(x @ delta.T)))
        assert np.max(np.abs(t2 - delta.T @ w)) <= 1e-9 * max(1.0, np.max(np.abs(delta.T @ w)))


# -- verification ----------------------------------------------------------

def test_honest_products_always_verify():
    rng = make_rng(29)
    for _ in range(200):
        sk, a, b = random_case(rng)
        a_enc, b_enc = enc_pair(sk, a, b)
        got = dec(sk, a_enc @ b_enc, a, b, k=4, rng=rng)
        assert np.max(np.abs(got - a @ b)) < 1e-9


def test_single_entry_tamper_detected_half_the_time_at_one_round():
    rng = make_rng(2)
    detected = 0
    trials = 1000
    for _ in range(trials):
        m, n, p = (int(v) for v in rng.integers(2, 9, size=3))
        a = rng.standard_normal((m, n))
        b = rng.standard_normal((n, p))
        sk = kgen(m, n, p, KS, rng)
        a_enc, b_enc = enc_pair(sk, a, b)
        c_enc = a_enc @ b_enc
        c_enc[int(rng.integers(m)), int(rng.integers(p))] += 1.0
        try:
            dec(sk, c_enc, a, b, k=1, rng=rng)
        except IntegrityFailure:
            detected += 1
    assert abs(detected / trials - 0.5) <= 0.05


def test_integrity_failure_carries_diagnostics():
    rng = make_rng(30)
    sk, a, b = random_case(rng)
    c_enc = (enc_left(sk, a) @ enc_right(sk, b))
    c_enc += 1.0  # corrupt every entry so the first round must catch it
    with pytest.raises(IntegrityFailure) as err:
        dec(sk, c_enc, a, b, k=8, rng=rng)
    assert err.value.round_index == 0
    assert err.value.residual > err.value.threshold


@pytest.mark.parametrize("k", [1, 2, 30])
@pytest.mark.parametrize("poison", ["one", "all"])
def test_non_finite_product_never_verifies(k, poison):
    # a NaN residual compares False against any threshold, so the test
    # must be "not <= threshold", not "> threshold"
    rng = make_rng(33)
    for _ in range(50):
        sk, a, b = random_case(rng)
        c_enc = enc_left(sk, a) @ enc_right(sk, b)
        if poison == "one":
            c_enc[int(rng.integers(c_enc.shape[0])), int(rng.integers(c_enc.shape[1]))] = np.nan
        else:
            c_enc[:] = np.nan
        with pytest.raises(IntegrityFailure):
            dec(sk, c_enc, a, b, k=k, rng=rng)


class FixedProbes:
    """Stands in for the generator: hands out a preset probe matrix."""

    def __init__(self, probes):
        self.probes = probes

    def integers(self, low, high, size):
        assert (low, high, size) == (0, 2, self.probes.shape)
        return self.probes


def test_probe_matrix_matches_column_by_column_reference():
    # the k probes run as one product; checking them one vector at a
    # time must fail on the same first column with the same residual
    rng = make_rng(34)
    first_failures = set()
    for _ in range(200):
        sk, a, b = random_case(rng)
        m, n, p = sk.dims
        k = int(rng.integers(1, 6))
        c_enc = enc_left(sk, a) @ enc_right(sk, b)
        c_enc[int(rng.integers(m)), int(rng.integers(p))] += 1.0
        probes = rng.integers(0, 2, size=(p, k))
        c = dec_only(sk, c_enc)
        threshold = 1e-8 * max(1.0, np.max(np.abs(a)) * np.max(np.abs(b)) * n)
        residuals = [np.max(np.abs(a @ (b @ r) - c @ r)) for r in probes.T.astype(np.float64)]
        failing = [i for i, res in enumerate(residuals) if not res <= threshold]
        if not failing:
            dec(sk, c_enc, a, b, k=k, rng=FixedProbes(probes))
            continue
        with pytest.raises(IntegrityFailure) as err:
            dec(sk, c_enc, a, b, k=k, rng=FixedProbes(probes))
        assert err.value.round_index == failing[0]
        assert err.value.residual == pytest.approx(residuals[failing[0]], rel=1e-9)
        first_failures.add(failing[0])
    assert len(first_failures) > 1  # later columns were reached too


def test_dec_validates_plaintext_shapes():
    rng = make_rng(31)
    sk, a, b = random_case(rng)
    c_enc = enc_left(sk, a) @ enc_right(sk, b)
    with pytest.raises(ShapeError):
        dec(sk, c_enc, a.T, b, k=1, rng=rng)


def test_verification_tolerates_large_magnitudes():
    # scale-aware threshold: honest verification must pass for big operands
    rng = make_rng(32)
    sk = kgen(8, 8, 8, KS, rng)
    a = 1e6 * rng.standard_normal((8, 8))
    b = 1e6 * rng.standard_normal((8, 8))
    a_enc, b_enc = enc_pair(sk, a, b)
    dec(sk, a_enc @ b_enc, a, b, k=10, rng=rng)


# -- probe budget ----------------------------------------------------------

def test_min_rounds_inference_case():
    cfg = IntegrityConfig(t=0.01, task="inference", n_workers=1, n_layers=10)
    assert min_rounds(cfg) == 10


def test_min_rounds_training_multiplier():
    # one epoch over a single batch still triples the product count
    cfg = IntegrityConfig(t=0.01, task="training", n_epochs=1,
                          dataset_size=32, batch_size=32, n_workers=1, n_layers=10)
    assert cfg.products_per_worker_layer == 3
    infer = IntegrityConfig(t=0.01, task="inference", n_workers=1, n_layers=10)
    assert min_rounds(cfg) >= min_rounds(infer)


def test_min_rounds_is_strict_and_monotone():
    for t in (0.5, 0.1, 0.01, 0.001):
        for layers in (1, 4, 16, 64):
            cfg = IntegrityConfig(t=t, n_workers=2, n_layers=layers)
            k = min_rounds(cfg)
            total = 2 * layers
            per = 1.0 - (1.0 - t) ** (1.0 / total)
            bound = math.log2(1.0 / per)
            assert k > bound >= k - 1
    ks = [min_rounds(IntegrityConfig(t=0.01, n_workers=1, n_layers=layers))
          for layers in (1, 2, 4, 8, 16)]
    assert ks == sorted(ks)


def test_min_rounds_config_validation():
    with pytest.raises(ValueError):
        IntegrityConfig(t=0.0)
    with pytest.raises(ValueError):
        IntegrityConfig(t=0.01, task="other")
    with pytest.raises(ValueError):
        IntegrityConfig(t=0.01, n_workers=0)


# -- enumeration cost ------------------------------------------------------

def test_brute_force_bound_tiny_case():
    assert brute_force_bound(1, 1, 2) == pytest.approx(2.0, abs=1e-12)


def test_brute_force_bound_matches_log_sum_oracle():
    # independent oracle: sum the logs directly instead of using lgamma
    def oracle(m, n, size):
        total = sum(math.log2(i) for i in range(2, m + 1))
        total += sum(math.log2(i) for i in range(2, n + 1))
        return total + (m + n) * math.log2(size)

    for m, n, size in [(2, 3, 4), (8, 8, 256), (16, 16, 255), (5, 9, 64)]:
        assert brute_force_bound(m, n, size) == pytest.approx(oracle(m, n, size), rel=1e-12)


def test_brute_force_bound_monotone():
    base = brute_force_bound(8, 8, 256)
    assert brute_force_bound(9, 8, 256) > base
    assert brute_force_bound(8, 9, 256) > base
    assert brute_force_bound(8, 8, 512) > base
    with pytest.raises(ValueError):
        brute_force_bound(0, 1, 2)
