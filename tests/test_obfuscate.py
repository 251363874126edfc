import math
import tracemalloc

import numpy as np
import pytest

from blindtrain import obfuscate
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
    key_transpose,
    kgen,
    min_rounds,
    probe_sides,
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
    for bad in (np.inf, -np.inf, np.nan, 1e-320, 1e308):  # non-finite, or no normal reciprocal
        with pytest.raises(ValueError, match="not invertible"):
            KeySlot(np.array([bad, 2.0]), np.array([1, 0]))
    with pytest.raises(ValueError):
        KeySlot(np.array([1.0, 2.0]), np.array([0, 0]))  # not a permutation
    for perm in ([0, 2], [-1, 0], [1, -2]):  # out of range, negative
        with pytest.raises(ValueError, match="outside"):
            KeySlot(np.array([1.0, 2.0]), np.array(perm))
    with pytest.raises(ShapeError):
        KeySlot(np.array([1.0, 2.0]), np.array([0, 1, 2]))


def test_key_slot_derives_reciprocals_and_the_inverse_permutation():
    rng = make_rng(13)
    for size in (1, 2, 7, 300):
        slot = KeySlot(rng.integers(1, 256, size).astype(np.float64), rng.permutation(size))
        assert slot.recip.tobytes() == (1.0 / slot.coeffs).tobytes()
        assert slot.inv_perm.dtype == np.argsort(slot.perm).dtype
        assert slot.inv_perm.tobytes() == np.argsort(slot.perm).tobytes()


@pytest.mark.parametrize("keyspace", [2, 255, 2**63 - 1])
@pytest.mark.parametrize("size", [1, 5, 1024])
def test_drawn_slot_is_the_validated_slot_of_its_draws(size, keyspace):
    """kslot skips KeySlot's checks, yet gives the slot KeySlot builds
    from the same draws: every field of the same dtype and bytes."""
    drawn = obfuscate.kslot(size, KeySpaceConfig(keyspace), make_rng(14))
    rng = make_rng(14)
    coeffs = rng.integers(1, keyspace + 1, size=size).astype(np.float64)
    built = KeySlot(coeffs, rng.permutation(size))
    for name in ("coeffs", "perm", "inv_perm", "recip"):
        got, want = getattr(drawn, name), getattr(built, name)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name
    assert drawn.size == size


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


# -- kernels: bytes, dtypes, layout ---------------------------------------

def ix_enc(row, col, a):
    """The single-expression blinding the gather-and-scale kernel
    computes block by block: the ratio is num * (1 / den)."""
    return (row.coeffs[:, None] * (1.0 / col.coeffs)[None, :]) * a[np.ix_(row.perm, col.perm)]


def ix_dec(sk, c_enc):
    row, col = sk.slots[0], sk.slots[2]
    im, ip = row.inv_perm, col.inv_perm
    return (col.coeffs[ip][None, :] * (1.0 / row.coeffs[im])[:, None]) * c_enc[np.ix_(im, ip)]


def division_outputs(sk, a, b, c):
    """Each kernel's output in the division form (num / den) * a[np.ix_(...)],
    the exact ratio rounded once."""
    def enc(row, col, x):
        return (row.coeffs[:, None] / col.coeffs[None, :]) * x[np.ix_(row.perm, col.perm)]
    row, col = sk.slots[0], sk.slots[2]
    im, ip = row.inv_perm, col.inv_perm
    return [enc(sk.slots[0], sk.slots[1], a), enc(sk.slots[1], sk.slots[2], b),
            (col.coeffs[ip][None, :] / row.coeffs[im][:, None]) * c[np.ix_(im, ip)]]


def kernel_cases(rng):
    """Keys with operands of random shapes, 1 x n and m x 1 among them,
    carrying signed zeros, infinities and subnormals."""
    dims = [tuple(int(v) for v in rng.integers(1, 40, size=3)) for _ in range(40)]
    dims += [(1, 7, 5), (6, 1, 4), (5, 6, 1), (1, 1, 1), (1, 9, 1), (64, 33, 17)]
    for m, n, p in dims:
        a, b, c = (rng.standard_normal(shape) for shape in ((m, n), (n, p), (m, p)))
        for x in (a, b, c):
            x.flat[rng.integers(0, x.size, size=3)] = [-0.0, np.inf, 5e-324]
        yield kgen(m, n, p, KS, rng), a, b, c


def kernel_outputs(sk, a, b, c):
    return [(enc_left(sk, a), ix_enc(sk.slots[0], sk.slots[1], np.asarray(a, np.float64))),
            (enc_right(sk, b), ix_enc(sk.slots[1], sk.slots[2], np.asarray(b, np.float64))),
            (dec_only(sk, c), ix_dec(sk, np.asarray(c, np.float64)))]


def test_kernels_match_ix_form_byte_for_byte():
    for case in kernel_cases(make_rng(60)):
        for got, want in kernel_outputs(*case):
            assert got.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.int64, np.float32])
def test_kernels_return_float64_for_other_real_inputs(dtype):
    rng = make_rng(61)
    for _ in range(20):
        sk = random_case(rng)[0]
        m, n, p = sk.dims
        a, b, c = (rng.integers(-1000, 1000, size=s).astype(dtype)
                   for s in ((m, n), (n, p), (m, p)))
        for got, want in kernel_outputs(sk, a, b, c):
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes()


def test_kernels_read_non_contiguous_views_like_their_copies():
    rng = make_rng(62)
    for sk, *_ in kernel_cases(rng):
        m, n, p = sk.dims
        base = rng.standard_normal((3 * n, 2 * m))
        a_view = base[::3, ::2].T  # (m, n), neither C nor F order
        b_view = rng.standard_normal((p, n)).T  # a transposed view
        c_view = rng.standard_normal((2 * m, p))[::2]
        if min(m, n) > 1:
            assert not a_view.flags["C_CONTIGUOUS"]
        views = kernel_outputs(sk, a_view, b_view, c_view)
        copies = kernel_outputs(sk, *(np.ascontiguousarray(v) for v in (a_view, b_view, c_view)))
        for (got, _), (want, _) in zip(views, copies):
            assert got.tobytes() == want.tobytes()


def test_kernel_output_is_fresh_c_order_memory():
    rng = make_rng(63)
    for sk, a, b, c in kernel_cases(rng):
        kept = [x.copy() for x in (a, b, c)]
        for (out, _), x in zip(kernel_outputs(sk, a, b, c), (a, b, c)):
            assert out.flags["C_CONTIGUOUS"] and out.flags["WRITEABLE"]
            assert not np.shares_memory(out, x)
            out[...] = 7.0
        for x, k in zip((a, b, c), kept):
            assert x.tobytes() == k.tobytes()


def block_edge_cases(rng):
    """Operands at the edges of the kernels' row blocks: row counts one
    under, at and one over a block, several blocks with a remainder, a
    single row, and rows wider than one whole block."""
    n = 300
    rows = obfuscate._BLOCK_BYTES // (8 * n)  # rows per block at this width
    dims = [(rows - 1, n, rows + 1), (rows, n, 2 * rows), (rows + 1, n, 3 * rows + 2),
            (3 * rows + 5, n, 1), (1, n, 2 * rows + 7)]
    wide = obfuscate._BLOCK_BYTES // 8 + 3  # one row fills more than a block
    dims += [(1, wide, 3), (3, 2, wide), (2, wide, wide // 40)]
    for m, k, p in dims:
        a, b, c = (rng.standard_normal(shape) for shape in ((m, k), (k, p), (m, p)))
        for x in (a, b, c):
            x.flat[rng.integers(0, x.size, size=3)] = [-0.0, np.nan, -np.inf]
        yield kgen(m, k, p, KS, rng), a, b, c


def test_kernels_match_ix_form_at_block_edges():
    for case in block_edge_cases(make_rng(64)):
        for got, want in kernel_outputs(*case):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_gather_scale_takes_one_factor_per_row_and_one_per_column():
    # 1-D factors leave no orientation to guess, dims of 1 included:
    # out(i, j) = a(rows(i), cols(j)) * (row_f(i) * col_f(j)), byte for
    # byte the broadcast form
    rng = make_rng(59)
    for m, n in [(1, 1), (1, 6), (6, 1), (3, 4), (4, 3)]:
        a = rng.standard_normal((m + 2, n + 3))
        rows, cols = rng.permutation(m + 2)[:m], rng.permutation(n + 3)[:n]
        row_f, col_f = rng.uniform(0.5, 2.0, m), rng.uniform(0.5, 2.0, n)
        got = obfuscate._gather_scale(a, rows, cols, row_f, col_f)
        want = (row_f[:, None] * col_f[None, :]) * a[np.ix_(rows, cols)]
        assert got.shape == (m, n)
        assert got.tobytes() == want.tobytes()


def test_kernels_stay_within_five_ulps_of_the_division_form():
    # Against the exact x = (num / den) * a, the kernels' ratio
    # num * fl(1 / den) is rounded twice and the product once, each time
    # by at most u = 2**-53 relative; the division form is rounded twice.
    # So |kernel - division| <= 5u|x| (1 + O(u)), and u|v| < ulp(v) for a
    # normal v: at most 5 ulps of the division form.  A subnormal result
    # is rounded in absolute steps of 2**-1074 instead.  The two ratios
    # differ by at most 3u relative, so before the product's rounding
    # the two results differ by at most 3u|x|: under one step wherever
    # |x| < 2**-1021 / 3, which holds for every subnormal result here
    # (at most 255 times the 5e-324 the cases inject).  Two reals under a
    # step apart round at most one step apart.  Non-finite entries come
    # only from non-finite operand entries (coefficient ratios lie in
    # [1/255, 255]), so both forms hold them in the same places.
    cases = [*kernel_cases(make_rng(60)), *block_edge_cases(make_rng(64))]
    tiny = np.finfo(np.float64).tiny
    for sk, a, b, c in cases:
        got = [enc_left(sk, a), enc_right(sk, b), dec_only(sk, c)]
        for new, old in zip(got, division_outputs(sk, a, b, c)):
            finite = np.isfinite(old)
            assert np.array_equal(np.isfinite(new), finite)
            assert np.array_equal(new[~finite], old[~finite], equal_nan=True)
            new, old = new[finite], old[finite]
            ulp = np.spacing(np.abs(old))
            bound = np.where(np.abs(old) < tiny, ulp, 5 * ulp)
            assert np.all(np.abs(new - old) <= bound)


def test_unblinding_into_a_column_slice_writes_only_that_slice():
    rng = make_rng(65)
    for sk, _, _, c in block_edge_cases(rng):
        m, _, p = sk.dims
        dest = rng.standard_normal((m, p + 5))
        kept = dest.copy()
        view = dest[:, 2:2 + p]  # a strided, non-contiguous destination
        got = dec_only(sk, c, out=view)
        assert got is view
        assert np.ascontiguousarray(view).tobytes() == ix_dec(sk, c).tobytes()
        for cols in (slice(0, 2), slice(2 + p, None)):
            assert dest[:, cols].tobytes() == kept[:, cols].tobytes()


def test_dec_unblinds_into_out_and_verifies():
    rng = make_rng(66)
    for _ in range(10):
        sk, a, b = random_case(rng, hi=12)
        a_enc, b_enc = enc_pair(sk, a, b)
        out = np.full((a.shape[0], b.shape[1] + 1), 3.0)[:, 1:]
        got = dec(sk, a_enc @ b_enc, a, b, 10, rng, out=out)
        assert got is out
        assert np.ascontiguousarray(out).tobytes() == dec(sk, a_enc @ b_enc, a, b, 10, rng).tobytes()
        bad = a_enc @ b_enc
        bad[0, 0] += 1e3
        with pytest.raises(IntegrityFailure):
            dec(sk, bad, a, b, 30, rng, out=out)


def test_out_must_fit_and_not_overlap_the_product():
    sk = kgen(3, 4, 5, KS, make_rng(67))
    c = make_rng(68).standard_normal((3, 5))
    for wrong in (np.empty((5, 3)), np.empty((3, 5), dtype=np.float32)):
        with pytest.raises(ShapeError):
            dec_only(sk, c, out=wrong)
    with pytest.raises(ValueError, match="overlaps"):
        dec_only(sk, c, out=c)


@pytest.mark.parametrize("kernel, shape", [
    (enc_left, (512, 1024)), (enc_right, (512, 1024)), (dec_only, (512, 1024))])
def test_kernel_peak_allocation_is_one_output_plus_a_block(kernel, shape):
    """tracemalloc sees numpy's data buffers: the peak may hold the
    output and one block's temporaries, never a second operand-sized
    array."""
    rows, cols = shape
    dims = {enc_left: (rows, cols, 4), enc_right: (4, rows, cols), dec_only: (rows, 4, cols)}
    sk = kgen(*dims[kernel], KS, make_rng(69))
    x = make_rng(70).standard_normal(shape)
    tracemalloc.start()
    try:
        out = kernel(sk, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.nbytes == rows * cols * 8
    assert peak < out.nbytes + 2 * obfuscate._BLOCK_BYTES



@pytest.mark.parametrize("kernel", [enc_left, enc_right])
def test_blinding_into_out_gives_the_same_bytes_in_at_most_two_blocks(kernel):
    """Blinding into a slice of a reused byte buffer, as the coordinator
    does, writes the bytes a fresh output holds, leaves the rest of the
    buffer alone and allocates no more than two blocks' temporaries."""
    rows, cols = 512, 1024
    dims = {enc_left: (rows, cols, 4), enc_right: (4, rows, cols)}
    sk = kgen(*dims[kernel], KS, make_rng(71))
    x = make_rng(72).standard_normal((rows, cols))
    wire = np.full(8 * rows * cols + 16, 0xAB, np.uint8)
    out = wire[8 : 8 + 8 * rows * cols].view(np.float64).reshape(rows, cols)
    tracemalloc.start()
    try:
        got = kernel(sk, x, out=out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got is out
    assert out.tobytes() == kernel(sk, x).tobytes()
    assert (wire[:8] == 0xAB).all() and (wire[-8:] == 0xAB).all()
    assert peak <= 2 * obfuscate._BLOCK_BYTES


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


def test_transposed_backward_products_decrypt_under_transposed_shifted_keys():
    """Over 200 shapes, as criterion 3: a delta blinded in the forward
    product's shape multiplies the held pair into delta @ X^T and
    W^T @ delta, which decrypt under key_transpose(key_shift(sk, 1)) and
    key_transpose(key_shift(sk, 2)) within criterion 3's bound, and one
    blinded delta serves both."""
    rng = make_rng(2)
    worst = 0.0
    for _ in range(200):
        m, n, p = (int(v) for v in rng.integers(1, 13, size=3))
        w, x = rng.standard_normal((m, n)), rng.standard_normal((n, p))
        delta = rng.standard_normal((m, p))
        sk = kgen(m, n, p, KS, rng)
        w_enc, x_enc = enc_pair(sk, w, x)
        k1, k2 = key_transpose(key_shift(sk, 1)), key_transpose(key_shift(sk, 2))
        assert k1.dims == (m, p, n) and k2.dims == (n, m, p)
        d_enc = enc_left(k1, delta)
        assert d_enc.tobytes() == enc_right(k2, delta).tobytes()
        for got, want in ((dec(k1, d_enc @ x_enc.T, delta, x.T, 4, rng), delta @ x.T),
                          (dec(k2, w_enc.T @ d_enc, w.T, delta, 4, rng), w.T @ delta)):
            worst = max(worst, float(np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))))
    assert worst <= 1e-9


def test_key_transpose_twice_gives_back_the_slots_own_arrays():
    sk = kgen(2, 3, 4, KS, make_rng(27))
    t = key_transpose(sk)
    assert t.dims == (4, 3, 2)
    for dual, slot in zip(t.slots, reversed(sk.slots)):  # reversed, each its dual
        assert dual.coeffs is slot.recip and dual.recip is slot.coeffs
        assert dual.perm is slot.perm and dual.inv_perm is slot.inv_perm
        assert np.allclose(encryption_matrix(dual), inverse_encryption_matrix(slot).T,
                           rtol=1e-15, atol=0)
    for back, slot in zip(key_transpose(t).slots, sk.slots):
        assert all(getattr(back, f) is getattr(slot, f)
                   for f in ("coeffs", "perm", "inv_perm", "recip"))


def test_dec_adds_into_its_block_with_dec_onlys_bytes_and_no_array_of_its_size():
    """dec(..., add=True) adds the unblinded product into `out` one row
    block at a time: each entry gains dec_only's bytes for it, and the
    call allocates nothing near the product's size."""
    rng = make_rng(30)
    m, n, p = 600, 3, 500  # a 2.3 MiB product: ten row blocks of 65 rows
    a, b = rng.standard_normal((m, n)), rng.standard_normal((n, p))
    sk = kgen(m, n, p, KS, rng)
    c_enc = enc_left(sk, a) @ enc_right(sk, b)
    base = rng.standard_normal((m, p))
    out = base.copy()
    side = probe_sides([(a, b)], 4, rng, KS.size)[0]
    tracemalloc.start()
    try:
        got = dec(sk, c_enc, a, b, 4, rng, out=out, probe=side, add=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got is out
    assert out.tobytes() == (base + dec_only(sk, c_enc)).tobytes()
    # the block buffer, plus _gather_scale's own row gather and ratios
    assert peak <= 4 * obfuscate._BLOCK_BYTES < out.nbytes / 2
    bad = c_enc.copy()
    bad[7, 7] += 1.0
    with pytest.raises(IntegrityFailure):
        dec(sk, bad, a, b, 30, rng, out=base.copy(), add=True)


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


def test_probe_matrix_matches_row_by_row_reference():
    # the k probes run as one product; checking them one row vector at
    # a time must fail on the same first row with the same residual
    rng = make_rng(34)
    first_failures = set()
    for _ in range(200):
        sk, a, b = random_case(rng)
        m, n, p = sk.dims
        k = int(rng.integers(1, 6))
        c_enc = enc_left(sk, a) @ enc_right(sk, b)
        c_enc[int(rng.integers(m)), int(rng.integers(p))] += 1.0
        probes = rng.integers(0, 2, size=(k, m))
        c = dec_only(sk, c_enc)
        threshold = 1e-8 * max(1.0, np.max(np.abs(a)) * np.max(np.abs(b)) * n)
        residuals = [np.max(np.abs((l @ a) @ b - l @ c)) for l in probes.astype(np.float64)]
        failing = [i for i, res in enumerate(residuals) if not res <= threshold]
        if not failing:
            dec(sk, c_enc, a, b, k=k, rng=FixedProbes(probes))
            continue
        with pytest.raises(IntegrityFailure) as err:
            dec(sk, c_enc, a, b, k=k, rng=FixedProbes(probes))
        assert err.value.round_index == failing[0]
        assert err.value.residual == pytest.approx(residuals[failing[0]], rel=1e-9)
        first_failures.add(failing[0])
    assert len(first_failures) > 1  # later rows were reached too


class QueuedProbes:
    """Stands in for the generator: hands out preset probe matrices in turn."""

    def __init__(self, probes):
        self.probes = list(probes)

    def integers(self, low, high, size):
        assert (low, high, size) == (0, 2, self.probes[0].shape)
        return self.probes.pop(0)


def verdict(*args, **kw):
    try:
        dec(*args, **kw)
    except IntegrityFailure as exc:
        return exc.round_index, exc.residual
    return None


def test_precomputed_probe_side_gives_the_same_verdict():
    # dec handed a probe side gives the round index and residual that
    # dec drawing the same probes itself gives, bit for bit
    rng = make_rng(35)
    verdicts = set()
    for _ in range(200):
        k = int(rng.integers(1, 6))
        sk, a, b = random_case(rng)
        m, _, p = sk.dims
        c_enc = enc_left(sk, a) @ enc_right(sk, b)
        c_enc[int(rng.integers(m)), int(rng.integers(p))] += 1.0
        probes = rng.integers(0, 2, size=(k, m))
        side, = probe_sides([(a, b)], k, FixedProbes(probes), KS.size)
        got = verdict(sk, c_enc, a, b, k, None, probe=side)
        assert got == verdict(sk, c_enc, a, b, k, FixedProbes(probes))
        verdicts.add(got is None)
    assert verdicts == {True, False}  # both outcomes were reached


def test_probe_sides_of_shared_operands_keep_each_products_probes_and_threshold(monkeypatch):
    # products sharing A (then B) are probed from one stacked product,
    # but each keeps the probes it drew, in order, its own threshold,
    # and its verdict; each distinct operand is scanned once
    rng = make_rng(36)
    k = 4
    scans = []
    max_abs = obfuscate.max_abs

    def counting_max_abs(x):
        scans.append(x)
        return max_abs(x)

    monkeypatch.setattr(obfuscate, "max_abs", counting_max_abs)
    for shared in ("a", "b"):
        for _ in range(20):
            m, n, p = (int(v) for v in rng.integers(2, 9, size=3))
            common = rng.standard_normal((m, n) if shared == "a" else (n, p))
            cases = []
            for scale in (1.0, 3.0, 0.5):
                other = scale * rng.standard_normal((n, p) if shared == "a" else (m, n))
                a, b = (common, other) if shared == "a" else (other, common)
                sk = kgen(m, n, p, KS, rng)
                c_enc = enc_left(sk, a) @ enc_right(sk, b)
                c_enc[int(rng.integers(m)), int(rng.integers(p))] += float(rng.integers(0, 2))
                cases.append((sk, a, b, c_enc, rng.integers(0, 2, size=(k, m))))
            scans.clear()
            sides = probe_sides([(a, b) for _, a, b, _, _ in cases], k,
                                QueuedProbes(case[4] for case in cases), KS.size)
            assert len(scans) == 4 and len({id(x) for x in scans}) == 4
            for side, (sk, a, b, c_enc, probes) in zip(sides, cases):
                alone, = probe_sides([(a, b)], k, FixedProbes(probes), KS.size)
                assert side.probes.tobytes() == alone.probes.tobytes()
                assert side.threshold == alone.threshold
                np.testing.assert_allclose(side.expected, alone.expected, rtol=1e-12, atol=1e-12)
                got = verdict(sk, c_enc, a, b, k, None, probe=side)
                want = verdict(sk, c_enc, a, b, k, FixedProbes(probes))
                assert (got is None) == (want is None)
                if got is not None:
                    assert got[0] == want[0]
                    assert got[1] == pytest.approx(want[1], rel=1e-9)


@pytest.mark.parametrize("peak", [1e160, np.inf, np.nan])
def test_probe_sides_refuse_operands_past_float_range_before_drawing_a_probe(peak):
    """A product whose bound 255 m n max|A| max|B| is not finite raises
    an OverflowError carrying its index, before any probe is drawn; one
    whose bound is finite, however large, is probed."""
    rng = make_rng(37)
    state = rng.bit_generator.state
    fits = (np.full((2, 3), 1e150), np.full((3, 4), -1e150))  # bound 1.5e303
    past = (np.full((2, 3), 1e160), np.full((3, 4), peak))
    with pytest.raises(OverflowError, match="past the range a probe can check") as info:
        probe_sides([fits, past, fits], 4, rng, 255)
    assert info.value.index == 1
    assert rng.bit_generator.state == state
    side, = probe_sides([fits], 4, rng, 255)
    assert np.isfinite(side.expected).all() and math.isfinite(side.threshold)


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


def test_min_rounds_matches_the_direct_formula_where_it_holds():
    # -expm1(log1p(-t) / total) is 1 - (1 - t)**(1 / total) without the
    # cancellation; the k agree over the range the direct form handles
    rng = make_rng(38)
    for _ in range(2000):
        t = float(np.exp(rng.uniform(np.log(1e-4), np.log(0.5))))
        total = int(np.exp(rng.uniform(0.0, np.log(1e7))))
        per = 1.0 - (1.0 - t) ** (1.0 / total)
        k = min_rounds(IntegrityConfig(t=t, n_workers=total))
        assert k == math.floor(math.log2(1.0 / per)) + 1


def test_min_rounds_holds_past_the_count_where_the_direct_form_rounds_to_zero():
    # at t = 0.01 the direct form's budget is exactly 0 beyond ~1e14
    # verifications, and log2(1 / 0) raised ZeroDivisionError
    assert 1.0 - (1.0 - 0.01) ** (1.0 / 3e15) == 0.0
    k = min_rounds(IntegrityConfig(t=0.01, n_workers=10**15, n_layers=3))
    budget = -math.log1p(-0.01) / 3e15  # the per-product budget, to first order
    assert k == math.floor(math.log2(1.0 / budget)) + 1 == 59
    huge = IntegrityConfig(t=0.01, task="training", dataset_size=99999999999999999999999,
                           n_workers=2, n_layers=3)
    assert min_rounds(huge) == 88


def test_min_rounds_beyond_float_range_is_an_overflow():
    for cfg in (IntegrityConfig(t=0.01, task="training", dataset_size=10**400),
                IntegrityConfig(t=1e-300, n_workers=10**300)):
        with pytest.raises(OverflowError):
            min_rounds(cfg)


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
