import numpy as np
import pytest

from bilinear_cs.bilinear_ops import (CIRCULAR_CONVOLUTION, POINTWISE,
                                      UNITARY_PRODUCT, BilinearMapSpec,
                                      NormBoundCheck, apply_map,
                                      apply_map_batch, check_positive_cone_bounds,
                                      dft_unitary)
from bilinear_cs.sparse_model import support_from_indices


def naive_convolve(s, h):
    """Oracle: textbook double loop, no shortcuts."""
    n = len(s)
    z = np.zeros(n)
    for m in range(n):
        acc = 0.0
        for k in range(n):
            acc += s[k] * h[(m - k) % n]
        z[m] = acc
    return z


def test_spec_validation():
    with pytest.raises(ValueError):
        BilinearMapSpec("hadamard", 4)
    with pytest.raises(ValueError):
        BilinearMapSpec(UNITARY_PRODUCT, 4)  # missing the unitary
    with pytest.raises(ValueError):
        BilinearMapSpec(POINTWISE, 4, unitary=np.eye(4))  # unitary not allowed here
    with pytest.raises(ValueError):
        # not unitary
        BilinearMapSpec(UNITARY_PRODUCT, 2, unitary=np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_pointwise_small_example():
    spec = BilinearMapSpec(POINTWISE, 4)
    z = apply_map(spec, np.array([1.0, 2.0, 0.0, -1.0]), np.array([3.0, 0.5, 4.0, 2.0]))
    assert np.array_equal(z, np.array([3.0, 1.0, 0.0, -2.0]))


def test_convolution_matches_naive_double_loop():
    rng = np.random.default_rng(11)
    spec_cache = {}
    for n in (2, 3, 4, 8, 16):
        spec = spec_cache.setdefault(n, BilinearMapSpec(CIRCULAR_CONVOLUTION, n))
        for _ in range(25):
            s = rng.standard_normal(n)
            h = rng.standard_normal(n)
            got = apply_map(spec, s, h)
            assert np.allclose(got, naive_convolve(s, h), atol=1e-12)


def test_convolution_identity_and_shift():
    spec = BilinearMapSpec(CIRCULAR_CONVOLUTION, 6)
    h = np.arange(6, dtype=float)
    e0 = np.zeros(6); e0[0] = 1.0
    e1 = np.zeros(6); e1[1] = 1.0
    assert np.array_equal(apply_map(spec, e0, h), h)
    assert np.array_equal(apply_map(spec, e1, h), np.roll(h, 1))


def test_apply_map_matches_direct_sum_bitwise():
    """apply_map keeps the bits of the direct sum over the nonzeros of s."""
    rng = np.random.default_rng(17)
    for n in (3, 8, 16, 64):
        conv = BilinearMapSpec(CIRCULAR_CONVOLUTION, n)
        pw = BilinearMapSpec(POINTWISE, n)
        for _ in range(20):
            s = np.zeros(n)
            support = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            s[support] = rng.standard_normal(support.size)
            h = rng.standard_normal(n)
            ref = np.zeros(n)
            for k in np.flatnonzero(s):
                ref += s[k] * np.roll(h, k)
            assert np.array_equal(apply_map(conv, s, h), ref)
            assert np.array_equal(apply_map(pw, s, h), s * h)


def test_convolution_commutes():
    rng = np.random.default_rng(3)
    spec = BilinearMapSpec(CIRCULAR_CONVOLUTION, 12)
    for _ in range(10):
        s, h = rng.standard_normal(12), rng.standard_normal(12)
        assert np.allclose(apply_map(spec, s, h), apply_map(spec, h, s), atol=1e-12)


def test_convolution_accepts_sparse_vectors():
    spec = BilinearMapSpec(CIRCULAR_CONVOLUTION, 8)
    s = np.array([1.0, 0, 0, 0, 2.0, 0, 0, 0])
    h = np.array([0, 3.0, 0, 0, 0, 0, 0, 0])
    z = apply_map(spec, s, h)
    assert np.allclose(z, naive_convolve(s, h), atol=1e-14)


def test_dft_matrix_is_unitary():
    for n in (2, 3, 4, 8, 16):
        u = dft_unitary(n)
        assert np.max(np.abs(u.conj().T @ u - np.eye(n))) < 1e-12


def test_dft_diagonalizes_convolution():
    # sqrt(N) U^*(Us . Uh) must reproduce the direct convolution
    rng = np.random.default_rng(8)
    for n in (4, 8, 16, 32):
        u = dft_unitary(n)
        spec = BilinearMapSpec(UNITARY_PRODUCT, n, unitary=u)
        conv = BilinearMapSpec(CIRCULAR_CONVOLUTION, n)
        for _ in range(10):
            s, h = rng.standard_normal(n), rng.standard_normal(n)
            assert np.allclose(apply_map(spec, s, h), apply_map(conv, s, h),
                               atol=1e-9)


def test_unitary_product_complains_about_imaginary_output():
    # a unitary that does not come from a real bilinear map leaks an
    # imaginary part, which should be an error rather than a silent cast
    u = np.diag([1.0, np.exp(1j * np.pi / 4)])
    spec = BilinearMapSpec(UNITARY_PRODUCT, 2, unitary=u)
    e1 = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        apply_map(spec, e1, e1)


def test_apply_map_batch_matches_rowwise():
    rng = np.random.default_rng(19)
    n = 16
    u = dft_unitary(n)
    specs = [BilinearMapSpec(POINTWISE, n),
             BilinearMapSpec(CIRCULAR_CONVOLUTION, n),
             BilinearMapSpec(UNITARY_PRODUCT, n, unitary=u)]
    xs = rng.standard_normal((12, n))
    ys = rng.standard_normal((12, n))
    for spec in specs:
        batch = apply_map_batch(spec, xs, ys)
        for i in range(12):
            assert np.allclose(batch[i], apply_map(spec, xs[i], ys[i]), atol=1e-9)


def test_norm_bound_check_evaluate():
    ok = NormBoundCheck.evaluate(lhs=1.0, rhs_upper=2.0, rhs_lower=0.5)
    assert ok.satisfied
    assert ok.slack > 0
    for lhs in (3.0, 0.25):  # above the upper bound, below the lower one
        bad = NormBoundCheck.evaluate(lhs=lhs, rhs_upper=2.0, rhs_lower=0.5)
        assert not bad.satisfied
        assert bad.slack < 0


def test_positive_cone_sandwich_random_pairs():
    # |h||s| <= |h * s| <= sqrt(min(S,F)) |h||s| on nonnegative inputs
    rng = np.random.default_rng(21)
    for n, s_size, f_size in ((16, 2, 3), (32, 4, 4), (24, 5, 2)):
        for _ in range(50):
            si = np.sort(rng.choice(n, size=s_size, replace=False))
            hi = np.sort(rng.choice(n, size=f_size, replace=False))
            s = np.zeros(n); s[si] = np.abs(rng.standard_normal(s_size))
            h = np.zeros(n); h[hi] = np.abs(rng.standard_normal(f_size))
            chk = check_positive_cone_bounds(s, h)
            assert chk.satisfied
            # oracle recompute of both sides
            z = naive_convolve(s, h)
            prod = np.linalg.norm(s) * np.linalg.norm(h)
            assert abs(chk.lhs - np.linalg.norm(z)) < 1e-12
            assert abs(chk.rhs_lower - prod) < 1e-12
            assert abs(chk.rhs_upper - np.sqrt(min(s_size, f_size)) * prod) < 1e-12


def test_positive_cone_rejects_signed_input():
    s = np.array([1.0, -0.5, 0.0, 0.0])
    h = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        check_positive_cone_bounds(s, h)


def test_positive_cone_lower_bound_tight_for_one_sparse():
    # a single spike convolved with anything nonnegative is an isometry
    n = 10
    s = np.zeros(n); s[3] = 2.0
    h = np.zeros(n); h[[1, 4, 7]] = [1.0, 0.5, 2.0]
    chk = check_positive_cone_bounds(s, h)
    assert abs(chk.lhs - chk.rhs_lower) < 1e-12


def test_multiplicativity_on_separated_supports():
    rng = np.random.default_rng(33)
    n = 32
    i_set = support_from_indices([0, 1, 2], n)
    j_set = support_from_indices([0, 4, 8], n)  # sums all distinct mod 32
    for _ in range(25):
        s = np.zeros(n); s[list(i_set.indices)] = rng.standard_normal(3)
        h = np.zeros(n); h[list(j_set.indices)] = rng.standard_normal(3)
        z = naive_convolve(s, h)
        assert abs(np.linalg.norm(z) -
                   np.linalg.norm(s) * np.linalg.norm(h)) < 1e-9


def test_upper_bound_unitary_holds_for_dft():
    rng = np.random.default_rng(9)
    n = 16
    spec = BilinearMapSpec(UNITARY_PRODUCT, n, unitary=dft_unitary(n))
    for _ in range(20):
        si = rng.choice(n, size=3, replace=False)
        hi = rng.choice(n, size=5, replace=False)
        s = np.zeros(n); s[si] = rng.standard_normal(3)
        h = np.zeros(n); h[hi] = rng.standard_normal(5)
        # ||T(s,h)|| <= sqrt(N ||U||_inf^2 min(||s||_0, ||h||_0)) ||s|| ||h||
        k = min(np.count_nonzero(s), np.count_nonzero(h))
        lhs = np.linalg.norm(apply_map(spec, s, h))
        rhs = (np.sqrt(n * np.abs(spec.unitary).max() ** 2 * k)
               * np.linalg.norm(s) * np.linalg.norm(h))
        assert lhs <= rhs + 1e-9 * max(1.0, lhs, rhs)
