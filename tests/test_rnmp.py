import numpy as np
import pytest

from bilinear_cs import rnmp
from bilinear_cs.bilinear_ops import (CIRCULAR_CONVOLUTION, POINTWISE,
                                      UNITARY_PRODUCT, BilinearMapSpec,
                                      apply_map, apply_map_batch, dft_unitary)
from bilinear_cs.rnmp import (_BATCH, GRID_GUARD, RnmpEstimate, _sphere_grid,
                              apply_restricted_batch, basis_images,
                              certify_exhaustive, estimate_alternating,
                              estimate_brute, norm_ratio)
from bilinear_cs.sparse_model import (CONE_KINDS, POSITIVE_ORTHANT, SUBSPACE,
                                      ConeSpec, Support, support_from_indices,
                                      unit_cone_coefficients, unit_cone_directions)


def subspace_pair(n, i_idx, j_idx):
    return (ConeSpec(support_from_indices(i_idx, n), SUBSPACE),
            ConeSpec(support_from_indices(j_idx, n), SUBSPACE))


def test_norm_ratio_rejects_zero_vectors():
    spec = BilinearMapSpec(POINTWISE, 4)
    with pytest.raises(ValueError):
        norm_ratio(spec, np.zeros(4), np.ones(4))
    with pytest.raises(ValueError):
        norm_ratio(spec, np.ones(4), np.zeros(4))


def test_norm_ratio_homogeneous():
    rng = np.random.default_rng(2)
    spec = BilinearMapSpec(CIRCULAR_CONVOLUTION, 8)
    x, y = rng.standard_normal(8), rng.standard_normal(8)
    base = norm_ratio(spec, x, y)
    assert abs(norm_ratio(spec, 7.5 * x, -2.0 * y) - base) < 1e-12


def test_basis_images_reproduce_map():
    rng = np.random.default_rng(5)
    n = 12
    i_set = support_from_indices(range(n), n)
    j_set = support_from_indices([1, 4, 7, 9], n)
    specs = [BilinearMapSpec(POINTWISE, n),
             BilinearMapSpec(CIRCULAR_CONVOLUTION, n),
             BilinearMapSpec(UNITARY_PRODUCT, n, unitary=dft_unitary(n))]
    for spec in specs:
        b = basis_images(spec, i_set, j_set)
        assert b.shape == (n, j_set.size, n)
        for _ in range(10):
            x = rng.standard_normal(n)
            coeffs = rng.standard_normal(j_set.size)
            y = np.zeros(n)
            y[j_set.as_array()] = coeffs
            z = np.einsum("a,b,abn->n", x, coeffs, b)
            assert np.allclose(z, apply_map(spec, x, y), atol=1e-9)
            z = apply_restricted_batch(b, x[None], coeffs[None])[0]
            assert np.allclose(z, apply_map(spec, x, y), atol=1e-9)


def test_estimate_orders_alpha_below_beta():
    with pytest.raises(ValueError):
        RnmpEstimate(
            support_pair=(Support((0,), 4), Support((0,), 4)),
            cone_kinds=(SUBSPACE, SUBSPACE),
            alpha_est=2.0,
            beta_est=1.0,
            alpha_witness=(np.zeros(4), np.zeros(4)),
            beta_witness=(np.zeros(4), np.zeros(4)),
            method="brute",
            restarts=1,
            tol=1e-9,
        )


def test_one_sparse_pointwise_is_multiplicative():
    # single-coordinate cones make the pointwise product an isometry
    spec = BilinearMapSpec(POINTWISE, 4)
    cx, cy = subspace_pair(4, [1], [1])
    est = certify_exhaustive(spec, cx, cy, grid_per_dim=5)
    assert abs(est.alpha_est - 1.0) < 1e-12
    assert abs(est.beta_est - 1.0) < 1e-12
    assert est.multiplicative


def test_brute_determinism_and_witnesses():
    spec = BilinearMapSpec(CIRCULAR_CONVOLUTION, 16)
    cx, cy = subspace_pair(16, [0, 3, 5], [1, 2, 9])
    a = estimate_brute(spec, cx, cy, samples=3000, seed=4)
    b = estimate_brute(spec, cx, cy, samples=3000, seed=4)
    assert a.alpha_est == b.alpha_est
    assert a.beta_est == b.beta_est
    assert np.array_equal(a.alpha_witness[0], b.alpha_witness[0])
    assert a.alpha_est <= a.beta_est
    # witnesses must reproduce the reported constants
    assert abs(norm_ratio(spec, *a.alpha_witness) - a.alpha_est) < 1e-9
    assert abs(norm_ratio(spec, *a.beta_witness) - a.beta_est) < 1e-9


def dense_brute(spec, cone_x, cone_y, samples, seed):
    """The full-length sweep: embed every sample at length N, map the
    batch with apply_map_batch, take row norms; first extremes win."""
    child_x, child_y = np.random.SeedSequence(seed).spawn(2)
    rng_x, rng_y = np.random.default_rng(child_x), np.random.default_rng(child_y)
    rs, xs, ys = [], [], []
    for start in range(0, samples, _BATCH):
        count = min(_BATCH, samples - start)
        xs.append(unit_cone_directions(cone_x, count, rng_x))
        ys.append(unit_cone_directions(cone_y, count, rng_y))
        rs.append(np.linalg.norm(apply_map_batch(spec, xs[-1], ys[-1]), axis=1))
    r, x, y = np.concatenate(rs), np.vstack(xs), np.vstack(ys)
    i_min, i_max = int(np.argmin(r)), int(np.argmax(r))
    return r[i_min], r[i_max], (x[i_min], y[i_min]), (x[i_max], y[i_max])


# N >= 8 is where numpy's row norm sums pairwise instead of sequentially
@pytest.mark.parametrize("n, i_idx, j_idx", [
    (5, [0, 1, 3], [1, 3, 4]),
    (8, [0, 2, 3, 6], [2, 3, 5]),
    (13, [1, 2, 5, 8, 12], [0, 2, 5, 9]),
    (64, [3, 7, 8, 20, 41, 42, 63], [7, 8, 11, 20, 50, 63]),
])
@pytest.mark.parametrize("kind", [POINTWISE, CIRCULAR_CONVOLUTION])
@pytest.mark.parametrize("cone_kind", CONE_KINDS)
def test_brute_matches_dense_sweep_bitwise(n, i_idx, j_idx, kind, cone_kind):
    spec = BilinearMapSpec(kind, n)
    cx = ConeSpec(support_from_indices(i_idx, n), cone_kind)
    cy = ConeSpec(support_from_indices(j_idx, n), cone_kind)
    samples = _BATCH + 1
    est = estimate_brute(spec, cx, cy, samples=samples, seed=n)
    alpha, beta, wit_a, wit_b = dense_brute(spec, cx, cy, samples, seed=n)
    assert est.alpha_est == alpha and est.beta_est == beta
    for got, want in zip(est.alpha_witness + est.beta_witness, wit_a + wit_b):
        assert np.array_equal(got, want)


def test_brute_estimates_tighten_with_more_samples():
    # the sample streams extend, so the extremes are monotone in `samples`
    spec = BilinearMapSpec(CIRCULAR_CONVOLUTION, 16)
    cx, cy = subspace_pair(16, [0, 3, 5], [1, 2, 9])
    small = estimate_brute(spec, cx, cy, samples=500, seed=7)
    large = estimate_brute(spec, cx, cy, samples=5000, seed=7)
    assert large.alpha_est <= small.alpha_est
    assert large.beta_est >= small.beta_est


def test_brute_rejects_bad_arguments():
    spec = BilinearMapSpec(POINTWISE, 4)
    cx, cy = subspace_pair(4, [0], [0])
    with pytest.raises(ValueError):
        estimate_brute(spec, cx, cy, samples=0)
    other = ConeSpec(support_from_indices([0], 5), SUBSPACE)
    with pytest.raises(ValueError):
        estimate_brute(spec, other, cy)


def test_null_pair_all_three_estimators():
    # I = J = {0, 2} in ambient dim 4: the vectors (1,0,1,0) and (1,0,-1,0)
    # convolve to zero, so the infimum over the subspace pair is 0, while
    # aligned spikes reach the upper extreme sqrt(2)
    spec = BilinearMapSpec(CIRCULAR_CONVOLUTION, 4)
    cx, cy = subspace_pair(4, [0, 2], [0, 2])

    s = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2)
    h = np.array([1.0, 0.0, -1.0, 0.0]) / np.sqrt(2)
    assert np.linalg.norm(apply_map(spec, s, h)) < 1e-12

    grid = certify_exhaustive(spec, cx, cy, grid_per_dim=16)
    assert grid.alpha_est < 1e-6
    assert abs(grid.beta_est - np.sqrt(2)) < 1e-9

    alt = estimate_alternating(spec, cx, cy, restarts=8, seed=3)
    assert alt.alpha_est < 1e-6
    assert alt.beta_est > 1.3
    assert abs(norm_ratio(spec, *alt.beta_witness) - alt.beta_est) < 1e-9

    brute = estimate_brute(spec, cx, cy, samples=5000, seed=1)
    assert brute.alpha_est < 0.1
    assert 1.3 < brute.beta_est < np.sqrt(2) + 1e-9

    # randomized runs can only sit inside the certified interval
    assert brute.alpha_est >= grid.alpha_est - 1e-9
    assert brute.beta_est <= grid.beta_est + 1e-9
    assert alt.beta_est <= grid.beta_est + 1e-9


def test_alternating_determinism_and_validation():
    spec = BilinearMapSpec(CIRCULAR_CONVOLUTION, 8)
    cx, cy = subspace_pair(8, [0, 1], [0, 4])
    a = estimate_alternating(spec, cx, cy, restarts=4, seed=11)
    b = estimate_alternating(spec, cx, cy, restarts=4, seed=11)
    assert a.alpha_est == b.alpha_est and a.beta_est == b.beta_est
    with pytest.raises(ValueError):
        estimate_alternating(spec, cx, cy, restarts=0)
    with pytest.raises(ValueError):
        estimate_alternating(spec, cx, cy, tol=0.0)


def lone_alternating(spec, cone_x, cone_y, restarts, max_iters, tol, seed):
    """estimate_alternating as lone runs, one SVD per half step: each
    restart's min run, then its max run, first best in restart order.
    Returns the estimate's fields and each run's (steps, converged)."""
    images = basis_images(spec, cone_x.support, cone_y.support)
    images_t = np.ascontiguousarray(images.transpose(1, 0, 2))
    kinds = (cone_x.kind, cone_y.kind)

    def restricted(c, imgs):
        k, m, n = imgs.shape
        return np.ascontiguousarray((c @ imgs.reshape(k, m * n)).reshape(m, n).T)

    def direction(a, mode, kind):
        _, _, vt = np.linalg.svd(a, full_matrices=False)
        v = vt[0] if mode == "max" else vt[-1]
        if kind == POSITIVE_ORTHANT:
            pos = np.linalg.norm(np.clip(v, 0.0, None))
            neg = np.linalg.norm(np.clip(-v, 0.0, None))
            if neg > pos:
                v = -v
            v = np.clip(v, 0.0, None)
            nv = np.linalg.norm(v)
            # the larger nonnegative mass of a unit vector is at least
            # 1/sqrt(2), so the clamp never annihilates it
            assert nv > 0.7
            return v / nv
        return v / np.linalg.norm(v)

    def run(x, y, mode):
        better = (lambda a, b: a < b) if mode == "min" else (lambda a, b: a > b)
        current = float(np.linalg.norm(restricted(x, images) @ y))
        for step in range(1, max_iters + 1):
            previous = current
            a = restricted(x, images)
            v = direction(a, mode, kinds[1])
            cand = float(np.linalg.norm(a @ v))
            if better(cand, current):
                y, current = v, cand
            b = restricted(y, images_t)
            u = direction(b, mode, kinds[0])
            cand = float(np.linalg.norm(b @ u))
            if better(cand, current):
                x, current = u, cand
            if abs(previous - current) < tol:
                return current, x, y, (step, True)
        return current, x, y, (max_iters, False)

    best_a, best_b, runs = np.inf, -np.inf, []
    for child in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(child)
        x0 = unit_cone_coefficients(cone_x, 1, rng)[0]
        y0 = unit_cone_coefficients(cone_y, 1, rng)[0]
        val, x, y, stop = run(x0, y0, "min")
        runs.append(stop)
        if val < best_a:
            best_a, wit_a, conv_a = val, (x, y), stop[1]
        val, x, y, stop = run(x0, y0, "max")
        runs.append(stop)
        if val > best_b:
            best_b, wit_b, conv_b = val, (x, y), stop[1]
    return best_a, best_b, wit_a, wit_b, conv_a and conv_b, runs


# S or F is 1 in the first two; pointwise maps on partly disjoint supports
# have zero rows and columns
ALTERNATING_SUPPORTS = [
    (3, [1], [0, 2]),
    (5, [0, 1, 3], [2]),
    (8, [0, 2, 3], [1, 2, 5, 7]),
    (13, [1, 2, 5, 8], [0, 2, 9]),
]


@pytest.mark.parametrize("max_iters", [1, 2, 3, 200])
def test_alternating_stack_matches_lone_runs_bitwise(max_iters):
    stack_stops = []
    for kind in (POINTWISE, CIRCULAR_CONVOLUTION, UNITARY_PRODUCT):
        for n, i_idx, j_idx in ALTERNATING_SUPPORTS:
            unitary = dft_unitary(n) if kind == UNITARY_PRODUCT else None
            spec = BilinearMapSpec(kind, n, unitary=unitary)
            for kind_x, kind_y in ((SUBSPACE, SUBSPACE),
                                   (POSITIVE_ORTHANT, POSITIVE_ORTHANT),
                                   (SUBSPACE, POSITIVE_ORTHANT)):
                cx = ConeSpec(support_from_indices(i_idx, n), kind_x)
                cy = ConeSpec(support_from_indices(j_idx, n), kind_y)
                est = estimate_alternating(spec, cx, cy, restarts=6,
                                           max_iters=max_iters, seed=n)
                alpha, beta, wit_a, wit_b, converged, runs = lone_alternating(
                    spec, cx, cy, 6, max_iters, est.tol, seed=n)
                assert est.alpha_est == alpha and est.beta_est == beta
                assert est.converged == converged
                for got, want, cone in zip(est.alpha_witness + est.beta_witness,
                                           wit_a + wit_b, (cx, cy, cx, cy)):
                    want_n = np.zeros(n)
                    want_n[cone.support.as_array()] = want
                    assert np.array_equal(got, want_n)
                stack_stops.append(set(runs))
    # the stacks shrink: members of one stack stop at different steps, or
    # some converge while others run on to the cap
    if max_iters > 1:
        assert any(len(stops) > 1 for stops in stack_stops)
    if max_iters < 200:
        assert {ok for stops in stack_stops for _, ok in stops} == {True, False}


def meshgrid_sphere(dim, kind, g):
    """The sphere grid built from the meshgrid of every angle, running
    the sin product over the flattened points."""
    if dim == 1:
        return np.ones((1, 1))
    if kind == POSITIVE_ORTHANT:
        axes = [np.linspace(0.0, np.pi / 2, g)] * (dim - 1)
    else:
        axes = [np.linspace(0.0, np.pi, g)] * (dim - 2) + [
            np.linspace(0.0, 2 * np.pi, g, endpoint=False)]
    mesh = np.meshgrid(*axes, indexing="ij")
    thetas = np.stack([m.ravel() for m in mesh], axis=1)
    coords = np.empty((thetas.shape[0], dim))
    sin_prod = np.ones(thetas.shape[0])
    for k in range(dim - 1):
        coords[:, k] = sin_prod * np.cos(thetas[:, k])
        sin_prod = sin_prod * np.sin(thetas[:, k])
    coords[:, dim - 1] = sin_prod
    return coords


# up to a million points a grid, the largest sizes criterion 10 builds
@pytest.mark.parametrize("dim, g", [(dim, g) for dim in (1, 2, 3, 4)
                                    for g in (3, 8, 40, 120, 240)
                                    if g ** (dim - 1) <= 10 ** 6])
@pytest.mark.parametrize("cone_kind", CONE_KINDS)
def test_sphere_grid_matches_meshgrid_construction(dim, g, cone_kind):
    got = _sphere_grid(dim, cone_kind, g)
    want = meshgrid_sphere(dim, cone_kind, g)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_grid_guard_checked_before_any_grid_is_built(monkeypatch):
    def no_grid(*args):
        raise AssertionError("grid built before the guard")

    monkeypatch.setattr(rnmp, "_sphere_grid", no_grid)
    spec = BilinearMapSpec(CIRCULAR_CONVOLUTION, 16)
    # 101^2 points per 3-dimensional side: 1.04e8 pairs
    cx, cy = subspace_pair(16, [0, 1, 2], [4, 5, 6])
    assert 101 ** 4 > GRID_GUARD
    with pytest.raises(ValueError, match="guard"):
        certify_exhaustive(spec, cx, cy, grid_per_dim=101)
    # a 1-dimensional cone counts one point: 465^3 is 1.005e8 pairs
    one, four = subspace_pair(16, [3], [0, 1, 2, 3])
    with pytest.raises(ValueError, match="guard"):
        certify_exhaustive(spec, one, four, grid_per_dim=465)


def test_separated_supports_certify_as_isometry():
    # {0,1} + {0,4} has all four sums distinct mod 8: alpha = beta = 1
    spec = BilinearMapSpec(CIRCULAR_CONVOLUTION, 8)
    cx, cy = subspace_pair(8, [0, 1], [0, 4])
    est = certify_exhaustive(spec, cx, cy, grid_per_dim=24)
    assert abs(est.alpha_est - 1.0) < 1e-9
    assert abs(est.beta_est - 1.0) < 1e-9
    assert est.multiplicative


def test_positive_orthant_grid_respects_cone():
    # on the positive orthant the sandwich bounds pin the certified range
    spec = BilinearMapSpec(CIRCULAR_CONVOLUTION, 4)
    cx = ConeSpec(support_from_indices([0, 2], 4), POSITIVE_ORTHANT)
    est = certify_exhaustive(spec, cx, cx, grid_per_dim=41)
    assert est.alpha_est >= 1.0 - 1e-9
    assert est.beta_est <= np.sqrt(2) + 1e-9
    assert np.min(est.alpha_witness[0]) >= 0.0
    assert np.min(est.beta_witness[1]) >= 0.0


def test_grid_witnesses_reproduce_estimates():
    spec = BilinearMapSpec(CIRCULAR_CONVOLUTION, 16)
    cx, cy = subspace_pair(16, [0, 3, 5], [1, 2, 9])
    est = certify_exhaustive(spec, cx, cy, grid_per_dim=15)
    assert abs(norm_ratio(spec, *est.alpha_witness) - est.alpha_est) < 1e-6
    assert abs(norm_ratio(spec, *est.beta_witness) - est.beta_est) < 1e-6


def test_grid_guard_rejects_oversized_requests():
    spec = BilinearMapSpec(CIRCULAR_CONVOLUTION, 16)
    cx, cy = subspace_pair(16, [0, 1, 2, 3], [4, 5, 6, 7])
    with pytest.raises(ValueError):
        certify_exhaustive(spec, cx, cy, grid_per_dim=2)
    with pytest.raises(ValueError):
        # 28^3 points per side squared is ~4.8e8 pairs, over the cap
        certify_exhaustive(spec, cx, cy, grid_per_dim=28)


def test_unitary_dft_matches_convolution_constants():
    # identical ratio surfaces must give identical brute estimates when
    # the same sample stream is used
    n = 8
    conv = BilinearMapSpec(CIRCULAR_CONVOLUTION, n)
    unit = BilinearMapSpec(UNITARY_PRODUCT, n, unitary=dft_unitary(n))
    cx, cy = subspace_pair(n, [0, 2, 3], [1, 5])
    a = estimate_brute(conv, cx, cy, samples=2000, seed=9)
    b = estimate_brute(unit, cx, cy, samples=2000, seed=9)
    assert abs(a.alpha_est - b.alpha_est) < 1e-9
    assert abs(a.beta_est - b.beta_est) < 1e-9


def test_estimate_json_round_trip_fields():
    spec = BilinearMapSpec(POINTWISE, 4)
    cx, cy = subspace_pair(4, [0, 2], [0, 2])
    est = estimate_brute(spec, cx, cy, samples=100, seed=0)
    d = est.to_json()
    assert d["method"] == "brute"
    assert d["support_x"] == {"n": 4, "indices": [0, 2]}
    assert len(d["alpha_witness_x"]) == 4
