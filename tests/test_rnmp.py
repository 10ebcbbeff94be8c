import itertools
import json
import tracemalloc

import numpy as np
import pytest

from bilinear_cs import rnmp
from bilinear_cs.cli import json_text
from bilinear_cs.bilinear_ops import (CIRCULAR_CONVOLUTION, POINTWISE,
                                      UNITARY_PRODUCT, BilinearMapSpec,
                                      apply_map, apply_map_batch, dft_unitary)
from bilinear_cs.rnmp import (GRID_GUARD, BruteEstimate,
                              _covering_radius, _sphere_grid, basis_images,
                              certify_exhaustive, cone_pair_blocks,
                              estimate_alternating, estimate_brute)
from bilinear_cs.sparse_model import (CONE_KINDS, POSITIVE_ORTHANT, SUBSPACE,
                                      ConeSpec, Support, support_from_indices,
                                      unit_cone_coefficients, unit_cone_directions)


def subspace_pair(n, i_idx, j_idx):
    return (ConeSpec(support_from_indices(i_idx, n), SUBSPACE),
            ConeSpec(support_from_indices(j_idx, n), SUBSPACE))


def norm_ratio(spec, x, y) -> float:
    """||T(x,y)|| / (||x|| ||y||); 0-homogeneous in each argument."""
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    nx = np.linalg.norm(xv)
    ny = np.linalg.norm(yv)
    if nx == 0 or ny == 0:
        raise ValueError("ratio undefined for zero vectors")
    return float(np.linalg.norm(apply_map(spec, xv, yv)) / (nx * ny))


def witnesses(est):
    return (est.alpha_witness_x, est.alpha_witness_y, est.beta_witness_x, est.beta_witness_y)


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
    cone_x, cone_y = ConeSpec(i_set, SUBSPACE), ConeSpec(j_set, SUBSPACE)
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
        # the sampler's images, in one- and many-pair blocks
        for samples, seed in ((1, 0), (10, 1)):
            for xc, yc, support, zk, _ in cone_pair_blocks(b, cone_x, cone_y, samples, seed):
                ys = np.zeros((len(yc), n))
                ys[:, j_set.as_array()] = yc
                z = np.zeros((len(xc), n))
                z[:, support] = zk
                assert np.allclose(z, apply_map_batch(spec, xc, ys), atol=1e-9)


def test_estimate_orders_alpha_below_beta():
    with pytest.raises(ValueError):
        BruteEstimate(
            support_x=Support((0,), 4),
            support_y=Support((0,), 4),
            cone_kinds=(SUBSPACE, SUBSPACE),
            alpha_est=2.0,
            beta_est=1.0,
            alpha_witness_x=np.zeros(4),
            alpha_witness_y=np.zeros(4),
            beta_witness_x=np.zeros(4),
            beta_witness_y=np.zeros(4),
            method="brute",
            converged=True,
            samples=1,
        )


def test_one_sparse_pointwise_is_multiplicative():
    # single-coordinate cones make the pointwise product an isometry
    spec = BilinearMapSpec(POINTWISE, 4)
    cx, cy = subspace_pair(4, [1], [1])
    est = certify_exhaustive(spec, cx, cy, grid_per_dim=5)
    assert abs(est.alpha_est - 1.0) < 1e-12
    assert abs(est.beta_est - 1.0) < 1e-12


def test_brute_determinism_and_witnesses():
    spec = BilinearMapSpec(CIRCULAR_CONVOLUTION, 16)
    cx, cy = subspace_pair(16, [0, 3, 5], [1, 2, 9])
    a = estimate_brute(spec, cx, cy, samples=3000, seed=4)
    b = estimate_brute(spec, cx, cy, samples=3000, seed=4)
    assert a.alpha_est == b.alpha_est
    assert a.beta_est == b.beta_est
    assert np.array_equal(a.alpha_witness_x, b.alpha_witness_x)
    assert a.alpha_est <= a.beta_est
    # witnesses must reproduce the reported constants
    assert abs(norm_ratio(spec, a.alpha_witness_x, a.alpha_witness_y) - a.alpha_est) < 1e-9
    assert abs(norm_ratio(spec, a.beta_witness_x, a.beta_witness_y) - a.beta_est) < 1e-9


def nonzero_column_norms(z):
    """Row norms of z: each row's squares summed over z's nonzero columns
    in column order, from zeros (a zero column adds an exact 0)."""
    total = np.zeros(len(z))
    for c in np.flatnonzero(z.any(axis=0)):
        total = total + z[:, c] * z[:, c]
    return np.sqrt(total)


def dense_brute(spec, cone_x, cone_y, samples, seed):
    """The full-length sweep in one batch: embed every sample at length N,
    map the batch with apply_map_batch, take row norms over the images'
    nonzero coordinates; first extremes win."""
    child_x, child_y = np.random.SeedSequence(seed).spawn(2)
    x = unit_cone_directions(cone_x, samples, np.random.default_rng(child_x))
    y = unit_cone_directions(cone_y, samples, np.random.default_rng(child_y))
    r = nonzero_column_norms(apply_map_batch(spec, x, y))
    i_min, i_max = int(np.argmin(r)), int(np.argmax(r))
    return r[i_min], r[i_max], (x[i_min], y[i_min]), (x[i_max], y[i_max])


def block_rows(images, cone_x, cone_y):
    """Pairs in the first block of a sweep too long for one block."""
    return len(next(cone_pair_blocks(images, cone_x, cone_y, 10 ** 9, 0))[0])


# supports and output supports of 8 or more coordinates are where numpy's
# own row norm would sum pairwise instead of in sequence
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
    # a lone last sample, which joins the block before it
    samples = block_rows(basis_images(spec, cx.support, cy.support), cx, cy) + 1
    est = estimate_brute(spec, cx, cy, samples=samples, seed=n)
    alpha, beta, wit_a, wit_b = dense_brute(spec, cx, cy, samples, seed=n)
    assert est.alpha_est == alpha and est.beta_est == beta
    for got, want in zip(witnesses(est), wit_a + wit_b):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", [POINTWISE, CIRCULAR_CONVOLUTION])
@pytest.mark.parametrize("cone_kind", CONE_KINDS)
def test_block_budget_changes_no_byte(monkeypatch, kind, cone_kind):
    # one-row blocks, blocks that leave a lone last row, the default
    # budget, and the 20 000-sample batches and 500 000-float chunks that
    # the budget replaced
    n, samples, g = 5, 1000, 24
    # the certifier's outer side is cone_x: a subspace no larger than
    # cone_y, or an orthant paired with an orthant
    i_idx, j_idx = ([0, 2, 3], [2, 3]) if cone_kind == POSITIVE_ORTHANT else ([2, 3], [0, 2, 3])
    spec = BilinearMapSpec(kind, n)
    cx = ConeSpec(support_from_indices(i_idx, n), cone_kind)
    cy = ConeSpec(support_from_indices(j_idx, n), cone_kind)
    images = basis_images(spec, cx.support, cy.support)
    # a sample's coefficients, pair products and output-support rows
    per_sample = 2 + 3 + 6 + np.count_nonzero(images.any(axis=(0, 1)))
    points = len(_sphere_grid(cx.dim, cone_kind, g))
    # an outer point's A(u), or its squared ratios over the inner grid
    per_point = g if cone_kind == POSITIVE_ORTHANT else cy.dim * n
    budgets = [(1, 1, 1), (333 * per_sample, 333, (points - 1) * per_point),
               (rnmp._BLOCK, None, rnmp._BLOCK), (20_000 * per_sample, 20_000, 500_000)]
    outputs = set()
    for brute_budget, rows, grid_budget in budgets:
        monkeypatch.setattr(rnmp, "_BLOCK", brute_budget)
        assert rows is None or block_rows(images, cx, cy) == rows
        brute = estimate_brute(spec, cx, cy, samples=samples, seed=3)
        monkeypatch.setattr(rnmp, "_BLOCK", grid_budget)
        grid = certify_exhaustive(spec, cx, cy, grid_per_dim=g)
        outputs.add(json_text([brute, grid]))
    assert len(outputs) == 1


def test_brute_and_certifier_peaks_follow_the_block_budget():
    # the fixed 20 000-sample batches and 500 000-float chunks peaked at
    # 2.6 and 3.4 MB for brute and 8.9 MB for this orthant grid
    conv = BilinearMapSpec(CIRCULAR_CONVOLUTION, 5)
    cx, cy = subspace_pair(5, [0, 1, 3], [1, 4])
    pointwise = BilinearMapSpec(POINTWISE, 4)
    ox = ConeSpec(support_from_indices([0, 2, 3], 4), POSITIVE_ORTHANT)
    oy = ConeSpec(support_from_indices([2, 3], 4), POSITIVE_ORTHANT)
    runs = [lambda: estimate_brute(conv, cx, cy, samples=30_000),
            lambda: estimate_brute(conv, cx, cy, samples=300_000),
            lambda: certify_exhaustive(pointwise, ox, oy, grid_per_dim=120)]
    # a first call's one-off allocations are not the working set
    estimate_brute(conv, cx, cy, samples=10)
    certify_exhaustive(pointwise, ox, oy, grid_per_dim=3)
    for run in runs:
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * rnmp._BLOCK, peak


def c_order_restricted(images, xc, yc):
    """The restricted evaluator as it was: scatters into C-ordered (T, N)
    images, pair by pair with b ascending, then a."""
    s, f, n = images.shape
    z = np.zeros((xc.shape[0], n))
    for b in range(f):
        for a in range(s):
            ks = np.flatnonzero(images[a, b])
            if ks.size:
                z[:, ks] += (yc[:, b] * xc[:, a])[:, None] * images[a, b, ks]
    return z


@pytest.mark.parametrize("n", [3, 5, 8, 13, 64, 256])
@pytest.mark.parametrize("kind", [POINTWISE, CIRCULAR_CONVOLUTION, UNITARY_PRODUCT])
def test_restricted_batch_matches_c_order_loop_bitwise(monkeypatch, n, kind):
    rng = np.random.default_rng(n)
    spec = BilinearMapSpec(kind, n, unitary=dft_unitary(n) if kind == UNITARY_PRODUCT else None)
    default_budget = rnmp._BLOCK
    for s, f in ((1, 1), (min(n, 3), min(n, 2)), (min(n, 4), min(n, 5))):
        i_set = support_from_indices(rng.choice(n, s, replace=False), n)
        # pointwise images vanish off I ∩ J, so let J overlap I
        j_set = support_from_indices(list(i_set.indices[:1]) + list(
            rng.choice(n, f - 1, replace=False)), n)
        cx, cy = ConeSpec(i_set, SUBSPACE), ConeSpec(j_set, SUBSPACE)
        images = basis_images(spec, i_set, j_set)
        # 300 pairs in the default blocks, then in blocks of 7 (the last of 6)
        per_sample = i_set.size + j_set.size + i_set.size * j_set.size + np.count_nonzero(
            images.any(axis=(0, 1)))
        for budget in (default_budget, 7 * per_sample):
            monkeypatch.setattr(rnmp, "_BLOCK", budget)
            blocks = list(cone_pair_blocks(images, cx, cy, 300, n))
            sizes = [len(block[0]) for block in blocks]
            assert sum(sizes) == 300
            assert budget == default_budget or sizes == [7] * 42 + [6]
            for xc, yc, support, zk, _ in blocks:
                assert zk.flags.f_contiguous and zk.base is not None  # a view, not a copy
                # the support is where some basis image is nonzero
                assert np.array_equal(support, np.flatnonzero(images.any(axis=(0, 1))))
                z = np.zeros((len(xc), n))
                z[:, support] = zk
                assert np.array_equal(z, c_order_restricted(images, xc, yc))


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
    assert abs(norm_ratio(spec, alt.beta_witness_x, alt.beta_witness_y) - alt.beta_est) < 1e-9

    brute = estimate_brute(spec, cx, cy, samples=5000, seed=1)
    assert brute.alpha_est < 0.1
    assert 1.3 < brute.beta_est < np.sqrt(2) + 1e-9

    # randomized runs can only sit inside the certified interval
    assert brute.alpha_est >= grid.alpha_est - 1e-9
    assert brute.beta_est <= grid.beta_est + 1e-9
    assert alt.beta_est <= grid.beta_est + 1e-9
    assert grid.alpha_lower == 0.0 <= grid.alpha_est == grid.alpha_upper
    assert grid.beta_lower == grid.beta_est < np.sqrt(2) + 1e-9 < grid.beta_upper
    for est in (brute, alt):
        assert grid.alpha_lower <= est.alpha_est
        assert est.beta_est <= grid.beta_upper
    assert "alpha_lower" not in json.loads(json_text(brute))
    assert "outer_points" not in json.loads(json_text(alt))


def test_alternating_determinism_and_validation():
    spec = BilinearMapSpec(CIRCULAR_CONVOLUTION, 8)
    cx, cy = subspace_pair(8, [0, 1], [0, 4])
    a = estimate_alternating(spec, cx, cy, restarts=4, seed=11)
    b = estimate_alternating(spec, cx, cy, restarts=4, seed=11)
    assert a.alpha_est == b.alpha_est and a.beta_est == b.beta_est
    with pytest.raises(ValueError):
        estimate_alternating(spec, cx, cy, restarts=0)


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
    rng_x, rng_y = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    starts = zip(unit_cone_coefficients(cone_x, restarts, rng_x),
                 unit_cone_coefficients(cone_y, restarts, rng_y))
    for x0, y0 in starts:
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
def test_alternating_stack_matches_lone_runs_bitwise(max_iters, monkeypatch):
    monkeypatch.setattr(rnmp, "_MAX_ITERS", max_iters)
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
                est = estimate_alternating(spec, cx, cy, restarts=6, seed=n)
                alpha, beta, wit_a, wit_b, converged, runs = lone_alternating(
                    spec, cx, cy, 6, max_iters, est.tol, seed=n)
                assert est.alpha_est == alpha and est.beta_est == beta
                assert est.converged == converged
                for got, want, cone in zip(witnesses(est),
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


@pytest.mark.parametrize("budget", [None, 3 * (3 + 2 + 6 + 6)])
@pytest.mark.parametrize("kind_x, kind_y", [(SUBSPACE, SUBSPACE), (POSITIVE_ORTHANT, SUBSPACE)])
def test_alternating_starts_are_the_first_pairs_of_the_brute_sweep(monkeypatch, budget,
                                                                   kind_x, kind_y):
    # the budget of three samples a block spreads the 8 starts over three
    # blocks (the output support of I + J has 6 of the 8 coordinates)
    if budget:
        monkeypatch.setattr(rnmp, "_BLOCK", budget)
    spec = BilinearMapSpec(CIRCULAR_CONVOLUTION, 8)
    cx = ConeSpec(support_from_indices([0, 2, 3], 8), kind_x)
    cy = ConeSpec(support_from_indices([1, 5], 8), kind_y)
    swept, started = [], []
    real_blocks, real_alternate = rnmp.cone_pair_blocks, rnmp._alternate

    def blocks(*args):
        for block in real_blocks(*args):
            swept.append((block[0].copy(), block[1].copy()))
            yield block

    def alternate(images, kinds, x, y, *rest):
        started.append((x.copy(), y.copy()))
        return real_alternate(images, kinds, x, y, *rest)

    monkeypatch.setattr(rnmp, "cone_pair_blocks", blocks)
    monkeypatch.setattr(rnmp, "_alternate", alternate)
    estimate_brute(spec, cx, cy, samples=50, seed=17)
    sweep_x, sweep_y = (np.concatenate(side) for side in zip(*swept))
    estimate_alternating(spec, cx, cy, restarts=8, seed=17)
    (x, y), = started
    # members 0..7 are the min runs and 8..15 the max runs of the 8 restarts
    for members in (slice(0, 8), slice(8, 16)):
        assert np.array_equal(x[members], sweep_x[:8])
        assert np.array_equal(y[members], sweep_y[:8])


@pytest.mark.parametrize("kind", [POINTWISE, CIRCULAR_CONVOLUTION, UNITARY_PRODUCT])
def test_alternating_is_as_extreme_as_the_brute_sweep_of_its_starts(kind):
    # updates only improve, so the runs end at least as extreme as their
    # starts; the starts' ratios are taken by other sums, so allow 4 ulp.
    # Starts drawn apart from the sweep fail this on some pairs below
    supports = ALTERNATING_SUPPORTS + [(4, [0, 2], [0, 2]), (5, [0, 1, 3], [1, 3, 4])]
    for n, i_idx, j_idx in supports:
        spec = BilinearMapSpec(kind, n, unitary=dft_unitary(n) if kind == UNITARY_PRODUCT else None)
        for kind_x, kind_y in itertools.product(CONE_KINDS, repeat=2):
            cx = ConeSpec(support_from_indices(i_idx, n), kind_x)
            cy = ConeSpec(support_from_indices(j_idx, n), kind_y)
            for restarts, seed in itertools.product((1, 2), range(6)):
                alt = estimate_alternating(spec, cx, cy, restarts=restarts, seed=seed)
                brute = estimate_brute(spec, cx, cy, samples=restarts, seed=seed)
                assert alt.alpha_est <= brute.alpha_est + 4 * np.spacing(brute.alpha_est)
                assert alt.beta_est >= brute.beta_est - 4 * np.spacing(brute.beta_est)


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


def test_positive_orthant_grid_respects_cone():
    # on the positive orthant the sandwich bounds pin the certified range
    spec = BilinearMapSpec(CIRCULAR_CONVOLUTION, 4)
    cx = ConeSpec(support_from_indices([0, 2], 4), POSITIVE_ORTHANT)
    est = certify_exhaustive(spec, cx, cx, grid_per_dim=41)
    assert est.alpha_est >= 1.0 - 1e-9
    assert est.beta_est <= np.sqrt(2) + 1e-9
    assert np.min(est.alpha_witness_x) >= 0.0
    assert np.min(est.beta_witness_y) >= 0.0


def test_grid_witnesses_reproduce_estimates():
    spec = BilinearMapSpec(CIRCULAR_CONVOLUTION, 16)
    cx, cy = subspace_pair(16, [0, 3, 5], [1, 2, 9])
    est = certify_exhaustive(spec, cx, cy, grid_per_dim=15)
    assert abs(norm_ratio(spec, est.alpha_witness_x, est.alpha_witness_y) - est.alpha_est) < 1e-6
    assert abs(norm_ratio(spec, est.beta_witness_x, est.beta_witness_y) - est.beta_est) < 1e-6


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
    d = json.loads(json_text(est))
    assert d["method"] == "brute"
    assert d["support_x"] == {"n": 4, "indices": [0, 2]}
    assert len(d["alpha_witness_x"]) == 4


def product_grid(spec, cone_x, cone_y, g):
    """The certifier as it was: min and max of the ratio over the product
    of both cones' angular grids, from the Gram matrix of the basis images."""
    images = basis_images(spec, cone_x.support, cone_y.support)
    xs = _sphere_grid(cone_x.dim, cone_x.kind, g)
    ys = _sphere_grid(cone_y.dim, cone_y.kind, g)
    s, f = cone_x.dim, cone_y.dim
    gram = np.einsum("abn,cdn->acbd", images, images).reshape(s * s, f * f)
    xx = (xs[:, :, None] * xs[:, None, :]).reshape(len(xs), s * s)
    yy = (ys[:, :, None] * ys[:, None, :]).reshape(len(ys), f * f)
    r2 = np.clip(xx @ gram @ yy.T, 0.0, None)
    return float(np.sqrt(r2.min())), float(np.sqrt(r2.max()))


@pytest.mark.parametrize("n", [3, 5, 8, 13])
@pytest.mark.parametrize("kind", [POINTWISE, CIRCULAR_CONVOLUTION, UNITARY_PRODUCT])
@pytest.mark.parametrize("kind_x", CONE_KINDS)
@pytest.mark.parametrize("kind_y", CONE_KINDS)
def test_exact_inner_side_improves_on_product_grid(n, kind, kind_x, kind_y):
    rng = np.random.default_rng(n)
    spec = BilinearMapSpec(kind, n, unitary=dft_unitary(n) if kind == UNITARY_PRODUCT else None)
    for s, f in ((1, 1), (1, 3), (3, 1), (2, 2), (2, 3), (3, 2)):
        i_set = support_from_indices(rng.choice(n, s, replace=False), n)
        # pointwise images vanish off I ∩ J, so let J overlap I
        j_set = support_from_indices(list(i_set.indices[:1]) + list(
            rng.choice(n, f - 1, replace=False)), n)
        cx, cy = ConeSpec(i_set, kind_x), ConeSpec(j_set, kind_y)
        est = certify_exhaustive(spec, cx, cy, grid_per_dim=9)
        alpha, beta = product_grid(spec, cx, cy, 9)
        assert est.alpha_est <= alpha + 1e-12
        assert est.beta_est >= beta - 1e-12
        assert abs(norm_ratio(spec, est.alpha_witness_x, est.alpha_witness_y) - est.alpha_est) < 1e-9
        assert abs(norm_ratio(spec, est.beta_witness_x, est.beta_witness_y) - est.beta_est) < 1e-9


@pytest.mark.parametrize("dim, g", [(dim, g) for dim in (1, 2, 3, 4)
                                    for g in (3, 8, 17) if g ** (dim - 1) <= 5000])
@pytest.mark.parametrize("cone_kind", CONE_KINDS)
def test_covering_radius_covers_the_cone(dim, g, cone_kind):
    cone = ConeSpec(Support(tuple(range(dim)), dim), cone_kind)
    samples = unit_cone_coefficients(cone, 10_000, np.random.default_rng(dim * g))
    dots = samples @ _sphere_grid(dim, cone_kind, g).T
    if dim == 1:
        dots = np.abs(dots)  # the ratio ignores the sign of a 1-dimensional argument
    nearest = np.sqrt(np.clip(2.0 - 2.0 * dots.max(axis=1), 0.0, None))
    rho = _covering_radius(dim, cone_kind, g)
    assert nearest.max() <= rho + 1e-12
