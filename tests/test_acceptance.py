"""Acceptance gate: ten numbered end-to-end criteria, one test each.

Every test prints a single `ACCEPTANCE criterion NN: PASS (...)` line
with the measured quantities once its assertions hold (run with -s to
see them; `pytest -v` shows one outcome line per criterion either way).
Seeds and tolerances are frozen, so each run measures identical numbers.
The stated runtime budgets are asserted alongside the numerical checks.
"""

import itertools
import math
import time

import numpy as np

from bilinear_cs.bilinear_ops import (CIRCULAR_CONVOLUTION, POINTWISE,
                                      UNITARY_PRODUCT, BilinearMapSpec,
                                      apply_map, apply_map_batch,
                                      check_positive_cone_bounds, dft_unitary)
from bilinear_cs.bounds import (CASE_POINTWISE, CASE_POSITIVE_CONE_CONV,
                                CASE_TENSOR_CONV, application_probability, c0,
                                d_constant, union_bound_samples)
from bilinear_cs.recovery import (BilinearModel, iht, model_sparsity,
                                  oracle_least_squares, simulate_problem)
from bilinear_cs.rnmp import (certify_exhaustive, estimate_alternating,
                              estimate_brute)
from bilinear_cs.sensing import (GAUSSIAN, MeasurementEnsemble,
                                 concentration_test, orthonormal_rows,
                                 rip_monte_carlo, _draw)
from bilinear_cs.sparse_model import (POSITIVE_ORTHANT, SUBSPACE, ConeSpec,
                                      Support, is_properly_separated,
                                      support_from_indices, support_sum,
                                      unit_cone_directions)


def _report(num, elapsed, budget, detail):
    assert elapsed < budget, f"criterion {num}: took {elapsed:.1f}s, budget {budget}s"
    print(f"ACCEPTANCE criterion {num:02d}: PASS ({detail}; {elapsed:.1f}s)")


def test_criterion_01_closed_form_constants():
    t0 = time.time()
    # equal extremes collapse the case constant to 12, any scale
    assert d_constant(1.0, 1.0) == 12.0
    assert d_constant(0.7, 0.7) == 12.0
    # unit lower extreme specializes to 21 * beta, bit for bit
    for k in range(2, 26):
        beta = math.sqrt(k)
        assert d_constant(1.0, beta) == 21.0 * beta

    closed = {
        CASE_POINTWISE: lambda s, f, d: 2.0 * (12.0 / d) ** min(s, f),
        CASE_POSITIVE_CONE_CONV:
            lambda s, f, d: 2.0 * (378.0 * math.sqrt(min(s, f)) / d) ** (s + f),
        CASE_TENSOR_CONV: lambda s, f, d: 2.0 * (36.0 / d) ** (s + f),
    }
    worst = 0.0
    for case, tail in closed.items():
        for s, f in ((2, 2), (3, 4), (5, 5), (2, 8)):
            for delta in (0.25, 0.3, 0.5, 0.9):
                for m in (1000, 5000):
                    got = application_probability(case, s, f, delta, m)
                    want = 1.0 - tail(s, f, delta) * math.exp(-c0(delta) * m)
                    rel = abs(got - want) / max(abs(want), 1.0)
                    worst = max(worst, rel)
                    assert rel <= 1e-12, (case, s, f, delta, m, rel)
    _report(1, time.time() - t0, 1.0,
            f"d values exact, composed tails within {worst:.1e} of closed forms")


def test_criterion_02_null_direction_witness():
    t0 = time.time()
    spec = BilinearMapSpec(CIRCULAR_CONVOLUTION, 4)
    s = np.array([1.0, 0.0, 1.0, 0.0])
    h = np.array([1.0, 0.0, -1.0, 0.0])
    null_norm = float(np.linalg.norm(apply_map(spec, s, h)))
    assert null_norm <= 1e-12

    cx = cy = ConeSpec(support_from_indices([0, 2], 4), SUBSPACE)
    brute = estimate_brute(spec, cx, cy, samples=100_000, seed=0)
    assert brute.alpha_est <= 0.05
    grid = certify_exhaustive(spec, cx, cy, grid_per_dim=64)
    assert grid.alpha_est <= 1e-3
    _report(2, time.time() - t0, 30.0,
            f"null image norm {null_norm:.1e}, brute alpha {brute.alpha_est:.4f}, "
            f"grid alpha {grid.alpha_est:.1e}")


def test_criterion_03_positive_cone_sandwich():
    t0 = time.time()
    checked = 0
    for n, s_size, f_size in ((16, 2, 3), (32, 4, 4), (64, 5, 8)):
        rng = np.random.default_rng(n)
        for _ in range(10_000):
            si = rng.choice(n, size=s_size, replace=False)
            hi = rng.choice(n, size=f_size, replace=False)
            s = np.zeros(n)
            s[si] = np.abs(rng.standard_normal(s_size))
            h = np.zeros(n)
            h[hi] = np.abs(rng.standard_normal(f_size))
            chk = check_positive_cone_bounds(s, h)
            assert chk.satisfied, (n, s_size, f_size, chk.lhs, chk.rhs_lower,
                                   chk.rhs_upper)
            checked += 1
    _report(3, time.time() - t0, 60.0,
            f"{checked} nonnegative pairs inside the sandwich at rel 1e-9")


def test_criterion_04_separated_support_multiplicativity():
    t0 = time.time()
    rng = np.random.default_rng(7)
    pairs = []
    while len(pairs) < 20:
        n = int(rng.integers(16, 65))
        s_size = int(rng.integers(2, 4))
        f_size = int(rng.integers(2, 4))
        i_set = support_from_indices(rng.choice(n, size=s_size, replace=False), n)
        j_set = support_from_indices(rng.choice(n, size=f_size, replace=False), n)
        if is_properly_separated(i_set, j_set):
            pairs.append((n, i_set, j_set))

    worst_norm = 0.0
    worst_const = 0.0
    for idx, (n, i_set, j_set) in enumerate(pairs):
        spec = BilinearMapSpec(CIRCULAR_CONVOLUTION, n)
        cx = ConeSpec(i_set, SUBSPACE)
        cy = ConeSpec(j_set, SUBSPACE)
        gen = np.random.default_rng(1000 + idx)
        xs = unit_cone_directions(cx, 1000, gen)
        ys = unit_cone_directions(cy, 1000, gen)
        norms = np.linalg.norm(apply_map_batch(spec, xs, ys), axis=1)
        worst_norm = max(worst_norm, float(np.max(np.abs(norms - 1.0))))
        assert np.max(np.abs(norms - 1.0)) <= 1e-9

        for est in (estimate_brute(spec, cx, cy, samples=2000, seed=idx),
                    estimate_alternating(spec, cx, cy, restarts=4, seed=idx)):
            for value in (est.alpha_est, est.beta_est):
                worst_const = max(worst_const, abs(value - 1.0))
                assert 1.0 - 1e-6 <= value <= 1.0 + 1e-6, (est.method, value)
    _report(4, time.time() - t0, 60.0,
            f"20 separated pairs, unit-norm dev {worst_norm:.1e}, "
            f"estimator dev {worst_const:.1e}")


def test_criterion_05_sparse_upper_bound_and_transform_equivalence():
    t0 = time.time()
    worst_gap = 0.0
    for n in (8, 16, 32, 64):
        conv = BilinearMapSpec(CIRCULAR_CONVOLUTION, n)
        unitary = BilinearMapSpec(UNITARY_PRODUCT, n, unitary=dft_unitary(n))
        rng = np.random.default_rng(n)
        count = 1000
        xs = np.zeros((count, n))
        ys = np.zeros((count, n))
        for row in range(count):
            s_size = int(rng.integers(1, min(n, 8) + 1))
            f_size = int(rng.integers(1, min(n, 8) + 1))
            xs[row, rng.choice(n, size=s_size, replace=False)] = \
                rng.standard_normal(s_size)
            ys[row, rng.choice(n, size=f_size, replace=False)] = \
                rng.standard_normal(f_size)
        z_direct = apply_map_batch(conv, xs, ys)
        z_transform = apply_map_batch(unitary, xs, ys)
        gap = float(np.max(np.abs(z_direct - z_transform)))
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-9

        k = np.minimum(np.count_nonzero(xs, axis=1), np.count_nonzero(ys, axis=1))
        lhs = np.sum(z_direct ** 2, axis=1)
        rhs = k * np.sum(xs ** 2, axis=1) * np.sum(ys ** 2, axis=1)
        assert np.all(lhs <= rhs * (1.0 + 1e-9))
    _report(5, time.time() - t0, 60.0,
            f"4000 pairs, transform-vs-direct gap {worst_gap:.1e}, "
            "squared bound held")


def test_criterion_06_single_vector_concentration():
    t0 = time.time()
    trials = 100_000
    ensemble = MeasurementEnsemble(GAUSSIAN, 500, 500, 0)
    res = concentration_test(np.ones(500), ensemble, trials=trials, delta=0.5)
    empirical, theory = res.empirical_rate, res.theory_rate
    stderr3 = 3.0 * math.sqrt(theory * (1.0 - theory) / trials)
    assert empirical <= theory + stderr3, (empirical, theory, stderr3)
    _report(6, time.time() - t0, 300.0,
            f"empirical {empirical:.2e} <= ceiling {theory:.2e} "
            f"+ 3se {stderr3:.1e} over {trials} trials")


def test_criterion_07_distortion_shrinks_with_measurements():
    t0 = time.time()
    n = 64
    spec = BilinearMapSpec(CIRCULAR_CONVOLUTION, n)
    cx = ConeSpec(support_from_indices([1, 5, 9, 20], n), POSITIVE_ORTHANT)
    cy = ConeSpec(support_from_indices([2, 11, 33, 40], n), POSITIVE_ORTHANT)
    medians = []
    for m in (16, 32, 64):
        per_seed = []
        for sd in range(20):
            ensemble = MeasurementEnsemble(GAUSSIAN, m, n, 100 + sd)
            rep = rip_monte_carlo(spec, cx, cy, ensemble, n_samples=2000,
                                  delta=0.5, seed=500 + sd)
            per_seed.append(rep.max_abs_distortion)
        medians.append(float(np.median(per_seed)))
    assert medians[0] > medians[1] > medians[2], medians

    ortho = rip_monte_carlo(spec, cx, cy, orthonormal_rows(n, n, 0),
                            n_samples=2000, delta=0.5, seed=500)
    assert ortho.max_abs_distortion <= 1e-9
    _report(7, time.time() - t0, 300.0,
            "median max distortion " +
            " > ".join(f"{v:.4f}" for v in medians) +
            f", orthonormal control {ortho.max_abs_distortion:.1e}")


def test_criterion_08_recovery_success_rates():
    t0 = time.time()
    n, m, trials = 256, 64, 100

    # receiver knowing the true output support: restricted least squares
    spec = BilinearMapSpec(CIRCULAR_CONVOLUTION, n)
    model = BilinearModel(spec,
                          ConeSpec(support_from_indices([0, 1, 2, 3], n), SUBSPACE),
                          ConeSpec(support_from_indices([0, 8, 16, 24], n), SUBSPACE))
    out_support = support_sum(model.cone_x.support, model.cone_y.support)
    assert out_support.size == 16
    oracle_ok = 0
    for t in range(trials):
        phi = _draw(GAUSSIAN, m, n, np.random.default_rng(1000 + t))
        problem = simulate_problem(model, phi, seed=2000 + t)
        result = oracle_least_squares(problem, out_support)
        if result.relative_error is not None and result.relative_error <= 1e-9:
            oracle_ok += 1
    assert oracle_ok == trials, f"oracle {oracle_ok}/{trials}"

    # blind hard thresholding at K = model_sparsity and M = 4K
    pw = BilinearMapSpec(POINTWISE, n)
    blind = BilinearModel(pw,
                          ConeSpec(support_from_indices(range(16), n),
                                   POSITIVE_ORTHANT),
                          ConeSpec(support_from_indices(range(8, 24), n),
                                   POSITIVE_ORTHANT))
    k = model_sparsity(blind)
    assert k == 16 and m == 4 * k
    iht_ok = 0
    for t in range(trials):
        phi = _draw(GAUSSIAN, m, n, np.random.default_rng(1000 + t))
        problem = simulate_problem(blind, phi, seed=2000 + t)
        result = iht(problem, k, max_iters=1000)
        if result.relative_error is not None and result.relative_error <= 1e-3:
            iht_ok += 1
    assert iht_ok >= 90, f"iht {iht_ok}/{trials}"
    _report(8, time.time() - t0, 300.0,
            f"oracle {oracle_ok}/100 at 1e-9, "
            f"hard thresholding {iht_ok}/100 at 1e-3")


def test_criterion_09_sample_count_log_slope():
    t0 = time.time()
    small = union_bound_samples(512, 4, 4, 0.5, 1e-3)
    large = union_bound_samples(1024, 4, 4, 0.5, 1e-3)
    assert small.m == 6555 and large.m == 6981
    predicted = 8.0 * math.log(2.0) / c0(0.5)
    dev = abs((large.m - small.m) - predicted)
    assert dev <= 2.0, dev
    dev_loose = abs((large.m_loose - small.m_loose) - predicted)
    assert dev_loose <= 2.0, dev_loose
    _report(9, time.time() - t0, 1.0,
            f"doubling N added {large.m - small.m} samples vs slope "
            f"{predicted:.2f} (dev {dev:.2f})")


def test_criterion_10_estimator_cross_agreement():
    t0 = time.time()
    # grid resolution per cone dimension keeps the reference sharp where
    # it is cheap and the pair count bounded where it is not
    grid_by_dim = {1: 8, 2: 240, 3: 120, 4: 40}
    # the random sweep extends at a fixed seed, so escalation refines
    # rather than reshuffles; near-null pairs need the deep end
    ladder = (10_000, 300_000, 3_000_000)

    count = 0
    worst = 0.0
    worst_pair = None
    for n in range(2, 7):
        spec = BilinearMapSpec(CIRCULAR_CONVOLUTION, n)
        subsets = [c for r in range(1, min(4, n) + 1)
                   for c in itertools.combinations(range(n), r)]
        for i_idx in subsets:
            for j_idx in subsets:
                if len(i_idx) + len(j_idx) > 5:
                    continue
                count += 1
                cx = ConeSpec(Support(i_idx, n), SUBSPACE)
                cy = ConeSpec(Support(j_idx, n), SUBSPACE)
                g = grid_by_dim[max(len(i_idx), len(j_idx))]
                grid = certify_exhaustive(spec, cx, cy, grid_per_dim=g)
                alt = estimate_alternating(spec, cx, cy, restarts=8, seed=count)
                for samples in ladder:
                    brute = estimate_brute(spec, cx, cy, samples=samples,
                                           seed=count)
                    dev_b = max(abs(brute.alpha_est - grid.alpha_est),
                                abs(brute.beta_est - grid.beta_est))
                    if dev_b <= 0.035:
                        break
                pair_dev = max(
                    dev_b,
                    abs(alt.alpha_est - grid.alpha_est),
                    abs(alt.beta_est - grid.beta_est))
                if pair_dev > worst:
                    worst, worst_pair = pair_dev, (n, i_idx, j_idx)
                assert pair_dev <= 0.05, (n, i_idx, j_idx, pair_dev)
                # a randomized estimate can only fall inside the certified bracket
                for est in (brute, alt):
                    assert grid.alpha_lower <= est.alpha_est + 1e-12, (n, i_idx, j_idx)
                    assert est.beta_est <= grid.beta_upper + 1e-12, (n, i_idx, j_idx)
    assert count == 2281
    _report(10, time.time() - t0, 600.0,
            f"{count} support pairs, worst estimator-vs-grid dev {worst:.4f} "
            f"at {worst_pair}")
