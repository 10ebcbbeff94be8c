import json

import numpy as np
import pytest

from bilinear_cs.bilinear_ops import (CIRCULAR_CONVOLUTION, POINTWISE,
                                      UNITARY_PRODUCT, BilinearMapSpec,
                                      apply_map, dft_unitary)
from bilinear_cs import cli, recovery
from bilinear_cs.recovery import (BilinearModel, PhaseCell, RecoveryProblem,
                                  iht, model_sparsity, oracle_least_squares,
                                  output_support, phase_transition,
                                  simulate_problem)
from bilinear_cs.sensing import GAUSSIAN, _draw, orthonormal_rows
from bilinear_cs.sparse_model import (POSITIVE_ORTHANT, SUBSPACE, ConeSpec,
                                      support_from_indices, support_sum,
                                      unit_cone_directions)


def conv_model(n, i_idx, j_idx, kind=SUBSPACE):
    return BilinearModel(BilinearMapSpec(CIRCULAR_CONVOLUTION, n),
                         ConeSpec(support_from_indices(i_idx, n), kind),
                         ConeSpec(support_from_indices(j_idx, n), kind))


def spearman(x, y):
    """Rank correlation with average ranks on ties; numpy only."""
    def ranks(v):
        sv = np.asarray(v, dtype=float)
        order = np.argsort(sv, kind="stable")
        r = np.empty(len(sv))
        i = 0
        while i < len(sv):
            j = i
            while j + 1 < len(sv) and sv[order[j + 1]] == sv[order[i]]:
                j += 1
            r[order[i:j + 1]] = 0.5 * (i + j) + 1.0
            i = j + 1
        return r
    rx, ry = ranks(x), ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    return float(np.dot(rx, ry) / np.sqrt(np.dot(rx, rx) * np.dot(ry, ry)))


def test_model_validation():
    with pytest.raises(ValueError):
        BilinearModel(BilinearMapSpec(CIRCULAR_CONVOLUTION, 8),
                      ConeSpec(support_from_indices([0], 8), SUBSPACE),
                      ConeSpec(support_from_indices([0], 16), SUBSPACE))


def test_output_support_and_budget():
    n = 8

    def sub(idx):
        return ConeSpec(support_from_indices(idx, n), SUBSPACE)

    pairs = [([0, 1, 2], [1, 2]), ([0, 3], [3, 5, 6]), ([1, 2, 3], [1, 2, 3])]
    for i_idx, j_idx in pairs:
        pw = BilinearModel(BilinearMapSpec(POINTWISE, n), sub(i_idx), sub(j_idx))
        assert output_support(pw).indices == tuple(sorted(set(i_idx) & set(j_idx)))
        conv = conv_model(n, i_idx, j_idx)
        assert output_support(conv) == support_sum(conv.cone_x.support, conv.cone_y.support)
        for model in (pw, conv):
            assert model_sparsity(model) >= output_support(model).size
    with pytest.raises(ValueError):
        output_support(BilinearModel(BilinearMapSpec(POINTWISE, n), sub([0]), sub([1])))
    uni = BilinearModel(BilinearMapSpec(UNITARY_PRODUCT, n, unitary=dft_unitary(n)),
                        sub([0, 1]), sub([0, 4]))
    with pytest.raises(ValueError):
        output_support(uni)


def test_model_sparsity_budgets():
    n = 8
    pw = BilinearModel(BilinearMapSpec(POINTWISE, n),
                       ConeSpec(support_from_indices([0, 1, 2], n), SUBSPACE),
                       ConeSpec(support_from_indices([1, 2], n), SUBSPACE))
    assert model_sparsity(pw) == 2
    assert model_sparsity(conv_model(8, [0, 1], [0, 4])) == 4
    # aligned modular supports collapse the sumset
    assert model_sparsity(conv_model(8, [0, 4], [0, 4])) == 2
    uni = BilinearModel(BilinearMapSpec(UNITARY_PRODUCT, n, unitary=dft_unitary(n)),
                        ConeSpec(support_from_indices([0, 1], n), SUBSPACE),
                        ConeSpec(support_from_indices([0, 4], n), SUBSPACE))
    with pytest.raises(ValueError):
        model_sparsity(uni)


def test_problem_validation():
    model = conv_model(8, [0, 1], [0, 4])
    phi = np.zeros((4, 8))
    with pytest.raises(ValueError):
        RecoveryProblem(phi=phi, y=np.zeros(5), model=model)
    with pytest.raises(ValueError):
        RecoveryProblem(phi=np.zeros((4, 9)), y=np.zeros(4), model=model)
    with pytest.raises(ValueError):
        RecoveryProblem(phi=phi, y=np.zeros(4), model=model, noise_sigma=-0.1)


def test_oracle_exact_on_noiseless_data():
    model = conv_model(32, [0, 1], [0, 8])
    phi = _draw(GAUSSIAN, 16, 32, np.random.default_rng(3))
    prob = simulate_problem(model, phi, seed=11)
    sup = support_from_indices([0, 1, 8, 9], 32)
    out = oracle_least_squares(prob, sup)
    assert out.relative_error < 1e-9
    assert out.residual < 1e-9
    assert out.converged and out.iterations == 1
    assert not out.rank_deficient
    assert set(out.support_hat.indices) <= set(sup.indices)


def test_oracle_zero_measurements_give_zero_estimate():
    model = conv_model(8, [0, 1], [0, 4])
    phi = _draw(GAUSSIAN, 6, 8, np.random.default_rng(0))
    prob = RecoveryProblem(phi=phi, y=np.zeros(6), model=model)
    out = oracle_least_squares(prob, support_from_indices([0, 1, 4, 5], 8))
    assert np.array_equal(out.z_hat, np.zeros(8))
    assert out.support_hat is None
    assert out.relative_error is None


def test_oracle_rejects_underdetermined_support():
    model = conv_model(8, [0, 1], [0, 4])
    phi = _draw(GAUSSIAN, 3, 8, np.random.default_rng(0))
    prob = RecoveryProblem(phi=phi, y=np.zeros(3), model=model)
    with pytest.raises(ValueError):
        oracle_least_squares(prob, support_from_indices([0, 1, 4, 5], 8))


def test_oracle_error_linear_in_noise():
    # same seed reuses the same noise direction, so the restricted
    # least-squares error scales exactly with sigma
    model = conv_model(32, [0, 1], [0, 8])
    phi = _draw(GAUSSIAN, 16, 32, np.random.default_rng(3))
    sup = support_from_indices([0, 1, 8, 9], 32)
    errs = []
    for sigma in (1e-3, 1e-2, 1e-1):
        prob = simulate_problem(model, phi, noise_sigma=sigma, seed=11)
        errs.append(oracle_least_squares(prob, sup).relative_error)
    assert errs[1] / errs[0] == pytest.approx(10.0, rel=1e-9)
    assert errs[2] / errs[1] == pytest.approx(10.0, rel=1e-9)


def test_oracle_flags_rank_deficiency():
    model = conv_model(16, [0, 1], [0, 4])
    phi = _draw(GAUSSIAN, 8, 16, np.random.default_rng(1)).copy()
    phi[:, 1] = phi[:, 0]  # restricted system loses a rank
    y = phi @ np.eye(16)[0]
    prob = RecoveryProblem(phi=phi, y=y, model=model)
    out = oracle_least_squares(prob, support_from_indices([0, 1], 16))
    assert out.rank_deficient
    assert out.residual < 1e-9  # min-norm solution still fits


def test_iht_validation():
    model = conv_model(8, [0, 1], [0, 4])
    phi = _draw(GAUSSIAN, 4, 8, np.random.default_rng(0))
    prob = RecoveryProblem(phi=phi, y=np.zeros(4), model=model)
    with pytest.raises(ValueError):
        iht(prob, 0)
    with pytest.raises(ValueError):
        iht(prob, 9)
    with pytest.raises(ValueError):
        iht(prob, 5)  # k > m


def test_iht_identity_matrix_recovers_in_two_steps():
    model = conv_model(16, [0, 1], [0, 4])
    phi = np.eye(16)
    prob = simulate_problem(model, phi, seed=4)
    out = iht(prob, 4)
    assert out.relative_error < 1e-12
    assert out.converged and not out.diverged
    assert out.iterations <= 3


def test_iht_gaussian_instance_recovers():
    # frozen known-good draw: 24 of 32 measurements, image sparsity 4
    model = conv_model(32, [0, 1], [0, 8])
    phi = _draw(GAUSSIAN, 24, 32, np.random.default_rng(2))
    prob = simulate_problem(model, phi, seed=5)
    out = iht(prob, model_sparsity(model), max_iters=1000)
    assert out.relative_error < 1e-6
    assert out.converged


def test_iht_output_is_k_sparse():
    model = conv_model(32, [0, 1], [0, 8])
    for t in range(5):
        phi = _draw(GAUSSIAN, 12, 32, np.random.default_rng(50 + t))
        prob = simulate_problem(model, phi, seed=t)
        for k in (1, 2, 4):
            out = iht(prob, k, max_iters=60)
            assert np.count_nonzero(out.z_hat) <= k


def test_iht_flags_divergence_with_oversized_step():
    model = conv_model(32, [0, 1], [0, 8])
    phi = _draw(GAUSSIAN, 24, 32, np.random.default_rng(2))
    prob = simulate_problem(model, phi, seed=5)
    _, _, converged, diverged = recovery._iht_stack(
        phi[None], prob.y[None], np.array([4]), np.array([10.0]), 500, 1e-8)
    assert diverged[0]
    assert not converged[0]


def stable_top_k(v, k):
    """The k largest-magnitude entries of v, ties toward the lowest index,
    zero elsewhere."""
    order = np.argsort(-np.abs(v), kind="stable")
    out = np.zeros_like(v)
    out[order[:k]] = v[order[:k]]
    return out


def lone_step(phi):
    """1 / |Phi|_2^2 from the largest eigenvalue of the smaller Gram
    matrix times 1 + 4 (M + N) eps, 1.0 for Phi = 0: the step as computed
    one matrix at a time."""
    m, n = phi.shape
    gram = phi @ phi.T if m <= n else phi.T @ phi
    top = np.linalg.eigvalsh(gram)[-1] * (1.0 + 4 * (m + n) * np.finfo(float).eps)
    return 1.0 / top if top > 0.0 else 1.0


@pytest.mark.parametrize("m, n, count", [
    (4, 32, 20), (8, 32, 20), (16, 32, 20), (32, 32, 20), (64, 256, 1), (1, 1, 3), (3, 5, 7),
    (12, 5, 4)])
def test_stacked_step_matches_lone_step_bitwise(m, n, count):
    phis = np.random.default_rng(m * n + count).standard_normal((count, m, n)) / np.sqrt(m)
    if count > 1:
        phis[1] = 0.0
    steps = recovery._adaptive_step(phis)
    assert steps.shape == (count,)
    assert np.array_equal(steps, [lone_step(phi) for phi in phis])
    if count > 1:
        assert steps[1] == 1.0


def test_step_keeps_mu_times_squared_norm_at_most_one():
    # IHT's step condition mu |Phi|_2^2 <= 1 (Blumensath & Davies), against
    # the largest singular value of an SVD; 30 power iterations overshot
    # it on every one of these draws
    for m, n in ((32, 64), (48, 64), (64, 64), (64, 256)):
        phis = np.random.default_rng(m * n).standard_normal((30, m, n)) / np.sqrt(m)
        sigma = np.linalg.norm(phis, 2, axis=(1, 2))
        assert np.all(recovery._adaptive_step(phis) * sigma ** 2 <= 1.0), (m, n)


def two_product_iht(phi, y, k, mu, max_iters, tol=1e-8):
    """IHT computing Phi z twice an iteration: once for the gradient at
    the top, once for the residual norm at the end.  A residual tenfold
    that of 50 iterations before stops the run as diverged."""
    z = np.zeros(phi.shape[1])
    residuals = [float(np.linalg.norm(y))]
    converged = diverged = False
    for it in range(1, max_iters + 1):
        r_vec = y - phi @ z
        z_new = stable_top_k(z + mu * (phi.T @ r_vec), k)
        update = float(np.linalg.norm(z_new - z))
        z = z_new
        residuals.append(float(np.linalg.norm(y - phi @ z)))
        if update <= tol * max(float(np.linalg.norm(z)), 1e-300):
            converged = True
            break
        if it >= 50 and residuals[-1] > 10.0 * residuals[-51]:
            diverged = True
            break
    return z, it, converged, diverged


def test_iht_matches_two_product_loop_bitwise():
    model = conv_model(32, [0, 1], [0, 8])
    for seed in range(4):
        phi = _draw(GAUSSIAN, 12 + 4 * seed, 32, np.random.default_rng(seed))
        prob = simulate_problem(model, phi, noise_sigma=1e-3 * seed, seed=seed)
        for max_iters in (500, 7):
            z, its, converged, diverged = two_product_iht(
                phi, prob.y, 4, lone_step(phi), max_iters)
            out = iht(prob, 4, max_iters=max_iters)
            assert np.array_equal(out.z_hat, z)
            assert (out.iterations, out.converged, out.diverged) == (its, converged, diverged)
            assert out.residual == float(np.linalg.norm(phi @ z - prob.y))
        # a fixed step, through the loop iht runs
        z, its, converged, diverged = two_product_iht(phi, prob.y, 4, 10.0, 500)
        got = recovery._iht_stack(phi[None], prob.y[None], np.array([4]), np.array([10.0]),
                                  500, 1e-8)
        assert np.array_equal(got[0][0], z)
        assert tuple(v[0] for v in got[1:]) == (its, converged, diverged)


def test_iht_stack_matches_lone_runs_bitwise():
    # one stack whose members stop at different iterations, by converging,
    # diverging (step 10) or reaching the cap, so members leave it in turns
    n, m, max_iters = 32, 24, 300
    model = conv_model(n, [0, 1], [0, 8])
    phis, ys, ks, mus = [], [], [], []
    for t in range(12):
        phi = _draw(GAUSSIAN, m, n, np.random.default_rng(t))
        phis.append(phi)
        ys.append(simulate_problem(model, phi, noise_sigma=1e-3 * (t % 3), seed=t).y)
        ks.append((2, 4, 6, 3)[t % 4])
        mus.append(10.0 if t % 5 == 4 else lone_step(phi))
    # Phi = [I 0] with k = M keeps every entry, so the residual grows by
    # |1 - step| = 1.0476 an iteration: tenfold after 50 iterations, not 49
    phis.append(np.eye(m, n))
    ys.append(np.random.default_rng(12).standard_normal(m))
    ks.append(m)
    mus.append(2.0476)
    z, its, converged, diverged = recovery._iht_stack(
        np.stack(phis), np.stack(ys), np.array(ks), np.array(mus), max_iters, 1e-8)
    assert (its[12], diverged[12]) == (50, True)
    for t in range(13):
        z_ref, its_ref, conv_ref, div_ref = two_product_iht(phis[t], ys[t], ks[t], mus[t],
                                                            max_iters)
        assert np.array_equal(z[t], z_ref)
        assert (its[t], converged[t], diverged[t]) == (its_ref, conv_ref, div_ref)
    capped = [t for t in range(13) if not (converged[t] or diverged[t])]
    assert any(converged) and any(diverged) and capped
    assert {its[t] for t in capped} == {max_iters}
    assert len(set(its)) >= 8


def test_iht_breaks_ties_toward_low_indices():
    model = conv_model(4, [0, 1], [0, 2])
    phi = np.eye(4)
    y = np.ones(4)
    prob = RecoveryProblem(phi=phi, y=y, model=model)
    out = iht(prob, 2)
    assert np.array_equal(out.z_hat, np.array([1.0, 1.0, 0.0, 0.0]))
    assert out.support_hat.indices == (0, 1)


def test_simulate_problem_deterministic_and_faithful():
    model = conv_model(16, [0, 1], [0, 4])
    phi = orthonormal_rows(12, 16, 8)
    a = simulate_problem(model, phi, seed=21)
    b = simulate_problem(model, phi, seed=21)
    assert np.array_equal(a.y, b.y)
    s, h, z = a.truth
    assert abs(np.linalg.norm(s) - 1.0) < 1e-12
    assert abs(np.linalg.norm(h) - 1.0) < 1e-12
    assert np.allclose(z, apply_map(model.map_spec, s, h), atol=1e-14)
    assert np.array_equal(a.y, phi @ z)


def test_pointwise_success_lands_on_the_intersection():
    # the true image lives on I ∩ J; the sparsity budget min(S, F) leaves
    # room for stray entries, but any strays a converged run keeps are
    # below tolerance scale
    n = 32
    i_idx = list(range(6))
    j_idx = list(range(3, 9))
    model = BilinearModel(BilinearMapSpec(POINTWISE, n),
                          ConeSpec(support_from_indices(i_idx, n), SUBSPACE),
                          ConeSpec(support_from_indices(j_idx, n), SUBSPACE))
    k = model_sparsity(model)
    intersection = set(i_idx) & set(j_idx)
    successes = 0
    for t in range(20):
        phi = _draw(GAUSSIAN, 16, n, np.random.default_rng(100 + t))
        prob = simulate_problem(model, phi, seed=200 + t)
        out = iht(prob, k, max_iters=1000)
        if out.relative_error is not None and out.relative_error <= 1e-3:
            successes += 1
            big = np.flatnonzero(np.abs(out.z_hat) > 1e-6 * np.abs(out.z_hat).max())
            assert set(int(i) for i in big) <= intersection
    assert successes >= 10


def test_phase_cell_rate():
    c = PhaseCell(m=8, trials=10, successes=7)
    assert c.rate == 0.7
    assert json.loads(cli.json_text(c)) == {"m": 8, "trials": 10, "successes": 7, "rate": 0.7}


def test_phase_transition_validation():
    spec = BilinearMapSpec(CIRCULAR_CONVOLUTION, 16)
    with pytest.raises(ValueError):
        phase_transition(spec, 2, 2, "cone", (4,), 5)
    with pytest.raises(ValueError):
        phase_transition(spec, 2, 2, SUBSPACE, (), 5)
    with pytest.raises(ValueError):
        phase_transition(spec, 2, 2, SUBSPACE, (17,), 5)
    with pytest.raises(ValueError):
        phase_transition(spec, 2, 2, SUBSPACE, (4,), 0)
    with pytest.raises(ValueError):
        phase_transition(spec, 2, 17, SUBSPACE, (4,), 5)


def test_phase_transition_deterministic():
    spec = BilinearMapSpec(CIRCULAR_CONVOLUTION, 16)
    a = phase_transition(spec, 2, 2, SUBSPACE, (8, 16), 5, seed=3)
    b = phase_transition(spec, 2, 2, SUBSPACE, (8, 16), 5, seed=3)
    assert [c.successes for c in a.cells] == [c.successes for c in b.cells]
    rates = np.array([c.rate for c in a.cells])
    assert np.all(rates >= 0.0) and np.all(rates <= 1.0)


def test_phase_transition_references_and_json():
    spec = BilinearMapSpec(CIRCULAR_CONVOLUTION, 16)
    res = phase_transition(spec, 2, 3, SUBSPACE, (8,), 2, seed=0)
    assert res.reference_additive == pytest.approx(5 * np.log(16))
    assert res.reference_multiplicative == pytest.approx(6 * np.log(16))
    j = json.loads(cli.json_text(res))
    assert j["cells"][0]["m"] == 8
    assert j["map_kind"] == CIRCULAR_CONVOLUTION


def test_phase_transition_undersampled_budget_counts_as_failure():
    # the sumset of two 4-sets has at least 4 elements, so M = 3 can
    # never carry the restricted model: the rate must be exactly zero
    spec = BilinearMapSpec(CIRCULAR_CONVOLUTION, 32)
    res = phase_transition(spec, 4, 4, SUBSPACE, (3,), 4, seed=0)
    assert res.cells[0].rate == 0.0


def test_phase_transition_rate_climbs_with_m():
    # frozen sweep: rates (0, 0, 0.25, 0.9) at seed 1, rank correlation 0.9487
    spec = BilinearMapSpec(CIRCULAR_CONVOLUTION, 32)
    res = phase_transition(spec, 2, 2, SUBSPACE, (4, 8, 16, 32), 20, seed=1)
    rates = np.array([c.rate for c in res.cells])
    assert rates[-1] >= 0.7
    assert spearman([4, 8, 16, 32], rates) >= 0.9


def reference_phase_successes(spec, n, s, f, cone_kind, m_grid, trials,
                              delta_success, seed):
    """phase_transition's tally, one trial after another: each trial draws
    from its own (seed, mi, t) stream and is solved alone."""
    tally = []
    for mi, m in enumerate(m_grid):
        successes = 0
        for t in range(trials):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, mi, t)))
            while True:
                i_idx = np.sort(rng.choice(n, size=s, replace=False))
                j_idx = np.sort(rng.choice(n, size=f, replace=False))
                cone_x = ConeSpec(support_from_indices(i_idx, n), cone_kind)
                cone_y = ConeSpec(support_from_indices(j_idx, n), cone_kind)
                x = unit_cone_directions(cone_x, 1, rng)[0]
                y_vec = unit_cone_directions(cone_y, 1, rng)[0]
                z = apply_map(spec, x, y_vec)
                if np.linalg.norm(z) >= 1e-12:
                    break
            k = model_sparsity(BilinearModel(spec, cone_x, cone_y))
            if k > m:
                continue
            phi = _draw(GAUSSIAN, m, n, rng)
            y = phi @ z
            z_hat, _, _, _ = two_product_iht(phi, y, k, lone_step(phi), 500)
            if float(np.linalg.norm(z_hat - z)) / float(np.linalg.norm(z)) <= delta_success:
                successes += 1
        tally.append(successes)
    return tally


@pytest.mark.parametrize("map_kind,cone_kind", [(CIRCULAR_CONVOLUTION, SUBSPACE),
                                                (POINTWISE, POSITIVE_ORTHANT)])
def test_phase_transition_matches_per_trial_reference(map_kind, cone_kind):
    spec = BilinearMapSpec(map_kind, 32)
    m_grid = (4, 8, 16, 32)
    res = phase_transition(spec, 2, 2, cone_kind, m_grid, 20, seed=0)
    assert [c.successes for c in res.cells] == reference_phase_successes(
        spec, 32, 2, 2, cone_kind, m_grid, 20, 1e-3, 0)


def test_phase_transition_full_measurement_rate():
    # even at M = N plain hard thresholding on a square gaussian matrix
    # stalls on a fraction of draws; the rate is high but not 1
    spec = BilinearMapSpec(CIRCULAR_CONVOLUTION, 32)
    res = phase_transition(spec, 2, 2, SUBSPACE, (32,), 30, seed=0)
    assert res.cells[0].rate >= 0.6
