import json
import math
import tracemalloc

import numpy as np
import pytest

from bilinear_cs import cli, rnmp, sensing
from bilinear_cs.bilinear_ops import (CIRCULAR_CONVOLUTION, POINTWISE,
                                      BilinearMapSpec, apply_map_batch)
from bilinear_cs.bounds import c0
from bilinear_cs.rnmp import basis_images, cone_pair_blocks
from bilinear_cs.sensing import (GAUSSIAN, RADEMACHER, ConcentrationResult,
                                 DistortionReport, MeasurementEnsemble,
                                 concentration_test, generate, orthonormal_rows,
                                 rip_monte_carlo)
from bilinear_cs.sparse_model import (CONE_KINDS, SUBSPACE,
                                      ConeSpec, support_from_indices,
                                      unit_cone_directions)


def cone(n, idx, kind=SUBSPACE):
    return ConeSpec(support_from_indices(idx, n), kind)


def test_ensemble_validation():
    MeasurementEnsemble(GAUSSIAN, 4, 8, 0)
    with pytest.raises(ValueError):
        MeasurementEnsemble("bernoulli", 4, 8, 0)
    with pytest.raises(ValueError):
        MeasurementEnsemble(GAUSSIAN, 0, 8, 0)
    with pytest.raises(ValueError):
        MeasurementEnsemble(GAUSSIAN, 9, 8, 0)  # more rows than cols
    with pytest.raises(ValueError):
        MeasurementEnsemble(GAUSSIAN, 4000, 4000, 0)  # 1.6e7 entries


def test_generate_is_deterministic():
    e = MeasurementEnsemble(GAUSSIAN, 16, 32, 123)
    assert np.array_equal(generate(e), generate(e))
    other = MeasurementEnsemble(GAUSSIAN, 16, 32, 124)
    assert not np.array_equal(generate(e), generate(other))


def test_gaussian_entry_statistics():
    e = MeasurementEnsemble(GAUSSIAN, 128, 256, 7)
    phi = generate(e)
    assert phi.shape == (128, 256)
    # entries are N(0, 1/M): the grand mean of 32768 draws sits within 6 sigma
    assert abs(phi.mean()) < 0.003
    assert abs(phi.var() * 128 - 1.0) < 0.05


def test_rademacher_entries_exact():
    e = MeasurementEnsemble(RADEMACHER, 64, 128, 3)
    phi = generate(e)
    scale = 1.0 / math.sqrt(64)
    assert set(np.unique(phi)) == {-scale, scale}
    # both signs occur in roughly equal proportion
    frac = np.mean(phi > 0)
    assert 0.45 < frac < 0.55


def test_orthonormal_rows_exact_isometry():
    q = orthonormal_rows(8, 16, 5)
    assert np.max(np.abs(q @ q.T - np.eye(8))) < 1e-12
    full = orthonormal_rows(16, 16, 5)
    rng = np.random.default_rng(0)
    for _ in range(10):
        z = rng.standard_normal(16)
        assert abs(np.linalg.norm(full @ z) / np.linalg.norm(z) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        orthonormal_rows(17, 16, 5)


def test_rip_monte_carlo_deterministic():
    spec = BilinearMapSpec(CIRCULAR_CONVOLUTION, 32)
    cx, cy = cone(32, [0, 3, 5]), cone(32, [1, 2, 9])
    e = MeasurementEnsemble(GAUSSIAN, 16, 32, 11)
    a = rip_monte_carlo(spec, cx, cy, e, n_samples=200, delta=0.5, seed=42)
    b = rip_monte_carlo(spec, cx, cy, e, n_samples=200, delta=0.5, seed=42)
    assert np.array_equal(a.abs_distortions, b.abs_distortions)
    assert a.max_abs_distortion == b.max_abs_distortion
    assert a.ensemble_seed == 11
    assert a.m == 16 and a.n == 32


def test_rip_monte_carlo_report_internally_consistent():
    spec = BilinearMapSpec(CIRCULAR_CONVOLUTION, 32)
    cx, cy = cone(32, [0, 3, 5]), cone(32, [1, 2, 9])
    e = MeasurementEnsemble(GAUSSIAN, 16, 32, 11)
    rep = rip_monte_carlo(spec, cx, cy, e, n_samples=500, delta=0.3, seed=1)
    assert rep.n_samples == 500 and rep.skipped == 0
    assert rep.exceed_count == int(np.sum(rep.abs_distortions > 0.3))
    assert rep.max_abs_distortion == float(np.max(rep.abs_distortions))
    for q, v in rep.quantiles:
        assert v <= rep.max_abs_distortion
        assert v == float(np.quantile(rep.abs_distortions, q))
    j = json.loads(cli.json_text(rep))
    assert "abs_distortions" not in j
    assert j["exceed_count"] == rep.exceed_count


@pytest.mark.parametrize("x", [np.array([0.25]),
                               np.array([0.5, 0.1, 0.5, 0.5, 0.1, 0.3, 0.5]),
                               np.random.default_rng(3).random(20_000)],
                         ids=["one", "ties", "20000"])
def test_quantiles_in_one_call_match_per_level_calls(x):
    # rip_monte_carlo takes every level in one np.quantile call; each
    # value must be the per-level call's to the bit
    one_call = np.quantile(x, sensing.QUANTILE_LEVELS)
    for got, q in zip(one_call.tolist(), sensing.QUANTILE_LEVELS):
        assert got == float(np.quantile(x, q))


def test_rip_monte_carlo_single_sample_and_matrix_input():
    spec = BilinearMapSpec(CIRCULAR_CONVOLUTION, 16)
    cx, cy = cone(16, [0, 1]), cone(16, [0, 4])
    phi = orthonormal_rows(16, 16, 2)
    rep = rip_monte_carlo(spec, cx, cy, phi, n_samples=1, delta=0.5, seed=0)
    assert rep.n_samples == 1
    assert rep.ensemble_seed is None
    # exact isometry: separated or not, a square orthonormal matrix
    # preserves every image norm
    assert rep.max_abs_distortion < 1e-12


def dense_distortions(spec, cx, cy, phi, n_samples, seed):
    """The full-length path: the embedded samples, mapped by apply_map_batch;
    each image's norm sums its squares over its nonzero coordinates in order."""
    ss_x, ss_y = np.random.SeedSequence(seed).spawn(2)
    xs = unit_cone_directions(cx, n_samples, np.random.default_rng(ss_x))
    ys = unit_cone_directions(cy, n_samples, np.random.default_rng(ss_y))
    zs = apply_map_batch(spec, xs, ys)
    norms = np.zeros(n_samples)
    for c in np.flatnonzero(zs.any(axis=0)):
        norms = norms + zs[:, c] * zs[:, c]
    return np.abs(np.linalg.norm(zs @ phi.T, axis=1) / np.sqrt(norms) - 1.0)


# supports and output supports of 8 or more coordinates are where numpy's
# own row norm would sum pairwise instead of in sequence
@pytest.mark.parametrize("n, i_idx, j_idx", [
    (5, [0, 1, 3], [1, 3, 4]),
    (8, [0, 2, 3, 6], [2, 3, 5]),
    (13, [1, 2, 5, 8, 12], [0, 2, 5, 9]),
    (64, [3, 7, 8, 20, 41, 42, 63], [7, 8, 11, 20, 50, 63]),
    # the benchmark's N; the convolution support wraps around and spans 0..255
    (256, [0, 9, 128, 200, 255], [1, 64, 130, 255]),
])
@pytest.mark.parametrize("kind", [POINTWISE, CIRCULAR_CONVOLUTION])
@pytest.mark.parametrize("cone_kind", CONE_KINDS)
def test_rip_monte_carlo_matches_dense_path_bitwise(n, i_idx, j_idx, kind, cone_kind):
    spec = BilinearMapSpec(kind, n)
    cx, cy = cone(n, i_idx, cone_kind), cone(n, j_idx, cone_kind)
    phi = generate(MeasurementEnsemble(GAUSSIAN, max(2, min(64, n // 2)), n, n))
    rep = rip_monte_carlo(spec, cx, cy, phi, n_samples=20_001, delta=0.5, seed=n)
    want = dense_distortions(spec, cx, cy, phi, 20_001, n)
    assert np.array_equal(rep.abs_distortions, want)
    assert rep.skipped == 0
    assert rep.max_abs_distortion == np.max(want)


@pytest.mark.parametrize("n, n_samples", [(512, 5_000), (1024, 5_000), (64, 1)])
def test_rip_monte_carlo_is_within_an_ulp_of_the_dense_path(n, n_samples):
    # Phi z sums over the output support, not over all N coordinates.  OpenBLAS
    # sums a gemm's inner dimension in blocks of 256, and a single-row product
    # (a gemv) in vector lanes, so skipping the zero coordinates regroups the
    # sum when the support straddles a block edge, or when one sample is drawn
    spec = BilinearMapSpec(CIRCULAR_CONVOLUTION, n)
    cx, cy = cone(n, [1, n // 3, n - 5]), cone(n, [0, 60, n // 2 + 3])
    phi = generate(MeasurementEnsemble(GAUSSIAN, 64, n, n))
    rep = rip_monte_carlo(spec, cx, cy, phi, n_samples=n_samples, delta=0.5, seed=n)
    want = dense_distortions(spec, cx, cy, phi, n_samples, n)
    assert np.max(np.abs(rep.abs_distortions - want)) <= 4.5e-16


@pytest.mark.parametrize("n", [256, 4096])
def test_rip_monte_carlo_memory_does_not_grow_with_n(n):
    # the images are held on their output support (at most 9 coordinates
    # here), never at length N; the full-length path peaks near 52 MB at
    # N = 256 and 640 MB at N = 4096
    spec = BilinearMapSpec(CIRCULAR_CONVOLUTION, n)
    cx, cy = cone(n, [0, 5, 17]), cone(n, [2, 3, 40])
    ensemble = MeasurementEnsemble(GAUSSIAN, 64, n, 1)
    tracemalloc.start()
    try:
        rip_monte_carlo(spec, cx, cy, ensemble, n_samples=20_000, delta=0.5, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak


def test_rip_monte_carlo_memory_does_not_grow_with_the_sweep():
    # the pairs are drawn, mapped and measured a block at a time, so only
    # the per-sample distortions (1.6 MB here) span the sweep; drawing the
    # whole sweep at once peaked near 40 MB
    spec = BilinearMapSpec(CIRCULAR_CONVOLUTION, 256)
    cx, cy = cone(256, [0, 5, 17]), cone(256, [2, 3, 40])
    ensemble = MeasurementEnsemble(GAUSSIAN, 64, 256, 1)
    tracemalloc.start()
    try:
        rip_monte_carlo(spec, cx, cy, ensemble, n_samples=200_000, delta=0.5, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


def test_rip_monte_carlo_skips_a_degenerate_row(monkeypatch):
    # a zero coefficient row has a zero image: it is skipped and counted,
    # and every other sample keeps its order and its bits
    spec = BilinearMapSpec(CIRCULAR_CONVOLUTION, 16)
    cx, cy = cone(16, [0, 1, 5]), cone(16, [2, 3])
    phi = generate(MeasurementEnsemble(GAUSSIAN, 8, 16, 4))
    full = rip_monte_carlo(spec, cx, cy, phi, n_samples=50, delta=0.5, seed=7)
    draw = rnmp.unit_cone_coefficients

    def draw_with_zero_row(cone_spec, count, rng):
        out = draw(cone_spec, count, rng)
        if cone_spec is cx:
            out[17] = 0.0
        return out

    monkeypatch.setattr(rnmp, "unit_cone_coefficients", draw_with_zero_row)
    rep = rip_monte_carlo(spec, cx, cy, phi, n_samples=50, delta=0.5, seed=7)
    assert rep.skipped == 1 and rep.n_samples == 49
    assert np.array_equal(rep.abs_distortions, np.delete(full.abs_distortions, 17))


def runs_case():
    """The benchmark's N = 256, M = 64 shape: its sampler block height and
    the rows of one Phi z product, which split that block several times."""
    spec = BilinearMapSpec(CIRCULAR_CONVOLUTION, 256)
    cx, cy = cone(256, [0, 5, 17]), cone(256, [2, 3, 40])
    phi = generate(MeasurementEnsemble(GAUSSIAN, 64, 256, 3))
    images = basis_images(spec, cx.support, cy.support)
    block = next(cone_pair_blocks(images, cx, cy, 10 ** 9, 0))[3].shape[0]
    run = rnmp._BLOCK // 64
    assert block > 2 * run
    return spec, cx, cy, phi, block, run


def measured_alone(images, cx, cy, phi, n_samples, seed):
    """Whether the last sample's distortion changes when its row is
    measured alone (a gemv) instead of with the row before it."""
    *_, (_, _, support, zs, norms) = cone_pair_blocks(images, cx, cy, n_samples, seed)
    phi_k = phi[:, support].T
    pair = np.linalg.norm(zs[-2:] @ phi_k, axis=1)[1]
    alone = np.linalg.norm(zs[-1:] @ phi_k, axis=1)[0]
    return abs(alone / norms[-1] - 1.0) != abs(pair / norms[-1] - 1.0)


@pytest.mark.parametrize("samples, lone", [
    (lambda block, run: run + 1, True),  # one block whose last run would be one row
    (lambda block, run: 2 * run + 1, True),
    (lambda block, run: block, False),
    (lambda block, run: block + 2 * run + 1, True),  # so would the last block's
    (lambda block, run: 3 * block + run // 3, False),
], ids=["run+1", "2run+1", "block", "block+2run+1", "3block+run/3"])
def test_rip_monte_carlo_in_runs_matches_dense_path_bitwise(samples, lone):
    # each block is measured in runs of _BLOCK // M rows, a lone last row
    # joining the run before it (a one-row product is a gemv); at seed 98
    # the lone rows' cases would change a distortion if measured alone
    spec, cx, cy, phi, block, run = runs_case()
    n_samples, seed = samples(block, run), 98
    images = basis_images(spec, cx.support, cy.support)
    assert not lone or measured_alone(images, cx, cy, phi, n_samples, seed)
    rep = rip_monte_carlo(spec, cx, cy, phi, n_samples=n_samples, delta=0.5, seed=seed)
    want = dense_distortions(spec, cx, cy, phi, n_samples, seed)
    assert rep.n_samples == n_samples and rep.skipped == 0
    assert np.array_equal(rep.abs_distortions, want)


def test_rip_monte_carlo_in_runs_skips_a_degenerate_row(monkeypatch):
    # a row skipped in the second block's second run shifts every later
    # distortion by one place and keeps its bits
    spec, cx, cy, phi, block, run = runs_case()
    n_samples = 2 * block + run
    full = rip_monte_carlo(spec, cx, cy, phi, n_samples=n_samples, delta=0.5, seed=5)
    draw, calls = rnmp.unit_cone_coefficients, []

    def draw_with_zero_row(cone_spec, count, rng):
        out = draw(cone_spec, count, rng)
        if cone_spec is cx:
            calls.append(count)
            if len(calls) == 2:
                out[run + 7] = 0.0
        return out

    monkeypatch.setattr(rnmp, "unit_cone_coefficients", draw_with_zero_row)
    rep = rip_monte_carlo(spec, cx, cy, phi, n_samples=n_samples, delta=0.5, seed=5)
    assert rep.skipped == 1 and rep.n_samples == n_samples - 1
    assert np.array_equal(rep.abs_distortions, np.delete(full.abs_distortions, block + run + 7))


# the rip-mc shapes (samples, N, M) of the benchmark's measurement_recovery
# batch: four 20000-sample configs at N = 256, forty at N = 64
RIP_MC_SHAPES = [(20_000, 256, 64)] + [(1_000 + 50 * c, 64, 16 * (1 + c % 2))
                                       for c in range(4, 44)]


def test_measuring_the_restricted_view_matches_the_c_ordered_product():
    # rip_monte_carlo measures the F-ordered view that each block of
    # cone_pair_blocks holds, on its support; at the benchmark's shapes
    # the gemm must give the bits it gives on the full-length images, on
    # every block (short last blocks included), and the full-length
    # images must give the same bits F- or C-ordered on a first block of
    # at least 1000 rows (on blocks of a few dozen rows they need not)
    rng = np.random.default_rng(0)
    for c, (t, n, m) in enumerate(RIP_MC_SHAPES):
        kind = POINTWISE if c % 2 else CIRCULAR_CONVOLUTION
        i_idx = sorted(rng.choice(n, 3, replace=False))
        j_idx = sorted({i_idx[0], *rng.choice(n, 2, replace=False)})
        cx, cy = cone(n, i_idx), cone(n, j_idx)
        images = basis_images(BilinearMapSpec(kind, n), cx.support, cy.support)
        phi = generate(MeasurementEnsemble(GAUSSIAN, m, n, t))
        for b, (_, _, support, zk, _) in enumerate(cone_pair_blocks(images, cx, cy, t, c)):
            rows = np.zeros((n, len(zk)))
            rows[support] = zk.T
            z = rows.T
            assert z.flags.f_contiguous and zk.flags.f_contiguous
            if b == 0:
                assert len(z) >= 1000
                assert np.array_equal(z @ phi.T, np.ascontiguousarray(z) @ phi.T), (t, n, m)
            assert np.array_equal(zk @ phi[:, support].T, z @ phi.T), (t, n, m, b)


def test_rip_monte_carlo_all_degenerate_is_an_error():
    # pointwise product of disjointly supported vectors is identically zero
    spec = BilinearMapSpec(POINTWISE, 8)
    cx, cy = cone(8, [0, 1]), cone(8, [4, 5])
    e = MeasurementEnsemble(GAUSSIAN, 4, 8, 0)
    with pytest.raises(ValueError):
        rip_monte_carlo(spec, cx, cy, e, n_samples=5, delta=0.5, seed=0)


def test_rip_monte_carlo_argument_validation():
    spec = BilinearMapSpec(POINTWISE, 8)
    cx = cy = cone(8, [0, 1])
    e = MeasurementEnsemble(GAUSSIAN, 4, 8, 0)
    with pytest.raises(ValueError):
        rip_monte_carlo(spec, cx, cy, e, n_samples=0, delta=0.5, seed=0)
    wrong = MeasurementEnsemble(GAUSSIAN, 4, 16, 0)
    with pytest.raises(ValueError):
        rip_monte_carlo(spec, cx, cy, wrong, n_samples=5, delta=0.5, seed=0)
    with pytest.raises(ValueError):
        rip_monte_carlo(spec, cx, cy, np.zeros((4, 9)), n_samples=5, delta=0.5, seed=0)
    with pytest.raises(ValueError):
        rip_monte_carlo(spec, cone(16, [0, 1]), cy, e, n_samples=5, delta=0.5, seed=0)
    for delta in (-1.0, 0.0, 1.0):
        with pytest.raises(ValueError):
            rip_monte_carlo(spec, cx, cy, e, n_samples=5, delta=delta, seed=0)


def test_distortion_report_validates_counts():
    with pytest.raises(ValueError):
        DistortionReport(n_samples=5, skipped=0, max_abs_distortion=0.1,
                         quantiles=((0.5, 0.05),), exceed_count=6, delta=0.5,
                         m=4, n=8, sample_seed=0, ensemble_seed=None,
                         abs_distortions=np.zeros(5))


def test_concentration_validation():
    e = MeasurementEnsemble(GAUSSIAN, 8, 16, 0)
    r = np.ones(16)
    with pytest.raises(ValueError):
        concentration_test(r, e, trials=99, delta=0.5)
    with pytest.raises(ValueError):
        concentration_test(np.zeros(16), e, trials=100, delta=0.5)
    with pytest.raises(ValueError):
        concentration_test(np.ones(15), e, trials=100, delta=0.5)
    with pytest.raises(ValueError):
        concentration_test(r, e, trials=100, delta=1.0)
    with pytest.raises(ValueError) as numpy_error:
        np.random.SeedSequence(-1)
    with pytest.raises(ValueError, match=str(numpy_error.value)):
        concentration_test(r, MeasurementEnsemble(GAUSSIAN, 8, 16, -1), trials=100, delta=0.5)


@pytest.mark.parametrize("kind", [GAUSSIAN, RADEMACHER])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_concentration_rejects_non_finite_r(monkeypatch, kind, bad):
    # r = [inf, 0, ...] read a Rademacher rate of 0.0 and a gaussian rate
    # for a vector that does not exist; it is now rejected before any draw
    def no_generator(*args, **kwargs):
        raise AssertionError("a generator was built")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    monkeypatch.setattr(np.random, "Generator", no_generator)
    r = np.zeros(8)
    r[0] = bad
    with pytest.raises(ValueError, match="finite"):
        concentration_test(r, MeasurementEnsemble(kind, 4, 8, 0), trials=100, delta=0.5)


def test_concentration_reports_theory():
    e = MeasurementEnsemble(GAUSSIAN, 32, 64, 5)
    r = np.ones(64)
    res = concentration_test(r, e, trials=120, delta=0.5)
    assert res.empirical_rate == res.violations / 120
    assert res.theory_rate == 2.0 * math.exp(-c0(0.5) * 32)
    assert res.violations == int(np.sum(np.abs(res.ratios - 1.0) > 0.25))
    assert res.trials == 120
    assert "ratios" not in json.loads(cli.json_text(res))


def test_concentration_scale_invariant():
    # the event compares |Phi r| to |r|; rescaling r changes nothing
    e = MeasurementEnsemble(RADEMACHER, 32, 64, 17)
    rng = np.random.default_rng(4)
    r = rng.standard_normal(64)
    a = concentration_test(r, e, trials=150, delta=0.5)
    b = concentration_test(10.0 * r, e, trials=150, delta=0.5)
    assert np.max(np.abs(a.ratios - b.ratios)) < 1e-12
    assert a.violations == b.violations


def test_concentration_deterministic():
    e = MeasurementEnsemble(GAUSSIAN, 16, 32, 9)
    r = np.ones(32)
    a = concentration_test(r, e, trials=100, delta=0.5)
    b = concentration_test(r, e, trials=100, delta=0.5)
    assert np.array_equal(a.ratios, b.ratios)


def test_concentration_square_ratio_implication():
    # a trial passing the norm test at level delta/2 automatically passes
    # the squared-norm test at level delta (2e + e^2 <= d(1 + d/4) for e <= d/2)
    e = MeasurementEnsemble(GAUSSIAN, 24, 48, 21)
    rng = np.random.default_rng(6)
    r = rng.standard_normal(48)
    res = concentration_test(r, e, trials=200, delta=0.6)
    ok = np.abs(res.ratios - 1.0) <= 0.3
    sq = np.abs(res.ratios[ok] ** 2 - 1.0)
    assert np.all(sq <= 0.3 * (2.0 + 0.3) + 1e-12)


def test_concentration_empirical_under_theory_across_seeds():
    # at M = 200, delta = 0.5 the ceiling is ~0.15 while the true rate is
    # a ~6 sigma tail, so every seed should come in at or under it
    r = np.ones(200)
    for seed in range(1, 11):
        e = MeasurementEnsemble(GAUSSIAN, 200, 200, seed)
        res = concentration_test(r, e, trials=150, delta=0.5)
        assert res.empirical_rate <= res.theory_rate
    e = MeasurementEnsemble(RADEMACHER, 200, 200, 1)
    res = concentration_test(r, e, trials=150, delta=0.5)
    assert res.empirical_rate <= res.theory_rate


SHAPES = [(128, 32), (128, 64), (256, 64), (256, 128), (200, 200), (7, 3), (201, 199),
          (1, 1)]


@pytest.mark.parametrize("last", [False, True])
@pytest.mark.parametrize("n,m", SHAPES)
def test_concentration_rademacher_one_sparse_ratios_are_exactly_one(n, m, last):
    # with r = e_k, Phi r is column k of Phi: M signs of size 1/sqrt(M)
    r = np.eye(n)[-1 if last else 0]
    res = concentration_test(r, MeasurementEnsemble(RADEMACHER, m, n, 1000 + m), 100, 0.5)
    assert np.all(res.ratios == 1.0) and res.violations == 0


def _binomial_two_sided_p(count, n, p):
    # exact two-sided p-value of count under Binomial(n, p): twice the
    # smaller tail, each summed from the log-space pmf
    ks = np.arange(n + 1)
    log_pmf = np.array([math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                        for k in ks]) + ks * math.log(p) + (n - ks) * math.log1p(-p)
    pmf = np.exp(log_pmf)
    return min(1.0, 2.0 * min(pmf[:count + 1].sum(), pmf[count:].sum()))


def test_concentration_rademacher_law_is_binomial():
    # with r = e_a + e_b, |Phi r|^2 M / |r|^2 = 2B for B ~ Binomial(M, 1/2),
    # the rows whose two signs agree; each of the M + 1 counts of B must fit
    # its exact binomial law, at a family-wise false-alarm rate of 1e-6
    m, n, trials = 16, 40, 4000
    r = np.zeros(n)
    r[[3, 29]] = 1.0
    res = concentration_test(r, MeasurementEnsemble(RADEMACHER, m, n, 2008), trials, 0.5)
    b = m * res.ratios ** 2 / 2.0
    assert np.max(np.abs(b - np.round(b))) < 1e-12
    counts = np.bincount(np.round(b).astype(int), minlength=m + 1)
    assert counts.size == m + 1
    for k, count in enumerate(counts):
        p_k = math.comb(m, k) / 2.0 ** m
        prob = _binomial_two_sided_p(int(count), trials, p_k)
        assert prob > 1e-6 / (m + 1), (k, count, trials * p_k)


@pytest.mark.parametrize("kind,m,n,r_seed,short,long", [
    (GAUSSIAN, 500, 500, None, 100, 1000),
    (RADEMACHER, 128, 256, 5, 100, 300),
])
def test_concentration_more_trials_extend_the_sequence(kind, m, n, r_seed, short, long):
    # trial t is row t of the seed's one stream whatever the trial count;
    # the longer run spans several blocks
    r = np.ones(n) if r_seed is None else np.random.default_rng(r_seed).standard_normal(n)
    e = MeasurementEnsemble(kind, m, n, 44)
    a = concentration_test(r, e, short, 0.5).ratios
    b = concentration_test(r, e, long, 0.5).ratios
    width = m * (np.count_nonzero(r) if kind == RADEMACHER else 1)
    assert long > sensing._BLOCK // width
    assert np.array_equal(a, b[:short])


def _test_vectors(n):
    # e_0 (the CLI default), e_{N-1}, 2- and 3-sparse and dense r
    rng = np.random.default_rng(n)
    vectors = {"e0": np.eye(n)[0], "elast": np.eye(n)[-1],
               "dense": rng.standard_normal(n)}
    for k in (2, 3):
        r = np.zeros(n)
        idx = rng.choice(n, size=min(k, n), replace=False)
        r[idx] = rng.standard_normal(idx.size)
        vectors[f"sparse{k}"] = r
    return vectors


@pytest.mark.parametrize("kind", ["e0", "elast", "sparse2", "sparse3", "dense"])
@pytest.mark.parametrize("n,m", SHAPES)
def test_concentration_gaussian_ratios_are_row_norms_of_one_normal_draw(n, m, kind):
    # |Phi r| / |r| has the law of |g| / sqrt(M) whatever r is, so the
    # ratios are the row norms of one standard_normal((trials, M)) draw on
    # the seed's stream; 700 trials cross a block at M >= 94
    r = _test_vectors(n)[kind]
    e = MeasurementEnsemble(GAUSSIAN, m, n, 1000 + m)
    got = concentration_test(r, e, trials=700, delta=0.5).ratios
    g = np.random.default_rng(e.seed).standard_normal((700, m))
    assert np.array_equal(got, np.linalg.norm(g, axis=1) / math.sqrt(m))


@pytest.mark.parametrize("kind", ["sparse2", "sparse3", "dense"])
@pytest.mark.parametrize("n,m", SHAPES)
def test_concentration_rademacher_ratios_depend_only_on_supp_values(n, m, kind):
    # Rademacher trials draw only the signs in supp(r)'s columns, so moving
    # r's nonzeros to other columns of a wider N, in the same order, or
    # negating r keeps every ratio; the wider |r| may round differently
    r = _test_vectors(n)[kind]
    values = r[np.flatnonzero(r)]
    wide = np.zeros(n + 7)
    wide[np.sort(np.random.default_rng(n).choice(n + 7, values.size, replace=False))] = values
    want = concentration_test(r, MeasurementEnsemble(RADEMACHER, m, n, 1000 + m), 100, 0.5)
    assert np.array_equal(
        concentration_test(-r, MeasurementEnsemble(RADEMACHER, m, n, 1000 + m), 100, 0.5).ratios,
        want.ratios)
    moved = concentration_test(wide, MeasurementEnsemble(RADEMACHER, m, n + 7, 1000 + m), 100,
                               0.5)
    np.testing.assert_allclose(moved.ratios, want.ratios, rtol=1e-14, atol=0)
    assert moved.violations == want.violations


def _chi2_even_sf(x, k):
    # P(chi^2_k > x) for even k: the Poisson(x/2) mass below k/2
    h = x / 2.0
    term, total = math.exp(-h), 0.0
    for i in range(k // 2):
        total += term
        term *= h / (i + 1)
    return total


def test_concentration_gaussian_rate_matches_exact_chi2_tail():
    # for gaussian Phi, |Phi r|^2 M / |r|^2 is chi^2_M, so the violation
    # event | |Phi r| / |r| - 1 | > delta/2 has an exact two-sided tail;
    # at M = 32 it is ~0.044, where the 2 exp(-c0 M) ceiling (~1.3) is
    # vacuous and would not notice a mis-scaled draw
    m, delta, trials = 32, 0.5, 20_000
    exact = (_chi2_even_sf(m * (1.0 + delta / 2.0) ** 2, m)
             + 1.0 - _chi2_even_sf(m * (1.0 - delta / 2.0) ** 2, m))
    assert abs(exact - 0.04433) < 5e-5
    r = np.random.default_rng(8).standard_normal(64)
    res = concentration_test(r, MeasurementEnsemble(GAUSSIAN, m, 64, 2012),
                             trials=trials, delta=delta)
    stderr = math.sqrt(exact * (1.0 - exact) / trials)
    assert abs(res.empirical_rate - exact) <= 3.0 * stderr, (res.empirical_rate, exact)


def test_concentration_gaussian_ratios_match_dense_draws():
    # two-sample Kolmogorov-Smirnov check of the ratios against
    # |Phi r| / |r| over dense matrices drawn here, from a seed of their own
    m, n, trials = 64, 64, 3000
    r = np.random.default_rng(9).standard_normal(n)
    got = concentration_test(r, MeasurementEnsemble(GAUSSIAN, m, n, 31),
                             trials=trials, delta=0.5).ratios
    rng = np.random.default_rng(77)
    ref = np.array([np.linalg.norm(sensing._draw(GAUSSIAN, m, n, rng) @ r)
                    for _ in range(trials)]) / np.linalg.norm(r)
    a, b = np.sort(got), np.sort(ref)
    both = np.concatenate([a, b])
    d = np.max(np.abs(np.searchsorted(a, both, side="right") / a.size
                      - np.searchsorted(b, both, side="right") / b.size))
    # asymptotic critical value at level 1e-3: c = sqrt(-ln(alpha / 2) / 2)
    crit = math.sqrt(-math.log(1e-3 / 2.0) / 2.0) * math.sqrt(2.0 / trials)
    assert d <= crit, (d, crit)
