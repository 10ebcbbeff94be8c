import json
import math

import numpy as np
import pytest

from bilinear_cs.bounds import (BALL, CASE_POINTWISE, CASE_POSITIVE_CONE_CONV,
                                CASE_TENSOR_CONV, POSITIVE_CONE_SIMPLIFIED,
                                application_probability, c0, compose_bound_report, covering_bound,
                                d_constant, rip_probability,
                                union_bound_samples)
from bilinear_cs.cli import json_text


def test_case_constant_frozen_values():
    assert d_constant(1.0, 1.0) == 12.0
    assert d_constant(2.0, 2.0) == 12.0
    assert d_constant(1.0, 2.0) == 42.0
    assert d_constant(0.25, 1.0) == 70.0  # 7 * 4 * 2.5


def test_case_constant_21_beta_specialization():
    # alpha = 1 collapses the general formula to 21 * beta, bit for bit
    for k in range(2, 40):
        beta = math.sqrt(k)
        assert d_constant(1.0, beta) == 21.0 * beta


def test_case_constant_domain():
    with pytest.raises(ValueError):
        d_constant(0.0, 1.0)
    with pytest.raises(ValueError):
        d_constant(-1.0, 1.0)
    with pytest.raises(ValueError):
        d_constant(2.0, 1.0)


def test_case_constant_never_below_twelve():
    rng = np.random.default_rng(0)
    for _ in range(200):
        alpha = float(rng.uniform(0.05, 4.0))
        beta = alpha * float(rng.uniform(1.0, 5.0))
        assert d_constant(alpha, beta) >= 12.0


def test_rate_frozen_values():
    assert c0(0.5) == 0.625 / 48.0
    assert c0(0.5) == 0.013020833333333334
    assert abs(c0(0.9) - 0.0354375) < 1e-12


def test_rate_monotone_and_capped():
    deltas = np.linspace(0.01, 0.99, 99)
    vals = [c0(float(d)) for d in deltas]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(v < 1.0 / 24.0 for v in vals)


def test_rate_domain():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            c0(bad)


def test_covering_frozen_values():
    assert covering_bound(BALL, 1, 1.0) == 3.0
    assert covering_bound(BALL, 4, 0.5) == 1296.0
    assert covering_bound(POSITIVE_CONE_SIMPLIFIED, 2, 1.0) == 324.0


def test_covering_monotone_in_eps():
    for kind, dim in ((BALL, 5), (POSITIVE_CONE_SIMPLIFIED, 5)):
        vals = [covering_bound(kind, dim, e) for e in (1.0, 0.5, 0.25, 0.1)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_covering_domain():
    with pytest.raises(ValueError):
        covering_bound("cube", 3, 0.5)
    with pytest.raises(ValueError):
        covering_bound(BALL, 0, 0.5)
    with pytest.raises(ValueError):
        covering_bound(BALL, 3, 0.0)
    with pytest.raises(ValueError):
        covering_bound(BALL, 3, 1.5)


def test_rip_probability_formula_and_degenerate_m():
    assert rip_probability(1.0, 1.0, 0.5, 0) == -1.0
    cx, cy, delta, m = 100.0, 250.0, 0.3, 4000
    expected = 1.0 - 2.0 * cx * cy * math.exp(-c0(delta) * m)
    assert rip_probability(cx, cy, delta, m) == expected


def test_rip_probability_monotone_in_m():
    vals = [rip_probability(50.0, 50.0, 0.5, m) for m in (0, 100, 1000, 5000)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_rip_probability_domain():
    with pytest.raises(ValueError):
        rip_probability(0.5, 1.0, 0.5, 10)
    with pytest.raises(ValueError):
        rip_probability(1.0, 1.0, 0.5, -1)


def closed_form(case, s, f, delta, m):
    if case == CASE_POINTWISE:
        term = 2.0 * (12.0 / delta) ** min(s, f)
    elif case == CASE_POSITIVE_CONE_CONV:
        term = 2.0 * (378.0 * math.sqrt(min(s, f)) / delta) ** (s + f)
    else:
        term = 2.0 * (36.0 / delta) ** (s + f)
    return 1.0 - term * math.exp(-c0(delta) * m)


@pytest.mark.parametrize("case", [CASE_POINTWISE, CASE_POSITIVE_CONE_CONV,
                                  CASE_TENSOR_CONV])
def test_application_matches_closed_form(case):
    # composed from coverings and the exponential tail; the printed
    # constants must emerge from the composition, not be retyped
    for s, f, delta, m in ((2, 3, 0.5, 2000), (4, 4, 0.25, 9000),
                           (5, 2, 0.9, 1500), (6, 8, 0.5, 60000)):
        got = application_probability(case, s, f, delta, m)
        want = closed_form(case, s, f, delta, m)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_application_pointwise_symmetric_in_s_f():
    a = application_probability(CASE_POINTWISE, 2, 9, 0.5, 1000)
    b = application_probability(CASE_POINTWISE, 9, 2, 0.5, 1000)
    assert a == b


def test_application_domain():
    with pytest.raises(ValueError):
        application_probability(CASE_POINTWISE, 1, 3, 0.5, 100)
    with pytest.raises(ValueError):
        application_probability(CASE_POINTWISE, 3, 3, 1.0, 100)
    with pytest.raises(ValueError):
        application_probability(CASE_POINTWISE, 3, 3, 0.5, 0)
    with pytest.raises(ValueError):
        application_probability("other", 3, 3, 0.5, 100)


def test_bound_report_consistency():
    for case in (CASE_POINTWISE, CASE_POSITIVE_CONE_CONV, CASE_TENSOR_CONV):
        rep = compose_bound_report(case, 4, 5, 0.5, 8000, n=64)
        assert rep.c0 == c0(0.5)
        assert rep.success_probability_lower == rip_probability(
            rep.covering_x, rep.covering_y, 0.5, 8000)
        assert 0.0 <= rep.success_probability_clamped <= 1.0
        assert rep.success_probability_clamped == min(
            1.0, max(0.0, rep.success_probability_lower))
        assert rep.inputs.case == case
        assert rep.inputs.n == 64


def test_bound_report_case_constants():
    cone = compose_bound_report(CASE_POSITIVE_CONE_CONV, 4, 9, 0.5, 100)
    assert cone.inputs.alpha == 1.0
    assert cone.inputs.beta == 2.0  # sqrt(min(4, 9))
    assert cone.d == d_constant(1.0, 2.0)
    tensor = compose_bound_report(CASE_TENSOR_CONV, 4, 9, 0.5, 100)
    assert tensor.d == 12.0
    assert tensor.inputs.beta == 1.0


def test_bound_report_clamps_vacuous_bound():
    rep = compose_bound_report(CASE_TENSOR_CONV, 4, 4, 0.5, 1)
    assert rep.success_probability_lower < 0.0
    assert rep.success_probability_clamped == 0.0


def test_bound_report_validation():
    with pytest.raises(ValueError):
        compose_bound_report(CASE_TENSOR_CONV, 4, 4, 0.5, 100, n=15)  # 16 > 15
    compose_bound_report(CASE_TENSOR_CONV, 4, 4, 0.5, 100, n=16)  # boundary ok
    with pytest.raises(ValueError):
        compose_bound_report(CASE_TENSOR_CONV, 1, 4, 0.5, 100)


def test_union_bound_solved_m_is_minimal():
    # the returned M satisfies the log-domain inequality and M-1 does not
    for case in (CASE_POINTWISE, CASE_POSITIVE_CONE_CONV, CASE_TENSOR_CONV):
        for n, s, f, delta, p in ((64, 3, 4, 0.5, 1e-3), (256, 4, 4, 0.25, 1e-6),
                                  (100, 2, 2, 0.9, 0.05)):
            rep = union_bound_samples(n, s, f, delta, p, case=case)
            if case == CASE_POINTWISE:
                log_base, expo = math.log(12.0 / delta), min(s, f)
            elif case == CASE_POSITIVE_CONE_CONV:
                log_base = math.log(378.0 * math.sqrt(min(s, f)) / delta)
                expo = s + f
            else:
                log_base, expo = math.log(36.0 / delta), s + f
            lhs_const = math.log(2.0) + rep.log_pairs_exact + expo * log_base
            assert lhs_const - c0(delta) * rep.m <= math.log(p) + 1e-9
            if rep.m > 1:
                assert lhs_const - c0(delta) * (rep.m - 1) > math.log(p)


def test_union_bound_exact_pairs_against_comb():
    # lgamma route vs exact integer binomials
    for n, s, f in ((16, 2, 3), (64, 4, 4), (512, 5, 2)):
        rep = union_bound_samples(n, s, f, 0.5, 1e-3)
        oracle = math.log(math.comb(n, s)) + math.log(math.comb(n, f))
        assert abs(rep.log_pairs_exact - oracle) < 1e-9
        assert rep.log_pairs_exact <= rep.log_pairs_loose
        assert rep.m <= rep.m_loose


def test_union_bound_slope_in_log_n():
    # doubling N should add (S+F) ln 2 / c0 samples, up to ceiling effects
    a = union_bound_samples(512, 4, 4, 0.5, 1e-3)
    b = union_bound_samples(1024, 4, 4, 0.5, 1e-3)
    assert a.m == 6555
    assert b.m == 6981
    predicted = 8.0 * math.log(2.0) / c0(0.5)
    assert abs((b.m - a.m) - predicted) <= 2.0


def test_union_bound_p_monotone_and_degenerate():
    ms = [union_bound_samples(64, 3, 3, 0.5, p).m for p in (1.0, 1e-2, 1e-6, 1e-12)]
    assert all(b > a for a, b in zip(ms, ms[1:]))
    # p = 1 is the degenerate admitted endpoint
    assert ms[0] >= 1


def test_union_bound_domain():
    with pytest.raises(ValueError):
        union_bound_samples(64, 1, 3, 0.5, 1e-3)
    with pytest.raises(ValueError):
        union_bound_samples(10, 4, 4, 0.5, 1e-3)  # 16 > 10
    with pytest.raises(ValueError):
        union_bound_samples(64, 3, 3, 1.0, 1e-3)
    with pytest.raises(ValueError):
        union_bound_samples(64, 3, 3, 0.5, 0.0)
    with pytest.raises(ValueError):
        union_bound_samples(64, 3, 3, 0.5, 1.5)
    with pytest.raises(ValueError):
        union_bound_samples(64, 3, 3, 0.5, 1e-3, case="other")


def test_sample_report_json():
    rep = union_bound_samples(64, 3, 4, 0.5, 1e-3, case=CASE_POINTWISE)
    j = json.loads(json_text(rep))
    assert j["m"] == rep.m
    assert j["inputs"] == {"n": 64, "s": 3, "f": 4, "delta": 0.5,
                           "p_target": 1e-3, "case": CASE_POINTWISE}
