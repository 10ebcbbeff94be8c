"""The grid certifier's bracket against the randomized estimators and a
fine reference grid, on random small cone pairs."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from bilinear_cs.bilinear_ops import (CIRCULAR_CONVOLUTION, POINTWISE,
                                      UNITARY_PRODUCT, BilinearMapSpec, dft_unitary)
from bilinear_cs.rnmp import certify_exhaustive, estimate_alternating, estimate_brute
from bilinear_cs.sparse_model import CONE_KINDS, ConeSpec, support_from_indices


@st.composite
def bracket_cases(draw):
    n = draw(st.integers(2, 7))
    kind = draw(st.sampled_from([POINTWISE, CIRCULAR_CONVOLUTION, UNITARY_PRODUCT]))
    cones = []
    for _ in range(2):
        idx = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
        cones.append(ConeSpec(support_from_indices(idx, n), draw(st.sampled_from(CONE_KINDS))))
    # the 4096-angle reference contains these grids: g divides 4096, and
    # g - 1 divides 4095
    g = draw(st.sampled_from([4, 8, 16]))
    return n, kind, cones[0], cones[1], g, draw(st.integers(0, 2 ** 31))


@settings(max_examples=60, deadline=None)
@given(bracket_cases())
def test_bracket_contains_estimates_and_fine_reference(case):
    n, kind, cx, cy, g, seed = case
    spec = BilinearMapSpec(kind, n, unitary=dft_unitary(n) if kind == UNITARY_PRODUCT else None)
    b = certify_exhaustive(spec, cx, cy, grid_per_dim=g)
    for est in (estimate_brute(spec, cx, cy, samples=2000, seed=seed),
                estimate_alternating(spec, cx, cy, restarts=4, seed=seed)):
        assert b.alpha_lower - 1e-12 <= est.alpha_est
        assert est.beta_est <= b.beta_upper + 1e-12
    ref = certify_exhaustive(spec, cx, cy, grid_per_dim=4096)
    assert b.alpha_lower - 1e-12 <= ref.alpha_est <= b.alpha_upper + 1e-12
    assert b.beta_lower - 1e-12 <= ref.beta_est <= b.beta_upper + 1e-12
