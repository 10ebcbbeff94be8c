"""Algebraic properties of the three bilinear maps on random inputs:
bilinearity in each argument, commutativity, and the output support of
pointwise and convolution images of cone pairs."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from bilinear_cs.bilinear_ops import (CIRCULAR_CONVOLUTION, MAP_KINDS, POINTWISE,
                                      UNITARY_PRODUCT, BilinearMapSpec, apply_map,
                                      dft_unitary)
from bilinear_cs.recovery import BilinearModel, output_support
from bilinear_cs.sparse_model import (CONE_KINDS, ConeSpec, support_from_indices,
                                      unit_cone_directions)

RTOL = 1e-9

# scalars kept out of the subnormal range, where the round-off bound below fails
coefficients = st.one_of(st.just(0.0), st.floats(1e-6, 10), st.floats(-10, -1e-6))


def map_spec(kind, n):
    return BilinearMapSpec(kind, n, unitary=dft_unitary(n) if kind == UNITARY_PRODUCT else None)


def norm(v):
    return float(np.linalg.norm(v))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 16), kind=st.sampled_from(MAP_KINDS),
       a=coefficients, b=coefficients, seed=st.integers(0, 2 ** 32 - 1))
def test_bilinear_in_each_argument(n, kind, a, b, seed):
    spec = map_spec(kind, n)
    x, x2, y = np.random.default_rng(seed).standard_normal((3, n))
    # every map has |T(x, y)| <= sqrt(N) |x| |y|: round-off is relative to that
    scale = np.sqrt(n) * (abs(a) * norm(x) + abs(b) * norm(x2)) * norm(y)
    left = apply_map(spec, a * x + b * x2, y)
    assert norm(left - (a * apply_map(spec, x, y) + b * apply_map(spec, x2, y))) <= RTOL * scale
    right = apply_map(spec, y, a * x + b * x2)
    assert norm(right - (a * apply_map(spec, y, x) + b * apply_map(spec, y, x2))) <= RTOL * scale


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 16), kind=st.sampled_from(MAP_KINDS), seed=st.integers(0, 2 ** 32 - 1))
def test_commutative(n, kind, seed):
    spec = map_spec(kind, n)
    x, y = np.random.default_rng(seed).standard_normal((2, n))
    scale = np.sqrt(n) * norm(x) * norm(y)
    assert norm(apply_map(spec, x, y) - apply_map(spec, y, x)) <= RTOL * scale


@st.composite
def cone_pairs(draw):
    n = draw(st.integers(1, 16))
    cones = [ConeSpec(support_from_indices(draw(st.lists(st.integers(0, n - 1), min_size=1,
                                                         max_size=n, unique=True)), n),
                      draw(st.sampled_from(CONE_KINDS)))
             for _ in range(2)]
    return draw(st.sampled_from([POINTWISE, CIRCULAR_CONVOLUTION])), cones[0], cones[1]


@settings(max_examples=80, deadline=None)
@given(case=cone_pairs(), seed=st.integers(0, 2 ** 32 - 1))
def test_image_lies_on_the_output_support(case, seed):
    kind, cx, cy = case
    n = cx.ambient_dim
    rng = np.random.default_rng(seed)
    z = apply_map(BilinearMapSpec(kind, n), unit_cone_directions(cx, 1, rng)[0],
                  unit_cone_directions(cy, 1, rng)[0])
    if kind == POINTWISE and not set(cx.support.indices) & set(cy.support.indices):
        allowed = set()  # disjoint pointwise supports: output_support refuses, T is 0
    else:
        allowed = set(output_support(BilinearModel(BilinearMapSpec(kind, n), cx, cy)).indices)
    assert set(np.flatnonzero(z).tolist()) <= allowed
