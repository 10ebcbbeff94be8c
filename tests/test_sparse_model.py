import json

import numpy as np
import pytest

from bilinear_cs.cli import json_text
from bilinear_cs.sparse_model import (CONE_KINDS, POSITIVE_ORTHANT, SUBSPACE,
                                      ConeSpec, Support, is_properly_separated,
                                      row_norms, support_from_indices,
                                      support_sum, unit_cone_coefficients,
                                      unit_cone_directions)


def naive_sumset(i_indices, j_indices, n):
    # independent oracle: exhaustive double loop over the index pairs
    return sorted({(i + j) % n for i in i_indices for j in j_indices})


def test_support_basics():
    s = Support((0, 3, 7), 8)
    assert s.size == 3
    assert s.ambient_dim == 8
    assert list(s.as_array()) == [0, 3, 7]


def test_support_rejects_bad_indices():
    with pytest.raises(ValueError):
        Support((3, 0), 8)  # not increasing
    with pytest.raises(ValueError):
        Support((0, 0, 1), 8)  # duplicate
    with pytest.raises(ValueError):
        Support((0, 8), 8)  # out of range
    with pytest.raises(ValueError):
        Support((-1, 2), 8)
    with pytest.raises(ValueError):
        Support((), 8)  # empty


def test_support_from_indices_sorts_and_dedups():
    s = support_from_indices([7, 0, 3, 3], 8)
    assert s.indices == (0, 3, 7)


def test_support_json_round_trip():
    s = Support((1, 4), 6)
    assert json.loads(json_text(s)) == {"n": 6, "indices": [1, 4]}


def test_cone_spec_dims():
    cone = ConeSpec(Support((0, 2), 4), SUBSPACE)
    assert cone.dim == 2
    assert cone.ambient_dim == 4


def test_cone_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        ConeSpec(Support((0,), 4), "octant")


def test_support_sum_against_exhaustive_enumeration():
    rng = np.random.default_rng(42)
    for n in range(2, 9):
        for _ in range(30):
            s = int(rng.integers(1, n + 1))
            f = int(rng.integers(1, n + 1))
            i_set = support_from_indices(rng.choice(n, size=s, replace=False), n)
            j_set = support_from_indices(rng.choice(n, size=f, replace=False), n)
            got = support_sum(i_set, j_set)
            assert list(got.indices) == naive_sumset(i_set.indices, j_set.indices, n)


def test_support_sum_small_example():
    i_set = support_from_indices([0, 1], 8)
    j_set = support_from_indices([0, 2], 8)
    assert support_sum(i_set, j_set).indices == (0, 1, 2, 3)


def test_support_sum_wraps_modularly():
    # {0,4} + {0,4} in Z_8: 4+4 = 8 wraps to 0, so the sumset is {0,4}
    i_set = support_from_indices([0, 4], 8)
    out = support_sum(i_set, i_set)
    assert out.indices == (0, 4)
    assert out.size == 2
    assert not is_properly_separated(i_set, i_set)


def test_support_sum_dimension_mismatch():
    with pytest.raises(ValueError):
        support_sum(support_from_indices([0], 4), support_from_indices([0], 8))


def test_properly_separated_cases():
    # {0,1} + {0,4} in Z_16 gives {0,1,4,5}: all four sums distinct
    a = support_from_indices([0, 1], 16)
    b = support_from_indices([0, 4], 16)
    assert is_properly_separated(a, b)
    # {0,2} + {0,2} in Z_4 collapses (2+2 = 0 mod 4)
    c = support_from_indices([0, 2], 4)
    assert not is_properly_separated(c, c)


def test_properly_separated_matches_definition_everywhere():
    rng = np.random.default_rng(7)
    for n in range(2, 9):
        for _ in range(40):
            s = int(rng.integers(1, n + 1))
            f = int(rng.integers(1, n + 1))
            i_set = support_from_indices(rng.choice(n, size=s, replace=False), n)
            j_set = support_from_indices(rng.choice(n, size=f, replace=False), n)
            expected = len(naive_sumset(i_set.indices, j_set.indices, n)) == s * f
            assert is_properly_separated(i_set, j_set) == expected


def test_unit_cone_directions_shape_and_norms():
    rng = np.random.default_rng(5)
    for kind in CONE_KINDS:
        cone = ConeSpec(Support((0, 3, 4), 8), kind)
        dirs = unit_cone_directions(cone, 50, rng)
        assert dirs.shape == (50, 8)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
        off = np.setdiff1d(np.arange(8), [0, 3, 4])
        assert np.all(dirs[:, off] == 0.0)
        if kind == POSITIVE_ORTHANT:
            assert np.all(dirs >= 0.0)


def test_unit_cone_directions_embed_the_coefficients():
    for kind in CONE_KINDS:
        cone = ConeSpec(Support((1, 2, 6, 9), 11), kind)
        coeffs = unit_cone_coefficients(cone, 40, np.random.default_rng(8))
        dirs = unit_cone_directions(cone, 40, np.random.default_rng(8))
        assert coeffs.shape == (40, 4)
        embedded = np.zeros((40, 11))
        embedded[:, [1, 2, 6, 9]] = coeffs
        assert np.array_equal(dirs, embedded)


def test_row_norms_match_numpy_at_every_width_to_300():
    # widths cross numpy's pairwise-sum rules: in sequence below 8 terms,
    # eight running sums up to 128, halving above; a numpy that sums in
    # another order fails here
    rng = np.random.default_rng(12)
    for width in range(1, 301):
        a = rng.standard_normal((9, width)) * np.exp(rng.uniform(-20, 20, (9, width)))
        a[:, rng.random(width) < 0.2] = 0.0  # zero columns
        a[0] = 0.0  # an all-zero row
        a[1, ::2] = 5e-324 * rng.integers(1, 1000, a[1, ::2].shape)  # subnormal
        a[2, ::3] = 1e150 * rng.standard_normal(a[2, ::3].shape)  # squares near overflow
        want = np.linalg.norm(a, axis=1)
        assert np.array_equal(row_norms(a), want), width
        assert np.array_equal(row_norms(np.asfortranarray(a)), want), width
    assert np.array_equal(row_norms(np.zeros((3, 1))), np.zeros(3))


class ScriptedNormals:
    """Generator stand-in: standard_normal hands out the scripted draws in
    turn, then the draws of a real generator, and records each shape."""

    def __init__(self, scripted, seed):
        self.scripted = [d.copy() for d in scripted]
        self.rng = np.random.default_rng(seed)
        self.shapes = []

    def standard_normal(self, shape):
        self.shapes.append(shape)
        if self.scripted:
            return self.scripted.pop(0)
        return self.rng.standard_normal(shape)


def norm_unit_cone_coefficients(cone, count, rng):
    """The sampler as it was written with np.linalg.norm."""
    s = cone.dim
    g = rng.standard_normal((count, s))
    norms = np.linalg.norm(g, axis=1)
    while np.any(norms < 1e-12):
        bad = norms < 1e-12
        g[bad] = rng.standard_normal((int(bad.sum()), s))
        norms = np.linalg.norm(g, axis=1)
    g /= norms[:, None]
    if cone.kind == POSITIVE_ORTHANT:
        np.abs(g, out=g)
    return g


@pytest.mark.parametrize("kind", CONE_KINDS)
def test_degenerate_rows_are_redrawn_in_stream_order(kind):
    cone = ConeSpec(Support((0, 2, 5), 6), kind)
    rng = np.random.default_rng(4)
    first = rng.standard_normal((6, 3))
    first[1] = 0.0
    first[4] = [1e-13, 0.0, -1e-13]  # nonzero, but below the 1e-12 cut
    second = rng.standard_normal((2, 3))
    second[1] = 0.0  # row 4 degenerates again
    got_rng = ScriptedNormals([first, second], seed=9)
    got = unit_cone_coefficients(cone, 6, got_rng)
    # one redraw per round, sized by the rows still degenerate
    assert got_rng.shapes == [(6, 3), (2, 3), (1, 3)]
    want = norm_unit_cone_coefficients(cone, 6, ScriptedNormals([first, second], seed=9))
    assert np.array_equal(got, want)

    def unit(v):
        v = v / np.linalg.norm(v)
        return np.abs(v) if kind == POSITIVE_ORTHANT else v

    third = np.random.default_rng(9).standard_normal((1, 3))
    assert np.array_equal(got[1], unit(second[0]))
    assert np.array_equal(got[4], unit(third[0]))
    for i in (0, 2, 3, 5):
        assert np.array_equal(got[i], unit(first[i]))
