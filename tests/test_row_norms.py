import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from bilinear_cs.sparse_model import row_norms

# zeros, subnormals and values whose squares overflow all occur
ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e200, -1e-160]),
    st.floats(allow_nan=False),
)


@settings(max_examples=150, deadline=None)
@given(st.tuples(st.integers(1, 12), st.integers(1, 300)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=ENTRIES)))
def test_row_norms_equal_numpy_norm_bitwise(a):
    with np.errstate(over="ignore"):
        want = np.linalg.norm(a, axis=1)
        assert np.array_equal(row_norms(a), want)
        assert np.array_equal(row_norms(np.asfortranarray(a)), want)


@st.composite
def columns_on_positions(draw):
    """(columns, positions, width): a random, possibly empty, increasing
    set of positions in a width from 1 to 600, and one column for each."""
    width = draw(st.integers(1, 600))
    positions = sorted(draw(st.sets(st.integers(0, width - 1), max_size=min(width, 40))))
    rows = draw(st.integers(1, 6))
    columns = draw(arrays(np.float64, (rows, len(positions)), elements=ENTRIES))
    return columns, positions, width


@settings(max_examples=200, deadline=None)
@given(columns_on_positions())
def test_row_norms_on_positions_equal_numpy_norm_of_the_embedding_bitwise(case):
    # widths cross the 8/128/256 splits of numpy's pairwise sum; the
    # coordinates off the positions are zeros, which row_norms skips
    columns, positions, width = case
    a = np.zeros((columns.shape[0], width))
    a[:, positions] = columns
    with np.errstate(over="ignore"):
        want = np.linalg.norm(a, axis=1)
        assert np.array_equal(row_norms(columns, positions, width), want)
        assert np.array_equal(row_norms(np.asfortranarray(columns), np.array(positions, int),
                                        width), want)
