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
