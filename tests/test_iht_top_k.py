import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from bilinear_cs.recovery import _TopK

# a small pool forces ties, zeros of both signs and mixed signs
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 3.0, -3.0]),
    st.floats(min_value=-1e3, max_value=1e3),
    st.sampled_from([np.inf, -np.inf, np.nan]),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(VALUES, min_size=1, max_size=40))
def test_top_k_keeps_the_stable_argsort_prefix(values):
    v = np.array(values)
    n = v.size
    order = np.argsort(-np.abs(v), kind="stable")
    # one row per k = 1..n, all in one stack, so rows with different k
    # are selected by one call
    stack = np.tile(v, (n, 1))[:, None, :]
    top_k = _TopK(np.arange(1, n + 1), n)
    dropped = top_k.dropped(stack)[:, 0]
    kept = top_k(stack.copy())[:, 0]
    for k in range(1, n + 1):
        assert np.flatnonzero(~dropped[k - 1]).tolist() == sorted(order[:k].tolist())
        want = np.zeros_like(v)
        want[order[:k]] = v[order[:k]]
        # bit patterns, so signed zeros and NaNs compare too
        assert np.array_equal(kept[k - 1].view(np.int64), want.view(np.int64))
