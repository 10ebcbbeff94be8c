"""Every finite double written by the CLI, to JSON or to a CSV cell, reads
back as a float with the same bits: -0.0, subnormals, the extremes and
integral values included."""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from bilinear_cs import cli


def bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False) | st.integers(-2 ** 53, 2 ** 53).map(float))
@example(-0.0)
@example(0.0)
@example(5e-324)
@example(-5e-324)
@example(1.7976931348623157e308)
@example(-1.7976931348623157e308)
@example(2.0)
@example(-1e16)
def test_finite_floats_read_back_bit_for_bit(tmp_path_factory, x):
    for value in (x, np.float64(x), np.array([x])):
        back = json.loads(cli.json_text(value))
        back = back[0] if isinstance(value, np.ndarray) else back
        assert type(back) is float and bits(back) == bits(x)
    path = tmp_path_factory.getbasetemp() / "cells.csv"
    cli._write_csv(str(path), [], {"py": [x], "np": [np.float64(x)], "array": np.array([x])})
    cells = path.read_text().splitlines()[1].split(",")
    assert all(bits(float(cell)) == bits(x) for cell in cells), cells
