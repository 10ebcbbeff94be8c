"""Malformed parameter blocks for every CLI command, fuzzed: each run of
`cli.main` ends with exit 0, 1 or 2 and no escaping exception; a failure
is one JSON line on stderr, and a rejected config writes no output."""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from bilinear_cs import cli
from bilinear_cs.cli import COMMANDS, main

# small valid parameter blocks of each command that set every field of
# its table between them: one per rnmp method and recover algorithm, as a
# knob is rejected beside another method, and bounds with M or m_grid
BOUNDS = {"case": "tensor_conv", "S": 3, "F": 3, "delta": 0.5}
RNMP = {"map": "circular_convolution", "n": 5, "i": [0, 1], "j": [0, 2],
        "cone_x": "subspace", "cone_y": "positive_orthant"}
RECOVER = {"map": "circular_convolution", "n": 16, "i": [0, 1], "j": [0, 4],
           "cone_x": "subspace", "cone_y": "subspace", "ensemble": "gaussian",
           "M": 8, "noise_sigma": 0.0}
VALID = {
    "rnmp": [{**RNMP, "method": "grid", "grid_per_dim": 8},
             {**RNMP, "method": "alternating", "restarts": 2},
             {**RNMP, "method": "brute", "samples": 200}],
    "bounds": [{**BOUNDS, "M": 100, "N": 64, "p_target": 0.01, "solve_samples": 1},
               {**BOUNDS, "m_grid": [100, 200]}],
    "rip-mc": [{"map": "pointwise", "n": 8, "i": [0, 1, 2], "j": [1, 2, 3],
                "cone_x": "subspace", "cone_y": "subspace", "ensemble": "gaussian",
                "M": 4, "n_samples": 50, "delta": 0.5}],
    "concentration": [{"n": 8, "M": 4, "ensemble": "rademacher", "trials": 100,
                       "delta": 0.5, "r": [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0]}],
    "recover": [{**RECOVER, "algorithm": "iht", "k": 4, "max_iters": 50, "tol": 1e-8},
                {**RECOVER, "algorithm": "oracle"}],
    "phase": [{"map": "circular_convolution", "n": 8, "S": 2, "F": 2,
               "cone_kind": "subspace", "m_grid": [4, 8], "trials": 2,
               "delta_success": 1e-3}],
}
assert sorted(VALID) == sorted(COMMANDS)

# wrong types, number strings, NaN, empty lists, zeros, negatives, 1.0 and
# 2.0 (outside the open range of delta) and [1, 9] (above n = 8 for
# phase); no large values, so a config that passes its checks stays small
BAD = st.sampled_from([None, True, "x", "1", float("nan"), 1.5, 1.0, 2.0, 0, -1, -0.5, [],
                       [0], [1, 9], [-1, 0], ["x"], {}])


@st.composite
def parameter_blocks(draw, command):
    params = {}
    for key, value in draw(st.sampled_from(VALID[command])).items():
        action = draw(st.sampled_from(["keep", "keep", "drop", "bad"]))
        if action == "keep":
            params[key] = value
        elif action == "bad":
            params[key] = draw(BAD)
    if draw(st.booleans()):
        params[draw(st.sampled_from(["unknown", "seed", "Delta"]))] = draw(BAD)
    return params


def test_valid_blocks_set_every_field_of_the_table():
    # a field added to the CLI's table needs a valid value here to be fuzzed
    for command in COMMANDS:
        assert set().union(*VALID[command]) == cli._COMMANDS[command][2].keys(), command


@pytest.mark.parametrize("command", COMMANDS)
def test_valid_blocks_run(tmp_path, command):
    # each block the fuzzer starts from is accepted as it stands
    for params in VALID[command]:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema": 1, "command": command, "parameters": params,
                                    "output": str(tmp_path / "out.json")}))
        assert main(["--config", str(path)]) == 0, params


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_parameters_fail_cleanly(tmp_path, command, data):
    params = data.draw(parameter_blocks(command))
    fmt = data.draw(st.sampled_from(["json", "csv"]))
    out = tmp_path / f"out.{fmt}"
    out.unlink(missing_ok=True)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema": 1, "command": command, "parameters": params,
                                "seed": 3, "output": str(out), "format": fmt}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["--config", str(path)])
    assert code in (0, 1, 2)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["kind"] in ("config", "runtime")
    if code == 2:
        assert not out.exists()
