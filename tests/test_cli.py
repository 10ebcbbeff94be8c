import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bilinear_cs import __version__, cli, rnmp
from bilinear_cs.bilinear_ops import CIRCULAR_CONVOLUTION, BilinearMapSpec
from bilinear_cs.bounds import compose_bound_report, union_bound_samples
from bilinear_cs.cli import ConfigError, ExperimentConfig, json_text, load_config, main, run
from bilinear_cs.recovery import (BilinearModel, RecoveryProblem, iht, oracle_least_squares,
                                  output_support, phase_transition, simulate_problem)
from bilinear_cs.sensing import (GAUSSIAN, RADEMACHER, MeasurementEnsemble,
                                 concentration_test, generate, orthonormal_rows,
                                 rip_monte_carlo)
from bilinear_cs.sparse_model import POSITIVE_ORTHANT, SUBSPACE, ConeSpec, support_from_indices


def write_config(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def bounds_config(tmp_path, out_name="out.json", **extra):
    body = {
        "schema": 1,
        "command": "bounds",
        "parameters": {"case": "tensor_conv", "S": 3, "F": 3,
                       "delta": 0.5, "M": 2000, **extra},
        "seed": 0,
        "output": str(tmp_path / out_name),
    }
    return write_config(tmp_path, "cfg.json", body)


def bits(values) -> list:
    """The float64 bit patterns of a list of numbers, -0.0 apart from 0.0."""
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def test_json_text_float_rendering():
    # each float as its shortest round-trip repr: integral floats and -0.0
    # read back as the same floats
    assert json_text(1 / 3) == "0.3333333333333333"
    assert json_text([2.0, -0.0, 0.0, np.float64(0.1)]) == "[2.0, -0.0, 0.0, 0.1]"
    for x in (1 / 3, 2.0, -0.0, 5e-324, -1.7976931348623157e308):
        back = json.loads(json_text(x))
        assert type(back) is float and bits([back]) == bits([x])
    assert json_text(True) == "true"
    assert json_text(None) == "null"
    assert json_text({"b": 1, "a": 2}) == '{"a": 2, "b": 1}'
    assert json_text([1.5, "x"]) == '[1.5, "x"]'
    assert json_text(np.array([0.25, 0.5])) == "[0.25, 0.5]"
    with pytest.raises(ValueError):
        json_text(float("nan"))
    with pytest.raises(TypeError):
        json_text(object())


def plain(obj):
    """The Python value a document reads back as: arrays as lists, numpy
    scalars as their Python value, tuples as lists, keys sorted."""
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return plain(obj.tolist())
    return obj


def same(got, want) -> bool:
    """Equal values of the same types, floats bit for bit."""
    if type(got) is not type(want):
        return False
    if isinstance(got, float):
        return bits([got]) == bits([want])
    if isinstance(got, dict):
        return list(got) == list(want) and all(same(got[k], want[k]) for k in got)
    if isinstance(got, list):
        return len(got) == len(want) and all(map(same, got, want))
    return got == want


def test_json_text_reads_back_every_value():
    rng = np.random.default_rng(8)
    floats = rng.standard_normal(50) * np.exp(rng.uniform(-300, 300, 50))
    docs = [
        [], (), {}, [[]], [{}], 0.0, -0.0, [0.0, -0.0], 5e-324, [5e-324, -2.2e-308, 1e308],
        floats, floats.tolist(), floats.reshape(5, 10), np.arange(7), np.arange(7).tolist(),
        [2 ** 70, -3, 0], np.array(3.5), np.array([True, False]), [True, 1, 1.0],
        [np.float64(0.1), np.int64(-4), np.bool_(True), np.float32(0.5)],
        [1, 2.5, 2.0, -0.0], [1.5, "x", None], ("a", "é\n\"q\""),
        {"b": {"z": [1.0, 2.0], "a": np.float64(-0.0)}, "a": [np.int64(2), 3],
         "c": {"x": [{"y": np.arange(3.0)}]}, "é": "ü", "k": None, "t": np.bool_(False)},
    ]
    for doc in docs:
        text = json_text(doc)
        assert text.isascii(), doc
        assert same(json.loads(text), plain(doc)), doc
    for bad in (np.inf, -np.inf, np.nan):
        for doc in (bad, [1.0, bad], np.array([0.5, bad]), {"a": [bad]}, [np.float64(bad)]):
            with pytest.raises(ValueError):
                json_text(doc)


def test_rnmp_witness_keeps_negative_zero(tmp_path):
    # the grid's witnesses on this pair hold -0.0 coordinates; the file must
    # give back their sign bits, not the integer 0
    parameters = {"map": "circular_convolution", "n": 4, "i": [0], "j": [1, 2],
                  "grid_per_dim": 8}
    path = write_config(tmp_path, "cfg.json", {
        "schema": 1, "command": "rnmp", "parameters": parameters,
        "output": str(tmp_path / "out.json")})
    assert main(["--config", path]) == 0
    result = json.loads((tmp_path / "out.json").read_text())["result"]
    spec = BilinearMapSpec(CIRCULAR_CONVOLUTION, 4)
    cx, cy = (ConeSpec(support_from_indices(i, 4), SUBSPACE) for i in ([0], [1, 2]))
    est = rnmp.certify_exhaustive(spec, cx, cy, grid_per_dim=8)
    want = {key: getattr(est, key) for key in (
        "alpha_witness_x", "alpha_witness_y", "beta_witness_x", "beta_witness_y")}
    negative_zeros = 0
    for key, vector in want.items():
        assert all(type(v) is float for v in result[key]), key
        assert bits(result[key]) == bits(vector), key
        negative_zeros += int(np.sum((vector == 0) & np.signbit(vector)))
    assert negative_zeros > 0


def test_config_validation():
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(command="juggle", parameters={}, seed=0, output_path="x")
    assert err.value.field == "command"
    with pytest.raises(ConfigError):
        ExperimentConfig(command="bounds", parameters={}, seed=0,
                         output_path="x", format="yaml")
    with pytest.raises(ConfigError):
        ExperimentConfig(command="bounds", parameters={}, seed="zero", output_path="x")
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(command="bounds", parameters={}, seed=-1, output_path="x")
    assert err.value.field == "seed"
    with pytest.raises(ConfigError):
        ExperimentConfig(command="bounds", parameters={}, seed=0, output_path="")


def test_load_config_and_overrides(tmp_path):
    path = bounds_config(tmp_path)
    cfg = load_config(path)
    assert cfg.command == "bounds" and cfg.seed == 0
    cfg2 = load_config(path, seed_override=9, format_override="csv",
                       output_override="elsewhere.csv")
    assert cfg2.seed == 9 and cfg2.format == "csv"
    assert cfg2.output_path == "elsewhere.csv"


def test_load_config_rejections(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(str(tmp_path / "absent.json"))
    assert err.value.field == "config"

    bad_schema = write_config(tmp_path, "s.json",
                              {"schema": 2, "command": "bounds",
                               "parameters": {}, "output": "o"})
    with pytest.raises(ConfigError) as err:
        load_config(bad_schema)
    assert err.value.field == "schema"

    no_cmd = write_config(tmp_path, "c.json",
                          {"schema": 1, "parameters": {}, "output": "o"})
    with pytest.raises(ConfigError) as err:
        load_config(no_cmd)
    assert err.value.field == "command"

    no_out = write_config(tmp_path, "o.json",
                          {"schema": 1, "command": "bounds", "parameters": {}})
    with pytest.raises(ConfigError) as err:
        load_config(no_out)
    assert err.value.field == "output"

    garbled = tmp_path / "g.json"
    garbled.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(garbled))


def test_bounds_command_payload(tmp_path):
    path = bounds_config(tmp_path)
    assert main(["--config", path]) == 0
    doc = json.loads((tmp_path / "out.json").read_text())
    assert doc["result"]["d"] == 12
    assert doc["result"]["c0"] == 0.625 / 48.0
    assert doc["config"]["command"] == "bounds"
    assert doc["config"]["schema"] == 1
    assert "version" in doc


def test_bounds_command_solves_sample_count(tmp_path):
    path = bounds_config(tmp_path, solve_samples=1, p_target=1e-3, N=64)
    assert main(["--config", path]) == 0
    doc = json.loads((tmp_path / "out.json").read_text())
    want = union_bound_samples(64, 3, 3, 0.5, 1e-3, "tensor_conv")
    assert doc["result"]["sample_count"]["m"] == want.m
    assert doc["result"]["sample_count"]["m_loose"] == want.m_loose


def test_bounds_sweep_csv(tmp_path):
    body = {
        "schema": 1,
        "command": "bounds",
        "parameters": {"case": "tensor_conv", "S": 3, "F": 3, "delta": 0.5,
                       "m_grid": [1000, 2000, 4000]},
        "output": str(tmp_path / "sweep.csv"),
        "format": "csv",
    }
    path = write_config(tmp_path, "sweep.json", body)
    assert main(["--config", path]) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    header = [l for l in lines if l.startswith("# ")]
    assert any(l.startswith("# version=") for l in header)
    assert any(l.startswith("# command=bounds") for l in header)
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "M,raw_bound,clamped_bound"
    assert len(data) == 4
    assert data[1].split(",")[0] == "1000"


def test_rnmp_command_certifies_null_direction(tmp_path):
    # the aligned two-bin supports admit an exact null pair; the default
    # grid resolution must find it and the sqrt(2) top end
    body = {
        "schema": 1,
        "command": "rnmp",
        "parameters": {"map": "circular_convolution", "n": 4,
                       "i": [0, 2], "j": [0, 2]},
        "output": str(tmp_path / "rnmp.json"),
    }
    path = write_config(tmp_path, "rnmp.json", body)
    assert main(["--config", path]) == 0
    doc = json.loads((tmp_path / "rnmp.json").read_text())
    assert doc["result"]["alpha_est"] <= 1e-3
    assert abs(doc["result"]["beta_est"] - math.sqrt(2)) < 1e-6
    assert doc["result"]["method"] == "grid"


def test_rnmp_brute_and_alternating_methods(tmp_path):
    for method, extra in (("brute", {"samples": 500}),
                          ("alternating", {"restarts": 4})):
        body = {
            "schema": 1,
            "command": "rnmp",
            "parameters": {"map": "circular_convolution", "n": 8,
                           "i": [0, 1], "j": [0, 4], "method": method, **extra},
            "seed": 7,
            "output": str(tmp_path / f"{method}.json"),
        }
        path = write_config(tmp_path, f"{method}_cfg.json", body)
        assert main(["--config", path]) == 0
        doc = json.loads((tmp_path / f"{method}.json").read_text())
        assert doc["result"]["method"] == method
        # separated supports: both estimators sit at the isometry value
        assert abs(doc["result"]["alpha_est"] - 1.0) < 1e-6
        assert abs(doc["result"]["beta_est"] - 1.0) < 1e-6


def test_reruns_are_byte_identical(tmp_path):
    body = {
        "schema": 1,
        "command": "rip-mc",
        "parameters": {"map": "circular_convolution", "n": 16, "M": 8,
                       "i": [0, 1], "j": [0, 4], "n_samples": 100, "delta": 0.5},
        "seed": 3,
        "output": str(tmp_path / "a.json"),
    }
    path = write_config(tmp_path, "mc.json", body)
    assert main(["--config", path]) == 0
    assert main(["--config", path, "--output", str(tmp_path / "b.json")]) == 0
    a = (tmp_path / "a.json").read_bytes()
    b = (tmp_path / "b.json").read_bytes()
    # the embedded config echoes the output path, which differs; strip it
    assert a.replace(b"a.json", b"") == b.replace(b"b.json", b"")

    assert main(["--config", path, "--output", str(tmp_path / "c.json"),
                 "--seed", "4"]) == 0
    c = (tmp_path / "c.json").read_bytes()
    assert json.loads(c)["config"]["seed"] == 4
    assert a.replace(b"a.json", b"") != c.replace(b"c.json", b"")


def test_overrides_do_not_carry_into_the_next_call(tmp_path):
    # main parses with one parser built at import
    path = bounds_config(tmp_path)
    assert main(["--config", path, "--seed", "7", "--output",
                 str(tmp_path / "over.csv"), "--format", "csv"]) == 0
    header = (tmp_path / "over.csv").read_text().splitlines()
    assert "# seed=7" in header and "# format=csv" in header
    assert main(["--config", path]) == 0
    doc = json.loads((tmp_path / "out.json").read_text())
    assert doc["config"]["seed"] == 0
    assert doc["config"]["format"] == "json"
    assert doc["config"]["output"] == str(tmp_path / "out.json")


def test_oversized_grid_exits_2_before_building_it(tmp_path, capsys, monkeypatch):
    def no_grid(*args):
        raise AssertionError("grid built before the guard")

    monkeypatch.setattr(rnmp, "_sphere_grid", no_grid)
    body = {
        "schema": 1,
        "command": "rnmp",
        "parameters": {"map": "circular_convolution", "n": 16,
                       "i": [0, 1, 2, 3, 4, 5], "j": [0, 2, 4, 6, 8, 10],
                       "method": "grid", "grid_per_dim": 64},
        "output": str(tmp_path / "grid.json"),
    }
    path = write_config(tmp_path, "grid_cfg.json", body)
    assert main(["--config", path]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == {
        "kind": "config", "field": "grid_per_dim",
        "message": f"grid of {64 ** 10} pairs exceeds the {rnmp.GRID_GUARD} guard"}
    assert not (tmp_path / "grid.json").exists()


def test_rip_mc_csv_rows(tmp_path):
    body = {
        "schema": 1,
        "command": "rip-mc",
        "parameters": {"map": "circular_convolution", "n": 16, "M": 8,
                       "i": [0, 1], "j": [0, 4], "n_samples": 50, "delta": 0.5},
        "seed": 3,
        "output": str(tmp_path / "mc.csv"),
        "format": "csv",
    }
    path = write_config(tmp_path, "mc.json", body)
    assert main(["--config", path]) == 0
    lines = (tmp_path / "mc.csv").read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "sample_index,abs_distortion"
    assert len(data) == 51
    float(data[1].split(",")[1])  # parses as a number


def test_phase_command_csv(tmp_path):
    body = {
        "schema": 1,
        "command": "phase",
        "parameters": {"map": "circular_convolution", "n": 16, "S": 2, "F": 2,
                       "m_grid": [8, 16], "trials": 4},
        "seed": 1,
        "output": str(tmp_path / "phase.csv"),
        "format": "csv",
    }
    path = write_config(tmp_path, "phase.json", body)
    assert main(["--config", path]) == 0
    lines = (tmp_path / "phase.csv").read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "N,S,F,cone_kind,M,trials,successes,rate"
    assert len(data) == 3
    first = data[1].split(",")
    assert first[0] == "16" and first[3] == "subspace" and first[4] == "8"


def test_concentration_command(tmp_path):
    body = {
        "schema": 1,
        "command": "concentration",
        "parameters": {"n": 32, "M": 16, "trials": 100, "delta": 0.5},
        "seed": 2,
        "output": str(tmp_path / "conc.json"),
    }
    path = write_config(tmp_path, "conc.json", body)
    assert main(["--config", path]) == 0
    doc = json.loads((tmp_path / "conc.json").read_text())
    assert 0.0 <= doc["result"]["empirical_rate"] <= 1.0
    assert doc["result"]["theory_rate"] == pytest.approx(
        2.0 * math.exp(-(0.625 / 48.0) * 16), rel=1e-12)


def test_recover_command(tmp_path):
    body = {
        "schema": 1,
        "command": "recover",
        "parameters": {"map": "circular_convolution", "n": 16, "M": 16,
                       "i": [0, 1], "j": [0, 4], "algorithm": "oracle"},
        "seed": 5,
        "output": str(tmp_path / "rec.json"),
    }
    path = write_config(tmp_path, "rec.json", body)
    assert main(["--config", path]) == 0
    doc = json.loads((tmp_path / "rec.json").read_text())
    assert doc["result"]["relative_error"] < 1e-9
    assert doc["result"]["converged"] is True
    assert len(doc["result"]["z_hat"]) == 16


def test_unknown_parameter_exits_2(tmp_path, capsys):
    path = bounds_config(tmp_path, widget=3)
    assert main(["--config", path]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"]["kind"] == "config"
    assert err["error"]["field"] == "widget"


@pytest.mark.parametrize("command, parameters", [
    ("rnmp", {"map": "circular_convolution", "n": 5, "i": [0, 1], "j": [1, 3],
              "method": "brute", "samples": 10}),
    ("concentration", {"n": 4, "M": 2, "trials": 100, "delta": 0.5}),
    ("bounds", {"case": "tensor_conv", "S": 3, "F": 3, "delta": 0.5, "M": 100}),
])
def test_negative_seed_exits_2(tmp_path, capsys, command, parameters):
    # in the config or on the command line; SeedSequence takes no negative seed
    body = {"schema": 1, "command": command, "parameters": parameters, "seed": -1,
            "output": str(tmp_path / "out.json")}
    assert main(["--config", write_config(tmp_path, "neg.json", body)]) == 2
    body["seed"] = 3
    assert main(["--config", write_config(tmp_path, "pos.json", body), "--seed", "-1"]) == 2
    errors = [json.loads(line)["error"] for line in capsys.readouterr().err.splitlines()]
    assert [(e["kind"], e["field"]) for e in errors] == [("config", "seed")] * 2
    assert not (tmp_path / "out.json").exists()


def test_missing_parameter_exits_2(tmp_path, capsys):
    body = {
        "schema": 1,
        "command": "concentration",
        "parameters": {"n": 32, "trials": 100, "delta": 0.5},  # no M
        "output": str(tmp_path / "x.json"),
    }
    path = write_config(tmp_path, "x.json", body)
    assert main(["--config", path]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"]["field"] == "M"


def test_runtime_failure_exits_1(tmp_path, capsys):
    # disjoint pointwise supports produce an identically zero image; the
    # oracle receiver reports that as a runtime error, not a config error
    body = {
        "schema": 1,
        "command": "recover",
        "parameters": {"map": "pointwise", "n": 16, "M": 8,
                       "i": [0, 1], "j": [2, 3], "algorithm": "oracle"},
        "output": str(tmp_path / "x.json"),
    }
    path = write_config(tmp_path, "x.json", body)
    assert main(["--config", path]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"]["kind"] == "runtime"


CONE_PAIR = {"map": "circular_convolution", "n": 8, "i": [0, 1], "j": [0, 4]}


@pytest.mark.parametrize("command, parameters, field", [
    ("rnmp", {**CONE_PAIR, "method": "brute", "samples": 0}, "samples"),
    ("rnmp", {**CONE_PAIR, "method": "alternating", "restarts": 0}, "restarts"),
    ("rnmp", {**CONE_PAIR, "method": "grid", "grid_per_dim": 2}, "grid_per_dim"),
    # a knob the chosen method ignores is checked all the same
    ("rnmp", {**CONE_PAIR, "method": "grid", "samples": 0}, "samples"),
    ("rip-mc", {**CONE_PAIR, "M": 4, "delta": 0.5, "n_samples": 0}, "n_samples"),
    ("recover", {**CONE_PAIR, "M": 4, "max_iters": 0}, "max_iters"),
    ("bounds", {"case": "tensor_conv", "S": 3, "F": 3, "delta": 0.5, "m_grid": []},
     "m_grid"),
    # alpha and beta follow from the case; a config cannot claim them
    ("bounds", {"case": "tensor_conv", "S": 3, "F": 3, "delta": 0.5, "M": 100,
                "alpha": 1.0}, "alpha"),
    ("phase", {"map": "circular_convolution", "n": 8, "S": 2, "F": 2, "m_grid": [],
               "trials": 2}, "m_grid"),
    ("phase", {"map": "circular_convolution", "n": 8, "S": 2, "F": 2, "m_grid": [4, 8],
               "trials": 0}, "trials"),
    ("concentration", {"n": 8, "M": 4, "trials": 50, "delta": 0.5}, "trials"),
    # entries of r must be JSON numbers, and finite
    ("concentration", {"n": 4, "M": 2, "trials": 100, "delta": 0.5,
                       "r": ["1", " 2 ", "nan", "0"]}, "r"),
    ("concentration", {"n": 4, "M": 2, "trials": 100, "delta": 0.5,
                       "r": [1.0, math.nan, 0.0, 0.0]}, "r"),
    ("bounds", {"case": "tensor_conv", "S": 3, "F": 3, "delta": math.nan, "M": 100},
     "delta"),
    # ranges the table states: n >= 1, delta in (0, 1), noise_sigma >= 0,
    # bounds S, F >= 2, recover k >= 1, delta_success > 0, tol > 0
    ("rnmp", {**CONE_PAIR, "n": 0}, "n"),
    ("phase", {"map": "pointwise", "n": 0, "S": 2, "F": 2, "m_grid": [4], "trials": 1}, "n"),
    ("bounds", {"case": "tensor_conv", "S": 3, "F": 3, "delta": 2.0, "M": 100}, "delta"),
    ("rip-mc", {**CONE_PAIR, "M": 4, "delta": 1.0}, "delta"),
    ("concentration", {"n": 8, "M": 4, "trials": 100, "delta": 0.0}, "delta"),
    ("recover", {**CONE_PAIR, "M": 4, "noise_sigma": -1.0}, "noise_sigma"),
    ("bounds", {"case": "tensor_conv", "S": 1, "F": 3, "delta": 0.5, "M": 100}, "S"),
    ("bounds", {"case": "tensor_conv", "S": 3, "F": 0, "delta": 0.5, "M": 100}, "F"),
    ("bounds", {"case": "tensor_conv", "S": 3, "F": 3, "delta": 0.5, "m_grid": [100, 0]},
     "m_grid"),
    ("bounds", {"case": "tensor_conv", "S": 3, "F": 3, "delta": 0.5, "M": 100,
                "solve_samples": 1, "N": 64, "p_target": 0.0}, "p_target"),
    ("bounds", {"case": "tensor_conv", "S": 3, "F": 3, "delta": 0.5, "M": 100,
                "solve_samples": -7, "N": 64, "p_target": 0.5}, "solve_samples"),
    ("bounds", {"case": "tensor_conv", "S": 3, "F": 3, "delta": 0.5, "M": 100,
                "solve_samples": 2, "N": 64, "p_target": 0.5}, "solve_samples"),
    ("recover", {**CONE_PAIR, "M": 4, "k": 0}, "k"),
    ("recover", {**CONE_PAIR, "M": 4, "tol": 0.0}, "tol"),
    ("phase", {"map": "pointwise", "n": 8, "S": 2, "F": 2, "m_grid": [4], "trials": 1,
               "delta_success": 0.0}, "delta_success"),
    # ranges across fields, checked by the handlers
    ("bounds", {"case": "tensor_conv", "S": 3, "F": 3, "delta": 0.5, "M": 100, "N": 8}, "N"),
    ("bounds", {"case": "tensor_conv", "S": 3, "F": 3, "delta": 0.5, "M": 100,
                "m_grid": [100, 200]}, "M"),
    ("rnmp", {**CONE_PAIR, "i": [3, 0, 0]}, "i"),
    ("rip-mc", {**CONE_PAIR, "j": [4, 0, 4], "M": 4, "delta": 0.5}, "j"),
    ("phase", {"map": "pointwise", "n": 8, "S": 9, "F": 2, "m_grid": [4], "trials": 1}, "S"),
    ("phase", {"map": "pointwise", "n": 8, "S": 2, "F": 9, "m_grid": [4], "trials": 1}, "F"),
    ("phase", {"map": "pointwise", "n": 8, "S": 2, "F": 2, "m_grid": [4, 9], "trials": 1},
     "m_grid"),
    ("recover", {**CONE_PAIR, "M": 4, "k": 5}, "k"),
    ("rnmp", {**CONE_PAIR, "i": [0, 1, 2, 3], "j": [0, 1, 2, 3], "method": "grid",
              "grid_per_dim": 100}, "grid_per_dim"),
    ("concentration", {"n": 4, "M": 2, "trials": 100, "delta": 0.5, "r": [1.0, 2.0]}, "r"),
    ("concentration", {"n": 2, "M": 2, "trials": 100, "delta": 0.5, "r": [0.0, 0]}, "r"),
])
def test_out_of_range_count_exits_2_naming_the_field(tmp_path, capsys, command, parameters,
                                                    field):
    body = {
        "schema": 1,
        "command": command,
        "parameters": parameters,
        "output": str(tmp_path / "out.json"),
    }
    path = write_config(tmp_path, "cfg.json", body)
    assert main(["--config", path]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"]["kind"] == "config"
    assert json.loads(err[0])["error"]["field"] == field
    assert not (tmp_path / "out.json").exists()


def test_bound_overflow_exits_1_without_traceback(tmp_path, capsys):
    # (18/delta)**dim overflows a double in covering_bound at S = F = 300
    path = bounds_config(tmp_path, S=300, F=300, M=1000)
    assert main(["--config", path]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"]["kind"] == "runtime"
    assert not (tmp_path / "out.json").exists()


def test_unallocatable_arrays_exit_1_without_traceback(tmp_path, capsys):
    # the (1, 1, N) basis images at N = 10**14 ask for 728 TiB, beyond any
    # address space, so numpy fails at once without allocating
    body = {
        "schema": 1,
        "command": "rnmp",
        "parameters": {"map": "circular_convolution", "n": 10 ** 14, "i": [0], "j": [0]},
        "output": str(tmp_path / "out.json"),
    }
    path = write_config(tmp_path, "cfg.json", body)
    assert main(["--config", path]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"]["kind"] == "runtime"
    assert not (tmp_path / "out.json").exists()


def test_csv_without_schema_exits_2(tmp_path, capsys, monkeypatch):
    # rejected before the command runs: a probe stands in for its function
    calls = []
    for command, parameters, function in [
            ("concentration", {"n": 32, "M": 16, "trials": 100, "delta": 0.5},
             "concentration_test"),
            ("rnmp", {**CONE_PAIR, "method": "brute", "samples": 2 * 10 ** 6},
             "estimate_brute")]:
        monkeypatch.setattr(cli, function, lambda *args, **kwargs: calls.append(args))
        body = {
            "schema": 1,
            "command": command,
            "parameters": parameters,
            "output": str(tmp_path / "x.csv"),
            "format": "csv",
        }
        path = write_config(tmp_path, "x.json", body)
        assert main(["--config", path]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["field"] == "format"
        assert not (tmp_path / "x.csv").exists()
    assert calls == []


def test_bad_config_file_exits_2(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "none.json")]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"]["kind"] == "config"


def test_run_accepts_programmatic_config(tmp_path):
    cfg = ExperimentConfig(command="bounds",
                           parameters={"case": "pointwise", "S": 4, "F": 9,
                                       "delta": 0.5, "M": 3000},
                           seed=0, output_path=str(tmp_path / "prog.json"))
    assert run(cfg) == 0
    doc = json.loads((tmp_path / "prog.json").read_text())
    # pointwise exponent uses min(S, F): swapping S and F changes nothing
    cfg2 = ExperimentConfig(command="bounds",
                            parameters={"case": "pointwise", "S": 9, "F": 4,
                                        "delta": 0.5, "M": 3000},
                            seed=0, output_path=str(tmp_path / "prog2.json"))
    assert run(cfg2) == 0
    doc2 = json.loads((tmp_path / "prog2.json").read_text())
    assert doc["result"]["success_probability_lower"] == \
        doc2["result"]["success_probability_lower"]


def read_csv(path):
    """(header lines without their "# ", column names, data rows as cells)."""
    lines = path.read_text().splitlines()
    header = [line[2:] for line in lines if line.startswith("# ")]
    data = [line.split(",") for line in lines[len(header):]]
    return header, data[0], data[1:]


@pytest.mark.parametrize("header", [[], ["version=0", "parameters={\"a\": 1}", "seed=3"]])
def test_write_csv_cells_read_back(tmp_path, header):
    table = {
        "f": np.array([-0.0, 5e-324, 1e300, 1 / 3]),
        "i": np.array([7, -1, 0, 2 ** 62], dtype=np.int64),
        "b": np.array([True, False, True, False]),
        "mixed": [np.int64(5), True, "cone", np.float32(0.1)],
        "py": [-0.0, 2.0, 1e300, np.float64(2.5)],
        "s": ["a", "b c", "", "subspace"],
    }
    cli._write_csv(str(tmp_path / "t.csv"), header, table)
    got_header, columns, rows = read_csv(tmp_path / "t.csv")
    assert got_header == header and columns == list(table)
    assert len(rows) == 4
    cells = dict(zip(columns, zip(*rows)))
    for name in ("f", "py"):
        assert bits([float(c) for c in cells[name]]) == bits(table[name]), name
    assert cells["i"] == ("7", "-1", "0", str(2 ** 62))
    assert cells["b"] == ("True", "False", "True", "False")
    assert cells["mixed"][:3] == ("5", "True", "cone")
    assert float(cells["mixed"][3]) == float(np.float32(0.1))
    assert cells["s"] == tuple(table["s"])
    # a table without rows still writes its header and column names
    cli._write_csv(str(tmp_path / "t0.csv"), header, {"M": [], "rate": np.empty(0)})
    assert read_csv(tmp_path / "t0.csv") == (header, ["M", "rate"], [])


def _recording(monkeypatch, name, seen):
    original = getattr(cli, name)

    def record(*args, **kwargs):
        seen.append(original(*args, **kwargs))
        return seen[-1]
    monkeypatch.setattr(cli, name, record)


@pytest.mark.parametrize("command,parameters", [
    ("bounds", {"case": "pointwise", "S": 3, "F": 2, "delta": 0.5,
                "m_grid": [10, 200, 5000], "N": 64}),
    ("rip-mc", {"map": "circular_convolution", "n": 32, "i": [0, 5, 9], "j": [1, 2],
                "cone_x": "positive_orthant", "ensemble": "rademacher", "M": 12,
                "n_samples": 300, "delta": 0.3}),
    ("phase", {"map": "pointwise", "n": 16, "S": 3, "F": 3, "m_grid": [4, 8, 16],
               "trials": 5}),
])
def test_csv_commands_write_the_report_values(tmp_path, monkeypatch, command, parameters):
    seen = []
    recorder = {"bounds": "compose_bound_report", "rip-mc": "rip_monte_carlo",
                "phase": "phase_transition"}[command]
    _recording(monkeypatch, recorder, seen)
    path = write_config(tmp_path, "cfg.json", {
        "schema": 1, "command": command, "parameters": parameters, "seed": 4,
        "output": str(tmp_path / "new.csv"), "format": "csv"})
    assert main(["--config", path]) == 0
    if command == "bounds":
        columns = ["M", "raw_bound", "clamped_bound"]
        rows = [(b.inputs.m, b.success_probability_lower, b.success_probability_clamped)
                for b in seen]
    elif command == "rip-mc":
        columns = ["sample_index", "abs_distortion"]
        rows = [(i, d) for i, d in enumerate(seen[0].abs_distortions)]
    else:
        r = seen[0]
        columns = ["N", "S", "F", "cone_kind", "M", "trials", "successes", "rate"]
        rows = [(r.n, r.s, r.f, r.cone_kind, c.m, c.trials, c.successes, c.rate)
                for c in r.cells]
    header, got_columns, got_rows = read_csv(tmp_path / "new.csv")
    assert header[0] == f"version={__version__}"
    fields = dict(line.split("=", 1) for line in header[1:])
    assert list(fields) == sorted(fields)
    assert json.loads(fields.pop("parameters")) == parameters
    assert fields == {"command": command, "format": "csv", "output": str(tmp_path / "new.csv"),
                      "schema": "1", "seed": "4"}
    assert got_columns == columns
    assert len(got_rows) == len(rows)
    for got, want in zip(got_rows, rows):
        assert len(got) == len(want)
        for cell, value in zip(got, want):
            if isinstance(value, (float, np.floating)):
                assert bits([float(cell)]) == bits([value]), (cell, value)
            else:
                assert cell == str(value)


# the to_json methods that json_text's dataclass rule replaced, kept as the
# byte reference for each report's JSON


def _old_support_json(support):
    return {"n": support.ambient_dim, "indices": list(support.indices)}


# each method's own keys, as the estimators wrote them
_OLD_DETAILS = {"brute": ("samples",), "alternating": ("restarts", "tol"),
                "grid": ("grid_per_dim", "alpha_lower", "alpha_upper", "beta_lower",
                         "beta_upper", "covering_radius", "outer_points")}


def _old_estimate_json(est):
    return {
        "support_x": _old_support_json(est.support_x),
        "support_y": _old_support_json(est.support_y),
        "cone_kinds": list(est.cone_kinds),
        "alpha_est": est.alpha_est,
        "beta_est": est.beta_est,
        "alpha_witness_x": est.alpha_witness_x.tolist(),
        "alpha_witness_y": est.alpha_witness_y.tolist(),
        "beta_witness_x": est.beta_witness_x.tolist(),
        "beta_witness_y": est.beta_witness_y.tolist(),
        "method": est.method,
        "converged": est.converged,
        **{key: getattr(est, key) for key in _OLD_DETAILS[est.method]},
    }


def _old_bound_json(rep):
    return {
        "d": rep.d,
        "c0": rep.c0,
        "covering_x": rep.covering_x,
        "covering_y": rep.covering_y,
        "success_probability_lower": rep.success_probability_lower,
        "success_probability_clamped": rep.success_probability_clamped,
        "inputs": {
            "alpha": rep.inputs.alpha,
            "beta": rep.inputs.beta,
            "delta": rep.inputs.delta,
            "m": rep.inputs.m,
            "s": rep.inputs.s,
            "f": rep.inputs.f,
            "n": rep.inputs.n,
            "case": rep.inputs.case,
        },
    }


def _old_sample_count_json(rep):
    return {
        "m": rep.m,
        "m_loose": rep.m_loose,
        "log_pairs_exact": rep.log_pairs_exact,
        "log_pairs_loose": rep.log_pairs_loose,
        "inputs": {
            "n": rep.inputs.n,
            "s": rep.inputs.s,
            "f": rep.inputs.f,
            "delta": rep.inputs.delta,
            "p_target": rep.inputs.p_target,
            "case": rep.inputs.case,
        },
    }


def _old_bounds_json(p):
    """The `bounds` result for the parameters p, as the CLI built it
    from the writers above."""
    reports = [_old_bound_json(compose_bound_report(p["case"], p["S"], p["F"], p["delta"], m,
                                                    p.get("N")))
               for m in p.get("m_grid") or [p["M"]]]
    payload = {"reports": reports} if "m_grid" in p else reports[0]
    if p.get("solve_samples"):
        payload["sample_count"] = _old_sample_count_json(union_bound_samples(
            p["N"], p["S"], p["F"], p["delta"], p["p_target"], p["case"]))
    return payload


def _bounds_payload(p):
    """The `bounds` result the CLI writes for the parameters p."""
    return cli._run_bounds(cli._parameters(ExperimentConfig("bounds", p, 0, "out.json")), 0)[0]


def _old_phase_cell_json(c):
    return {"m": c.m, "trials": c.trials, "successes": c.successes,
            "rate": c.successes / c.trials}


def _old_distortion_json(rep):
    return {
        "n_samples": rep.n_samples,
        "skipped": rep.skipped,
        "max_abs_distortion": rep.max_abs_distortion,
        "quantiles": [[q, v] for q, v in rep.quantiles],
        "exceed_count": rep.exceed_count,
        "delta": rep.delta,
        "m": rep.m,
        "n": rep.n,
        "sample_seed": rep.sample_seed,
        "ensemble_seed": rep.ensemble_seed,
    }


def _old_concentration_json(res):
    return {
        "empirical_rate": res.empirical_rate,
        "theory_rate": res.theory_rate,
        "violations": res.violations,
        "trials": res.trials,
        "delta": res.delta,
        "m": res.m,
        "seed": res.seed,
    }


def _old_recovery_json(res):
    return {
        "z_hat": [float(v) for v in res.z_hat],
        "support_hat": None if res.support_hat is None else _old_support_json(res.support_hat),
        "iterations": res.iterations,
        "residual": res.residual,
        "relative_error": res.relative_error,
        "converged": res.converged,
        "diverged": res.diverged,
        "rank_deficient": res.rank_deficient,
    }


def _old_phase_json(res):
    return {
        "n": res.n, "s": res.s, "f": res.f,
        "cone_kind": res.cone_kind, "map_kind": res.map_kind,
        "trials": res.trials, "delta_success": res.delta_success,
        "seed": res.seed,
        "cells": [_old_phase_cell_json(c) for c in res.cells],
        "reference_additive": res.reference_additive,
        "reference_multiplicative": res.reference_multiplicative,
    }


def _reports():
    """(report, reference writer) pairs, with the cases no benchmark config
    reaches: an explicit matrix, z_hat = 0, a phase cell whose trials
    were all skipped, and a bounds sweep without N."""
    conv8 = BilinearMapSpec(CIRCULAR_CONVOLUTION, 8)
    conv32 = BilinearMapSpec(CIRCULAR_CONVOLUTION, 32)
    cx, cy = (ConeSpec(support_from_indices(i, 8), SUBSPACE) for i in ([0, 1], [0, 4]))
    model = BilinearModel(conv8, cx, cy)
    phi = generate(MeasurementEnsemble(GAUSSIAN, 6, 8, 3))
    problem = simulate_problem(model, phi, noise_sigma=1e-3, seed=2)
    zero = RecoveryProblem(phi=phi, y=np.zeros(6), model=model)
    orthant = ConeSpec(support_from_indices([0, 2, 3], 8), POSITIVE_ORTHANT)
    single = {"case": "positive_cone_conv", "S": 3, "F": 4, "delta": 0.5, "M": 2000,
              "N": 64, "solve_samples": 1, "p_target": 1e-3}
    sweep = {"case": "pointwise", "S": 2, "F": 3, "delta": 0.25, "m_grid": [10, 4000]}
    return [
        (rip_monte_carlo(conv8, cx, cy, MeasurementEnsemble(RADEMACHER, 4, 8, 5), 60, 0.3,
                         1), _old_distortion_json),
        (rip_monte_carlo(conv8, cx, cy, orthonormal_rows(8, 8, 2), 30, 0.5, 0),
         _old_distortion_json),
        (concentration_test(np.arange(1.0, 9.0), MeasurementEnsemble(GAUSSIAN, 4, 8, 7),
                            100, 0.5), _old_concentration_json),
        (concentration_test(np.ones(8), MeasurementEnsemble(RADEMACHER, 4, 8, 7), 100, 0.5),
         _old_concentration_json),
        (iht(problem, 4), _old_recovery_json),
        (oracle_least_squares(problem, output_support(model)), _old_recovery_json),
        (iht(zero, 2), _old_recovery_json),
        (phase_transition(conv8, 2, 2, SUBSPACE, [2, 4, 8], 3, seed=1), _old_phase_json),
        (phase_transition(conv32, 4, 4, SUBSPACE, [3], 4), _old_phase_json),
        (rnmp.estimate_brute(conv8, cx, cy, samples=300, seed=1), _old_estimate_json),
        (rnmp.estimate_alternating(conv8, cx, cy, restarts=3, seed=1), _old_estimate_json),
        (rnmp.certify_exhaustive(conv8, cx, cy, grid_per_dim=16), _old_estimate_json),
        (rnmp.certify_exhaustive(conv8, orthant, orthant, grid_per_dim=9), _old_estimate_json),
        (_bounds_payload(single), lambda _: _old_bounds_json(single)),
        (_bounds_payload(sweep), lambda _: _old_bounds_json(sweep)),
    ]


def test_report_json_matches_to_json_bytes():
    reports = _reports()
    for report, old_json in reports:
        assert json_text(report) == json_text(old_json(report)), type(report).__name__
    edge = [report for report, _ in reports]
    assert edge[1].ensemble_seed is None
    assert edge[6].support_hat is None and edge[6].relative_error is None
    assert edge[8].cells[0].successes == 0
    assert "sample_count" in edge[13] and edge[14]["reports"][0].inputs.n is None


# the frozen key paths of each command's JSON result: a new field of a
# report shows up here as a deliberate schema change
RESULT_KEYS = {
    "rnmp": ({"map": "circular_convolution", "n": 4, "i": [0, 2], "j": [0, 2]},
             "alpha_est alpha_lower alpha_upper alpha_witness_x alpha_witness_y beta_est "
             "beta_lower beta_upper beta_witness_x beta_witness_y cone_kinds converged "
             "covering_radius grid_per_dim method outer_points support_x support_x.indices "
             "support_x.n support_y support_y.indices support_y.n"),
    "bounds": ({"case": "tensor_conv", "S": 3, "F": 3, "delta": 0.5, "M": 2000,
                "solve_samples": 1, "p_target": 1e-3, "N": 64},
               "c0 covering_x covering_y d inputs inputs.alpha inputs.beta inputs.case "
               "inputs.delta inputs.f inputs.m inputs.n inputs.s sample_count "
               "sample_count.inputs sample_count.inputs.case sample_count.inputs.delta "
               "sample_count.inputs.f sample_count.inputs.n sample_count.inputs.p_target "
               "sample_count.inputs.s sample_count.log_pairs_exact "
               "sample_count.log_pairs_loose sample_count.m sample_count.m_loose "
               "success_probability_clamped success_probability_lower"),
    "rip-mc": ({**CONE_PAIR, "M": 4, "n_samples": 50, "delta": 0.5},
               "delta ensemble_seed exceed_count m max_abs_distortion n n_samples quantiles "
               "sample_seed skipped"),
    "concentration": ({"n": 8, "M": 4, "trials": 100, "delta": 0.5},
                      "delta empirical_rate m seed theory_rate trials violations"),
    "recover": ({**CONE_PAIR, "M": 8},
                "converged diverged iterations rank_deficient relative_error residual "
                "support_hat support_hat.indices support_hat.n z_hat"),
    "phase": ({"map": "circular_convolution", "n": 8, "S": 2, "F": 2, "m_grid": [4, 8],
               "trials": 2},
              "cells cells[].m cells[].rate cells[].successes cells[].trials cone_kind "
              "delta_success f map_kind n reference_additive reference_multiplicative s "
              "seed trials"),
}


def _key_paths(obj, prefix=""):
    """Dotted paths of every key in a JSON document; list entries as []."""
    if isinstance(obj, dict):
        return set().union(*({prefix + k} | _key_paths(v, prefix + k + ".")
                             for k, v in obj.items()))
    if isinstance(obj, list):
        return set().union(*(_key_paths(v, prefix[:-1] + "[].") for v in obj))
    return set()


@pytest.mark.parametrize("command", sorted(RESULT_KEYS))
def test_result_keys_are_frozen(tmp_path, command):
    parameters, keys = RESULT_KEYS[command]
    path = write_config(tmp_path, "cfg.json", {
        "schema": 1, "command": command, "parameters": parameters,
        "output": str(tmp_path / "out.json")})
    assert main(["--config", path]) == 0
    result = json.loads((tmp_path / "out.json").read_text())["result"]
    assert sorted(_key_paths(result)) == keys.split()


def test_importing_the_cli_does_not_load_numpy_random():
    # numpy loads numpy.random on first use; the CLI leaves it to the first draw
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import bilinear_cs.cli; "
            "print('numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"
