import json
import math

import numpy as np
import pytest

from bilinear_cs import rnmp
from bilinear_cs.bounds import union_bound_samples
from bilinear_cs.cli import (ConfigError, ExperimentConfig, emit_plot_data,
                             json_text, load_config, main, run)
from bilinear_cs.recovery import PhaseCell, PhaseTransitionResult
from bilinear_cs.sensing import DistortionReport


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


def test_json_text_float_rendering():
    assert json_text(1 / 3) == "0.33333333333333331"
    assert json.loads(json_text(1 / 3)) == 1 / 3
    assert json_text(True) == "true"
    assert json_text(None) == "null"
    assert json_text({"b": 1, "a": 2}) == '{"a": 2, "b": 1}'
    assert json_text([1.5, "x"]) == '[1.5, "x"]'
    assert json_text(np.array([0.25, 0.5])) == "[0.25, 0.5]"
    with pytest.raises(ValueError):
        json_text(float("nan"))
    with pytest.raises(TypeError):
        json_text(object())


def test_config_validation():
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(command="juggle", parameters={}, seed=0, output_path="x")
    assert err.value.field == "command"
    with pytest.raises(ConfigError):
        ExperimentConfig(command="bounds", parameters={}, seed=0,
                         output_path="x", format="yaml")
    with pytest.raises(ConfigError):
        ExperimentConfig(command="bounds", parameters={}, seed="zero", output_path="x")
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


def test_bounds_command_checks_claimed_constants(tmp_path, capsys):
    ok = bounds_config(tmp_path, alpha=1.0, beta=1.0)
    assert main(["--config", ok]) == 0
    bad = bounds_config(tmp_path, beta=1.5)
    assert main(["--config", bad]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"]["kind"] == "config"
    assert err["error"]["field"] == "beta"


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


def test_oversized_grid_exits_1_before_building_it(tmp_path, capsys, monkeypatch):
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
    assert main(["--config", path]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == {
        "kind": "runtime",
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


def test_csv_without_schema_exits_2(tmp_path, capsys):
    body = {
        "schema": 1,
        "command": "concentration",
        "parameters": {"n": 32, "M": 16, "trials": 100, "delta": 0.5},
        "output": str(tmp_path / "x.csv"),
        "format": "csv",
    }
    path = write_config(tmp_path, "x.json", body)
    assert main(["--config", path]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"]["field"] == "format"


def test_bad_config_file_exits_2(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "none.json")]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"]["kind"] == "config"


def test_emit_plot_data_schemas(tmp_path):
    dist = DistortionReport(n_samples=3, skipped=0, max_abs_distortion=0.3,
                            quantiles=((0.5, 0.1),), exceed_count=0, delta=0.5,
                            m=4, n=8, sample_seed=0, ensemble_seed=None,
                            abs_distortions=np.array([0.1, 0.2, 0.3]))
    p1 = tmp_path / "d.csv"
    emit_plot_data(dist, str(p1))
    lines = p1.read_text().splitlines()
    assert lines[0] == "sample_index,abs_distortion"
    assert len(lines) == 4

    phase = PhaseTransitionResult(
        n=16, s=2, f=2, cone_kind="subspace", map_kind="circular_convolution",
        trials=4, delta_success=1e-3, seed=0,
        cells=(PhaseCell(8, 4, 1), PhaseCell(16, 4, 3)),
        reference_additive=1.0, reference_multiplicative=2.0)
    p2 = tmp_path / "p.csv"
    emit_plot_data(phase, str(p2))
    lines = p2.read_text().splitlines()
    assert lines[0] == "M,rate"
    assert lines[1] == "8,0.25"

    from bilinear_cs.bounds import compose_bound_report
    reports = [compose_bound_report("tensor_conv", 3, 3, 0.5, m) for m in (100, 200)]
    p3 = tmp_path / "b.csv"
    emit_plot_data(reports, str(p3))
    lines = p3.read_text().splitlines()
    assert lines[0] == "M,raw_bound,clamped_bound"
    assert len(lines) == 3

    with pytest.raises(TypeError):
        emit_plot_data({"not": "a report"}, str(tmp_path / "n.csv"))


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
