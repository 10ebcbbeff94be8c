"""The README's worked example, run as written: its Python session and its
`rnmp` JSON config must still give the values the README states."""

import contextlib
import io
import json
import math
import re
from pathlib import Path

from bilinear_cs.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def block(lang, containing):
    blocks = [b for b in re.findall(rf"```{lang}\n(.*?)```", README, re.S) if containing in b]
    assert len(blocks) == 1, f"README needs one {lang} block with {containing!r}"
    return blocks[0]


def assert_null_pair(alpha, beta, bracket):
    # the pair admits a null direction, alpha = 0, and aligned spikes give
    # beta = sqrt(2); the certified bracket must hold both
    assert 0.0 <= alpha <= 1e-12
    assert abs(beta - math.sqrt(2)) <= 1e-12
    assert bracket["alpha_lower"] <= 0.0 <= bracket["alpha_upper"]
    assert bracket["beta_lower"] <= math.sqrt(2) + 1e-12
    assert math.sqrt(2) <= bracket["beta_upper"]


def test_readme_python_session():
    session = block("python", "certify_exhaustive")
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(session, namespace)
    est = namespace["est"]
    assert_null_pair(est.alpha_est, est.beta_est, vars(est))
    printed = [[float(v) for v in line.split()] for line in out.getvalue().splitlines()]
    assert printed == [[est.alpha_est, est.beta_est], [est.alpha_lower, est.alpha_upper],
                       [est.beta_lower, est.beta_upper]]
    # the slack the README states: rho = pi/64 and L = sqrt(2)
    assert est.covering_radius == math.pi / 64 and est.outer_points == 64
    assert abs(est.beta_upper - est.beta_lower - math.sqrt(2) * math.pi / 64) < 1e-12


def test_readme_rnmp_config(tmp_path, monkeypatch):
    config = json.loads(block("json", '"command": "rnmp"'))
    monkeypatch.chdir(tmp_path)
    Path(config["output"]).parent.mkdir(parents=True)
    Path("experiment.json").write_text(json.dumps(config))
    assert main(["--config", "experiment.json"]) == 0
    result = json.loads(Path(config["output"]).read_text())["result"]
    assert result["method"] == "grid" and result["outer_points"] == 64
    assert_null_pair(result["alpha_est"], result["beta_est"], result)


def test_readme_phase_csv_config(tmp_path, monkeypatch):
    script = block("sh", '"command": "phase"')
    config = json.loads(re.search(r"<<'EOF'\n(.*?)\nEOF", script, re.S).group(1))
    assert config["format"] == "csv"
    monkeypatch.chdir(tmp_path)
    Path(config["output"]).parent.mkdir(parents=True)
    Path("phase.json").write_text(json.dumps(config))
    assert main(["--config", "phase.json"]) == 0
    lines = [ln for ln in Path(config["output"]).read_text().splitlines()
             if not ln.startswith("# ")]
    assert lines[0] == "N,S,F,cone_kind,M,trials,successes,rate"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [int(row[4]) for row in rows] == [4, 8, 16, 32]
    # the README's claim: the success rate climbs toward 1 as M approaches N
    rates = [float(row[7]) for row in rows]
    assert rates == sorted(rates) and rates[-1] > rates[0]
