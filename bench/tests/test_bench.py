"""Tests of the benchmark itself.

    python3 -m pytest -q bench/tests
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from bilinear_cs import cli, rnmp  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_batch_is_a_pure_function_of_the_seed(workload):
    batch = workloads.batch(workload, 3)
    assert len(batch) >= 100
    assert batch == workloads.batch(workload, 3)
    other = workloads.batch(workload, 4)
    assert other != batch
    # another seed asks for the same kinds of work in the same order
    shape = [(c["command"], c["format"], c["parameters"].get("method")) for c in batch]
    assert shape == [(c["command"], c["format"], c["parameters"].get("method")) for c in other]
    # and another interpreter with another hash seed builds the same batch
    code = "import json, sys, workloads; print(json.dumps(workloads.batch(sys.argv[1], 3)))"
    out = subprocess.run([sys.executable, "-c", code, workload], cwd=BENCH, check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONHASHSEED": "123"}).stdout
    assert json.loads(out) == batch


def test_one_failing_config_breaks_the_success_rate_bound():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "success_rate")
    for workload in workloads.WORKLOADS:
        for seed in (0, run.HELD_OUT_SEED):
            assert 1 / len(workloads.batch(workload, seed)) > bound


def _run_one(tmp_path, command, parameters, fmt="json", seed=5):
    config = {"schema": 1, "command": command, "parameters": parameters, "seed": seed,
              "output": str(tmp_path / f"out.{fmt}"), "format": fmt}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main(["--config", str(path)]) == 0
    text = Path(config["output"]).read_text()
    problems, facts = checks.check_output(config, text)
    assert problems == []
    return config, text, facts


def _corrupt(text, edit):
    doc = json.loads(text)
    edit(doc["result"])
    return json.dumps(doc)


def _swap_alpha_beta(r):
    r["alpha_est"], r["beta_est"] = r["beta_est"], r["alpha_est"]
    r["alpha_witness_x"], r["beta_witness_x"] = r["beta_witness_x"], r["alpha_witness_x"]
    r["alpha_witness_y"], r["beta_witness_y"] = r["beta_witness_y"], r["alpha_witness_y"]


def _rejects(config, text):
    problems, _ = checks.check_output(config, text)
    return bool(problems)


def test_rnmp_predicates_reject_corrupted_outputs(tmp_path):
    config, text, _ = _run_one(tmp_path, "rnmp", {
        "map": "circular_convolution", "n": 4, "i": [0, 2], "j": [0, 2],
        "cone_x": "subspace", "cone_y": "subspace", "method": "grid", "grid_per_dim": 32})
    assert _rejects(config, _corrupt(text, _swap_alpha_beta))
    assert _rejects(config, _corrupt(text, lambda r: r.update(beta_est=r["beta_est"] * 0.99)))
    assert _rejects(config, _corrupt(text, lambda r: r.update(
        alpha_witness_x=[2 * v for v in r["alpha_witness_x"]])))

    config, text, _ = _run_one(tmp_path, "rnmp", {
        "map": "circular_convolution", "n": 8, "i": [0, 1], "j": [0, 4],
        "cone_x": "subspace", "cone_y": "subspace", "method": "brute", "samples": 200})
    # a separated pair is isometric
    assert _rejects(config, _corrupt(text, lambda r: r.update(alpha_est=0.9)))

    config, text, _ = _run_one(tmp_path, "rnmp", {
        "map": "circular_convolution", "n": 5, "i": [0, 1], "j": [0, 1, 2],
        "cone_x": "positive_orthant", "cone_y": "positive_orthant",
        "method": "alternating", "restarts": 2})
    assert _rejects(config, _corrupt(text, lambda r: r.update(
        alpha_witness_x=[-v for v in r["alpha_witness_x"]])))


def test_recover_predicates_reject_corrupted_outputs(tmp_path):
    base = {"n": 64, "ensemble": "gaussian", "M": 32}
    config, text, _ = _run_one(tmp_path, "recover", {
        **base, "map": "circular_convolution", "i": [0, 3], "j": [0, 9], "algorithm": "oracle"})
    assert _rejects(config, _corrupt(text, lambda r: r.update(relative_error=1e-6)))
    z_off = lambda r: r["z_hat"].__setitem__(63, 1.0)  # noqa: E731
    assert _rejects(config, _corrupt(text, z_off))

    config, text, _ = _run_one(tmp_path, "recover", {
        **base, "map": "pointwise", "i": [0, 1, 2, 3], "j": [2, 3, 4, 5],
        "cone_x": "positive_orthant", "cone_y": "positive_orthant",
        "algorithm": "iht", "k": 4, "max_iters": 300})
    assert _rejects(config, _corrupt(text, lambda r: r.update(z_hat=[1.0] * 5 + [0.0] * 59)))


def test_concentration_predicates_reject_corrupted_outputs(tmp_path):
    config, text, facts = _run_one(tmp_path, "concentration", {
        "n": 64, "M": 48, "ensemble": "rademacher", "trials": 400, "delta": 0.8})
    assert checks.pooled_problems([facts, facts]) == []
    assert _rejects(config, _corrupt(text, lambda r: r.update(empirical_rate=0.5)))
    assert _rejects(config, _corrupt(text, lambda r: r.update(theory_rate=0.5)))
    inflated = _corrupt(text, lambda r: r.update(violations=400, empirical_rate=1.0))
    problems, fact = checks.check_output(config, inflated)
    assert problems == []
    assert checks.pooled_problems([fact, fact])

    # gaussian rates must also match the exact chi-square rate, here 0.044
    config, text, facts = _run_one(tmp_path, "concentration", {
        "n": 64, "M": 32, "ensemble": "gaussian", "trials": 2000, "delta": 0.5})
    assert checks.pooled_problems([facts]) == []
    _, fact = checks.check_output(config, _corrupt(
        text, lambda r: r.update(violations=0, empirical_rate=0.0)))
    assert checks.pooled_problems([fact])


def test_gaussian_violation_rate_matches_closed_forms():
    # chi-square with 2 degrees of freedom has CDF 1 - exp(-x / 2)
    assert abs(checks._chi2_cdf(2, 3.0) - (1 - math.exp(-1.5))) < 1e-15
    assert abs(checks._chi2_cdf(4, 5.0) - (1 - math.exp(-2.5) * 3.5)) < 1e-15
    # M = 2, delta = 1: a violation is chi-square(2) / 2 outside [1/4, 9/4]
    expected = 1 - math.exp(-0.25) + math.exp(-2.25)
    assert abs(checks.gaussian_violation_rate(2, 1.0) - expected) < 1e-15


def test_bounds_predicates_reject_corrupted_outputs(tmp_path):
    config, text, _ = _run_one(tmp_path, "bounds", {
        "case": "positive_cone_conv", "S": 3, "F": 4, "delta": 0.5, "M": 4000,
        "N": 512, "solve_samples": 1, "p_target": 1e-3})
    assert _rejects(config, _corrupt(text, lambda r: r.update(success_probability_clamped=1.5)))
    assert _rejects(config, _corrupt(text, lambda r: r["sample_count"].update(
        m=r["sample_count"]["m"] + 1)))

    config, text, _ = _run_one(tmp_path, "bounds", {
        "case": "tensor_conv", "S": 2, "F": 2, "delta": 0.5, "m_grid": [500, 5000, 9000]}, "csv")
    lines = text.splitlines()
    assert _rejects(config, "\n".join(lines[:-2] + [lines[-1], lines[-2]]))


def test_rip_mc_and_phase_predicates_reject_corrupted_outputs(tmp_path):
    rip = {"map": "circular_convolution", "n": 32, "i": [0, 1], "j": [0, 4],
           "ensemble": "gaussian", "M": 16, "n_samples": 300, "delta": 0.3}
    config, text, _ = _run_one(tmp_path, "rip-mc", rip)
    assert _rejects(config, _corrupt(text, lambda r: r["quantiles"].reverse()))
    assert _rejects(config, _corrupt(text, lambda r: r.update(skipped=1)))
    config, text, _ = _run_one(tmp_path, "rip-mc", rip, "csv")
    assert _rejects(config, text.replace("\n1,", "\n1,-"))

    config, text, _ = _run_one(tmp_path, "phase", {
        "map": "circular_convolution", "n": 16, "S": 2, "F": 2, "m_grid": [4, 8], "trials": 3})
    assert _rejects(config, _corrupt(text, lambda r: r["cells"][0].update(successes=4)))


def _one_of_each(batch):
    """The first config of each kind, with its index in the batch."""
    picked = {}
    for k, c in enumerate(batch):
        p = c["parameters"]
        key = (c["command"], c["format"], p.get("method"), p.get("algorithm"), p.get("map"))
        picked.setdefault(key, k)
    return sorted(picked.values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_passes_write_identical_outputs(workload, tmp_path, monkeypatch):
    paths = workloads.write_batch(workload, 0, str(tmp_path))
    keep = _one_of_each(workloads.batch(workload, 0))
    paths = [paths[k] for k in keep]
    configs = [json.loads((tmp_path / p).read_text()) for p in paths]
    monkeypatch.chdir(tmp_path)
    plain = run.run_pass(cli, configs, paths)
    original = rnmp.matricize
    with layers.Tracer() as tracer:
        assert rnmp.matricize is not original
        traced = run.run_pass(cli, configs, paths, tracer)
    assert rnmp.matricize is original
    assert plain["problems"] == traced["problems"] == []
    assert plain["digest"] == traced["digest"]
    assert plain["counters"] == traced["counters"]
    assert tracer.stats["cli"]["calls"] == len(configs)
    assert tracer.stats["cli"]["bytes_written"] > 0


def test_benchmark_json_names_what_run_reports(tmp_path):
    """One full traced run: the result line follows BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "conditioning",
                          "--seed", "1", "--seconds", "0", "--trace", "1"],
                         cwd=ROOT, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in spec["per_layer"])
    report = json.loads(out.splitlines()[-2])["report"]
    assert isinstance(report["output_digest"], str)
    assert report["metrics"]["rnmp.certify_exhaustive.grid_pairs"]["value"] > 0


def test_compare_flags_changed_outputs_without_failing(capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def report(digest, value):
        return {"workload": "recovery", "seed": 0, "trace": 0, "problems": [], "failed": 0,
                "output_digest": digest, "counters": {"recover.iterations": len(digest)},
                "metrics": {m["name"]: {"value": value, "unit": m["unit"]}
                            for m in spec["end_to_end"]}}

    assert compare.compare([report("a", 1.0)], [report("bb", 1.0)], spec)
    out = capsys.readouterr().out
    assert "bit-identity changed" in out and "recover.iterations" in out
    assert not compare.compare([report("a", 1.0)], [report("a", 1.5)], spec)
    assert "worse" in capsys.readouterr().out


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "conditioning",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
