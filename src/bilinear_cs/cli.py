"""Batch experiment runner: every module as a subcommand.

One binary, JSON configs, deterministic outputs.  A config names a
command (rnmp | bounds | rip-mc | concentration | recover | phase),
its parameter block, a seed, an output path and a format.  Outputs
embed the full config plus the package version so a result file is its
own provenance record; there are no timestamps, so the same config
produces byte-identical files.

Floats are printed with 17 significant digits everywhere (JSON and
CSV) so doubles reproduce bit-for-bit.  Exit codes: 0 success, 2 bad
config (the failing field is named), 1 runtime failure; errors go to
stderr as a one-line JSON record.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .bilinear_ops import CIRCULAR_CONVOLUTION, POINTWISE, BilinearMapSpec
from .bounds import CASES, BoundReport, compose_bound_report, union_bound_samples
from .recovery import (BilinearModel, PhaseTransitionResult, iht,
                       model_sparsity, oracle_least_squares, output_support,
                       phase_transition, simulate_problem)
from .rnmp import certify_exhaustive, estimate_alternating, estimate_brute
from .sensing import (ENSEMBLE_KINDS, DistortionReport, MeasurementEnsemble,
                      concentration_test, generate, rip_monte_carlo)
from .sparse_model import CONE_KINDS, SUBSPACE, ConeSpec, support_from_indices

SCHEMA_VERSION = 1
COMMANDS = ("rnmp", "bounds", "rip-mc", "concentration", "recover", "phase")
FORMATS = ("json", "csv")

_CLI_MAPS = {"pointwise": POINTWISE, "circular_convolution": CIRCULAR_CONVOLUTION}


class ConfigError(ValueError):
    """Config rejection that names the offending field."""

    def __init__(self, config_field: str, message: str):
        super().__init__(f"{config_field}: {message}")
        self.field = config_field
        self.message = message


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    parameters: Mapping
    seed: int
    output_path: str
    format: str = "json"

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError("command", f"must be one of {COMMANDS}, got {self.command!r}")
        if self.format not in FORMATS:
            raise ConfigError("format", f"must be one of {FORMATS}, got {self.format!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigError("seed", f"must be an integer, got {self.seed!r}")
        if not self.output_path:
            raise ConfigError("output", "missing output path")

    def echo(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "command": self.command,
            "parameters": dict(self.parameters),
            "seed": self.seed,
            "output": self.output_path,
            "format": self.format,
        }


def load_config(path: str, seed_override: Optional[int] = None,
                output_override: Optional[str] = None,
                format_override: Optional[str] = None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config", "top level must be an object")
    if raw.get("schema") != SCHEMA_VERSION:
        raise ConfigError("schema", f"expected {SCHEMA_VERSION}, got {raw.get('schema')!r}")
    for key in ("command", "parameters"):
        if key not in raw:
            raise ConfigError(key, "missing")
    params = raw["parameters"]
    if not isinstance(params, dict):
        raise ConfigError("parameters", "must be an object")
    seed = seed_override if seed_override is not None else raw.get("seed", 0)
    output = output_override if output_override is not None else raw.get("output")
    fmt = format_override if format_override is not None else raw.get("format", "json")
    if output is None:
        raise ConfigError("output", "missing (set in config or pass --output)")
    return ExperimentConfig(command=raw["command"], parameters=params, seed=seed,
                            output_path=output, format=fmt)


# ---------------------------------------------------------------------------
# deterministic serialization


def json_text(obj) -> str:
    """JSON with sorted keys and floats at 17 significant digits."""
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return json.dumps(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isinf(x) or math.isnan(x):
            raise ValueError("non-finite float in output payload")
        return format(x, ".17g")
    if isinstance(obj, dict):
        inner = ", ".join(json.dumps(str(k)) + ": " + json_text(v)
                          for k, v in sorted(obj.items()))
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(json_text(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return json_text(obj.tolist())
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def _write_csv(path: str, header_lines: Sequence[str], columns: Sequence[str],
               rows: Sequence[Sequence]) -> None:
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def _config_header(config: ExperimentConfig) -> list:
    echo = config.echo()
    lines = [f"version={__version__}"]
    for key in sorted(echo):
        value = echo[key]
        if isinstance(value, dict):
            lines.append(f"{key}={json_text(value)}")
        else:
            lines.append(f"{key}={value}")
    return lines


def emit_plot_data(report, output_path: str) -> None:
    """Flatten a report into plotting CSV.

    DistortionReport -> (sample_index, abs_distortion); phase result ->
    (M, rate); a sequence of BoundReports -> (M, raw_bound,
    clamped_bound).
    """
    if isinstance(report, DistortionReport):
        rows = [(i, d) for i, d in enumerate(report.abs_distortions)]
        _write_csv(output_path, [], ("sample_index", "abs_distortion"), rows)
        return
    if isinstance(report, PhaseTransitionResult):
        rows = [(c.m, c.rate) for c in report.cells]
        _write_csv(output_path, [], ("M", "rate"), rows)
        return
    if isinstance(report, Sequence) and report and \
            all(isinstance(b, BoundReport) for b in report):
        rows = [(b.m, b.success_probability_lower, b.success_probability_clamped)
                for b in report]
        _write_csv(output_path, [], ("M", "raw_bound", "clamped_bound"), rows)
        return
    raise TypeError(f"no plot schema for {type(report).__name__}")


# ---------------------------------------------------------------------------
# parameter plumbing


def _take(params: dict, name: str, kind, default=None, required: bool = False):
    if name not in params:
        if required:
            raise ConfigError(name, "missing required parameter")
        return default
    value = params[name]
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(name, f"must be an integer, got {value!r}")
        return value
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(name, f"must be a number, got {value!r}")
        return float(value)
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(name, f"must be a string, got {value!r}")
        return value
    if kind is list:
        if not isinstance(value, list):
            raise ConfigError(name, f"must be a list, got {value!r}")
        return value
    raise AssertionError(f"unknown parameter kind {kind}")


def _check_unknown(params: dict, allowed: Sequence[str]) -> None:
    for key in params:
        if key not in allowed:
            raise ConfigError(key, f"unknown parameter (allowed: {sorted(allowed)})")


def _map_spec(params: dict, n: int) -> BilinearMapSpec:
    name = _take(params, "map", str, required=True)
    if name not in _CLI_MAPS:
        raise ConfigError("map", f"must be one of {sorted(_CLI_MAPS)}, got {name!r}")
    return BilinearMapSpec(_CLI_MAPS[name], n)


def _cone(params: dict, index_key: str, kind_key: str, n: int) -> ConeSpec:
    indices = _take(params, index_key, list, required=True)
    if not all(isinstance(i, int) and not isinstance(i, bool) for i in indices):
        raise ConfigError(index_key, "must be a list of integers")
    kind = _take(params, kind_key, str, default=SUBSPACE)
    if kind not in CONE_KINDS:
        raise ConfigError(kind_key, f"must be one of {CONE_KINDS}, got {kind!r}")
    try:
        return ConeSpec(support_from_indices(indices, n), kind)
    except ValueError as exc:
        raise ConfigError(index_key, str(exc))


def _two_seeds(seed: int) -> Tuple[int, int]:
    a, b = np.random.SeedSequence(seed).generate_state(2)
    return int(a), int(b)


# ---------------------------------------------------------------------------
# command handlers: each returns (json payload, csv writer or None)

_CsvWriter = Optional[Callable[[str, Sequence[str]], None]]


def _run_rnmp(config: ExperimentConfig) -> Tuple[dict, _CsvWriter]:
    p = dict(config.parameters)
    _check_unknown(p, ("map", "n", "i", "j", "cone_x", "cone_y", "method",
                       "samples", "restarts", "grid_per_dim"))
    n = _take(p, "n", int, required=True)
    spec = _map_spec(p, n)
    cone_x = _cone(p, "i", "cone_x", n)
    cone_y = _cone(p, "j", "cone_y", n)
    method = _take(p, "method", str, default="grid")
    if method == "brute":
        est = estimate_brute(spec, cone_x, cone_y,
                             samples=_take(p, "samples", int, default=10_000),
                             seed=config.seed)
    elif method == "alternating":
        est = estimate_alternating(spec, cone_x, cone_y,
                                   restarts=_take(p, "restarts", int, default=8),
                                   seed=config.seed)
    elif method == "grid":
        est = certify_exhaustive(spec, cone_x, cone_y,
                                 grid_per_dim=_take(p, "grid_per_dim", int, default=64))
    else:
        raise ConfigError("method", f"must be brute, alternating or grid, got {method!r}")
    return est.to_json(), None


def _run_bounds(config: ExperimentConfig) -> Tuple[dict, _CsvWriter]:
    p = dict(config.parameters)
    _check_unknown(p, ("case", "S", "F", "delta", "M", "m_grid", "N",
                       "alpha", "beta", "p_target", "solve_samples"))
    case = _take(p, "case", str, required=True)
    if case not in CASES:
        raise ConfigError("case", f"must be one of {CASES}, got {case!r}")
    s = _take(p, "S", int, required=True)
    f = _take(p, "F", int, required=True)
    delta = _take(p, "delta", float, required=True)
    n = _take(p, "N", int)
    reports = None

    m_grid = _take(p, "m_grid", list)
    if m_grid is not None:
        if not all(isinstance(m, int) and not isinstance(m, bool) for m in m_grid):
            raise ConfigError("m_grid", "must be a list of integers")
        reports = [compose_bound_report(case, s, f, delta, m, n) for m in m_grid]
        payload: dict = {"reports": [r.to_json() for r in reports]}
    else:
        m = _take(p, "M", int, required=True)
        report = compose_bound_report(case, s, f, delta, m, n)
        reports = [report]
        payload = report.to_json()

    for key in ("alpha", "beta"):
        claimed = _take(p, key, float)
        if claimed is not None:
            actual = getattr(reports[0], key)
            if abs(claimed - actual) > 1e-12:
                raise ConfigError(key, f"case {case!r} implies {key}={actual!r}, "
                                       f"got {claimed!r}")

    if _take(p, "solve_samples", int, default=0):
        if n is None:
            raise ConfigError("N", "required when solve_samples is set")
        p_target = _take(p, "p_target", float, required=True)
        payload["sample_count"] = union_bound_samples(
            n, s, f, delta, p_target, case).to_json()

    the_reports = reports

    def write_csv(path: str, header: Sequence[str]) -> None:
        rows = [(b.m, b.success_probability_lower, b.success_probability_clamped)
                for b in the_reports]
        _write_csv(path, header, ("M", "raw_bound", "clamped_bound"), rows)

    return payload, write_csv


def _ensemble(p: dict, n: int, m_key: str, seed: int) -> MeasurementEnsemble:
    m = _take(p, m_key, int, required=True)
    kind = _take(p, "ensemble", str, default="gaussian")
    if kind not in ENSEMBLE_KINDS:
        raise ConfigError("ensemble", f"must be one of {ENSEMBLE_KINDS}, got {kind!r}")
    try:
        return MeasurementEnsemble(kind=kind, rows=m, cols=n, seed=seed)
    except ValueError as exc:
        raise ConfigError(m_key, str(exc))


def _run_rip_mc(config: ExperimentConfig) -> Tuple[dict, _CsvWriter]:
    p = dict(config.parameters)
    _check_unknown(p, ("map", "n", "i", "j", "cone_x", "cone_y", "ensemble",
                       "M", "n_samples", "delta"))
    n = _take(p, "n", int, required=True)
    spec = _map_spec(p, n)
    cone_x = _cone(p, "i", "cone_x", n)
    cone_y = _cone(p, "j", "cone_y", n)
    delta = _take(p, "delta", float, required=True)
    n_samples = _take(p, "n_samples", int, default=10_000)
    e_seed, s_seed = _two_seeds(config.seed)
    ensemble = _ensemble(p, n, "M", e_seed)
    report = rip_monte_carlo(spec, cone_x, cone_y, ensemble, n_samples,
                             delta, s_seed)

    def write_csv(path: str, header: Sequence[str]) -> None:
        rows = [(i, d) for i, d in enumerate(report.abs_distortions)]
        _write_csv(path, header, ("sample_index", "abs_distortion"), rows)

    return report.to_json(), write_csv


def _run_concentration(config: ExperimentConfig) -> Tuple[dict, _CsvWriter]:
    p = dict(config.parameters)
    _check_unknown(p, ("n", "M", "ensemble", "trials", "delta", "r"))
    n = _take(p, "n", int, required=True)
    trials = _take(p, "trials", int, required=True)
    delta = _take(p, "delta", float, required=True)
    ensemble = _ensemble(p, n, "M", config.seed)
    r_list = _take(p, "r", list)
    if r_list is None:
        r = np.zeros(n)
        r[0] = 1.0
    else:
        try:
            r = np.array([float(v) for v in r_list])
        except (TypeError, ValueError):
            raise ConfigError("r", "must be a list of numbers")
    result = concentration_test(r, ensemble, trials, delta)
    return result.to_json(), None


def _run_recover(config: ExperimentConfig) -> Tuple[dict, _CsvWriter]:
    p = dict(config.parameters)
    _check_unknown(p, ("map", "n", "i", "j", "cone_x", "cone_y", "ensemble",
                       "M", "noise_sigma", "algorithm", "k", "max_iters", "tol"))
    n = _take(p, "n", int, required=True)
    spec = _map_spec(p, n)
    cone_x = _cone(p, "i", "cone_x", n)
    cone_y = _cone(p, "j", "cone_y", n)
    model = BilinearModel(spec, cone_x, cone_y)
    algorithm = _take(p, "algorithm", str, default="iht")
    if algorithm not in ("iht", "oracle"):
        raise ConfigError("algorithm", f"must be iht or oracle, got {algorithm!r}")
    noise_sigma = _take(p, "noise_sigma", float, default=0.0)
    e_seed, s_seed = _two_seeds(config.seed)
    ensemble = _ensemble(p, n, "M", e_seed)
    problem = simulate_problem(model, generate(ensemble), noise_sigma, s_seed)
    if algorithm == "oracle":
        result = oracle_least_squares(problem, output_support(model))
    else:
        k = _take(p, "k", int, default=model_sparsity(model))
        result = iht(problem, k,
                     max_iters=_take(p, "max_iters", int, default=500),
                     tol=_take(p, "tol", float, default=1e-8))
    return result.to_json(), None


def _run_phase(config: ExperimentConfig) -> Tuple[dict, _CsvWriter]:
    p = dict(config.parameters)
    _check_unknown(p, ("map", "n", "S", "F", "cone_kind", "m_grid", "trials",
                       "delta_success"))
    n = _take(p, "n", int, required=True)
    spec = _map_spec(p, n)
    s = _take(p, "S", int, required=True)
    f = _take(p, "F", int, required=True)
    cone_kind = _take(p, "cone_kind", str, default=SUBSPACE)
    if cone_kind not in CONE_KINDS:
        raise ConfigError("cone_kind", f"must be one of {CONE_KINDS}, got {cone_kind!r}")
    m_grid = _take(p, "m_grid", list, required=True)
    if not all(isinstance(m, int) and not isinstance(m, bool) for m in m_grid):
        raise ConfigError("m_grid", "must be a list of integers")
    trials = _take(p, "trials", int, required=True)
    delta_success = _take(p, "delta_success", float, default=1e-3)
    result = phase_transition(spec, n, s, f, cone_kind, m_grid, trials,
                              delta_success=delta_success, seed=config.seed)

    def write_csv(path: str, header: Sequence[str]) -> None:
        rows = [(result.n, result.s, result.f, result.cone_kind, c.m,
                 c.trials, c.successes, c.rate) for c in result.cells]
        _write_csv(path, header,
                   ("N", "S", "F", "cone_kind", "M", "trials", "successes", "rate"),
                   rows)

    return result.to_json(), write_csv


_HANDLERS: Dict[str, Callable[[ExperimentConfig], Tuple[dict, _CsvWriter]]] = {
    "rnmp": _run_rnmp,
    "bounds": _run_bounds,
    "rip-mc": _run_rip_mc,
    "concentration": _run_concentration,
    "recover": _run_recover,
    "phase": _run_phase,
}


def run(config: ExperimentConfig) -> int:
    """Execute a validated config; returns the process exit status."""
    try:
        payload, csv_writer = _HANDLERS[config.command](config)
        if config.format == "csv":
            if csv_writer is None:
                raise ConfigError("format",
                                  f"command {config.command!r} has no CSV schema; use json")
            csv_writer(config.output_path, _config_header(config))
        else:
            document = {"version": __version__, "config": config.echo(),
                        "result": payload}
            with open(config.output_path, "w") as fh:
                fh.write(json_text(document) + "\n")
    except ConfigError as exc:
        sys.stderr.write(json.dumps(
            {"error": {"kind": "config", "field": exc.field,
                       "message": exc.message}}) + "\n")
        return 2
    except (ValueError, OSError) as exc:
        sys.stderr.write(json.dumps(
            {"error": {"kind": "runtime", "message": str(exc)}}) + "\n")
        return 1
    return 0


# built once, as main may run many configs in one process
_PARSER = argparse.ArgumentParser(
    prog="bilinear-cs",
    description="Seeded experiments on sparse bilinear maps: norm bounds, "
                "random-projection distortion, and recovery.")
_PARSER.add_argument("--config", required=True, help="JSON experiment config")
_PARSER.add_argument("--seed", type=int, default=None,
                     help="override the config's seed")
_PARSER.add_argument("--output", default=None, help="override the output path")
_PARSER.add_argument("--format", choices=FORMATS, default=None,
                     help="override the output format")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        config = load_config(args.config, seed_override=args.seed,
                             output_override=args.output,
                             format_override=args.format)
    except ConfigError as exc:
        sys.stderr.write(json.dumps(
            {"error": {"kind": "config", "field": exc.field,
                       "message": exc.message}}) + "\n")
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
