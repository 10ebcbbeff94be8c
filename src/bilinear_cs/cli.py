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

# json.dumps of a str, without building an encoder per call
_quote = json.encoder.encode_basestring_ascii


def json_text(obj) -> str:
    """JSON with sorted keys and floats at 17 significant digits."""
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isinf(x) or math.isnan(x):
            raise ValueError("non-finite float in output payload")
        return format(x, ".17g")
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, dict):
        inner = ", ".join(_quote(str(k)) + ": " + json_text(v) for k, v in sorted(obj.items()))
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        # flat float or int lists (witnesses, samples) in one join
        if all(type(v) is float for v in obj):
            inner = ", ".join([format(v, ".17g") for v in obj])
            if "n" in inner:  # inf or nan; finite floats print no n
                raise ValueError("non-finite float in output payload")
            return "[" + inner + "]"
        if all(type(v) is int for v in obj):
            return "[" + ", ".join(map(str, obj)) + "]"
        return "[" + ", ".join(json_text(v) for v in obj) + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if obj is None:
        return "null"
    if isinstance(obj, np.ndarray):
        return json_text(obj.tolist())
    raise TypeError(f"cannot serialize {type(obj).__name__}")


_Table = Mapping[str, Sequence]  # a CSV table: column name -> cells, in order


def _column_text(column: Sequence) -> list:
    """One CSV column: floats at 17 significant digits, str otherwise."""
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        return [format(v, ".17g") for v in column.tolist()]
    return [format(float(v), ".17g") if isinstance(v, (float, np.floating)) else str(v)
            for v in column]


def _write_csv(path: str, header_lines: Sequence[str], table: _Table) -> None:
    """Write a table column by column, in one write."""
    texts = [_column_text(c) for c in table.values()]
    lines = [f"# {line}" for line in header_lines] + [",".join(table)]
    lines += map(",".join, zip(*texts))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _config_header(config: ExperimentConfig) -> list:
    return [f"version={__version__}"] + [
        f"{key}={json_text(value) if isinstance(value, dict) else value}"
        for key, value in sorted(config.echo().items())]


def _distortion_table(report: DistortionReport) -> _Table:
    return {"sample_index": range(report.abs_distortions.size),
            "abs_distortion": report.abs_distortions}


def _bounds_table(reports: Sequence[BoundReport]) -> _Table:
    return {"M": [b.m for b in reports],
            "raw_bound": [b.success_probability_lower for b in reports],
            "clamped_bound": [b.success_probability_clamped for b in reports]}


def emit_plot_data(report, output_path: str) -> None:
    """Flatten a report into plotting CSV.

    DistortionReport -> (sample_index, abs_distortion); phase result ->
    (M, rate); a sequence of BoundReports -> (M, raw_bound,
    clamped_bound).
    """
    if isinstance(report, DistortionReport):
        table = _distortion_table(report)
    elif isinstance(report, PhaseTransitionResult):
        table = {"M": [c.m for c in report.cells], "rate": [c.rate for c in report.cells]}
    elif isinstance(report, Sequence) and report and \
            all(isinstance(b, BoundReport) for b in report):
        table = _bounds_table(report)
    else:
        raise TypeError(f"no plot schema for {type(report).__name__}")
    _write_csv(output_path, [], table)


# ---------------------------------------------------------------------------
# parameter plumbing


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _take(params: dict, name: str, kind, default=None, required: bool = False):
    if name not in params:
        if required:
            raise ConfigError(name, "missing required parameter")
        return default
    value = params[name]
    if kind is int:
        if not _is_int(value):
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


def _count(params: dict, name: str, default: int, least: int) -> int:
    value = _take(params, name, int, default=default)
    if value < least:
        raise ConfigError(name, f"must be >= {least}, got {value}")
    return value


def _int_list(params: dict, name: str, required: bool = False) -> Optional[list]:
    value = _take(params, name, list, required=required)
    if value is not None and not (value and all(map(_is_int, value))):
        raise ConfigError(name, "must be a non-empty list of integers")
    return value


def _check_unknown(params: dict, allowed: Sequence[str]) -> None:
    for key in params:
        if key not in allowed:
            raise ConfigError(key, f"unknown parameter (allowed: {sorted(allowed)})")


def _map_spec(params: dict, n: int) -> BilinearMapSpec:
    name = _take(params, "map", str, required=True)
    if name not in _CLI_MAPS:
        raise ConfigError("map", f"must be one of {sorted(_CLI_MAPS)}, got {name!r}")
    return BilinearMapSpec(_CLI_MAPS[name], n)


def _cone_kind(params: dict, key: str) -> str:
    kind = _take(params, key, str, default=SUBSPACE)
    if kind not in CONE_KINDS:
        raise ConfigError(key, f"must be one of {CONE_KINDS}, got {kind!r}")
    return kind


def _cone(params: dict, index_key: str, kind_key: str, n: int) -> ConeSpec:
    indices = _int_list(params, index_key, required=True)
    kind = _cone_kind(params, kind_key)
    try:
        return ConeSpec(support_from_indices(indices, n), kind)
    except ValueError as exc:
        raise ConfigError(index_key, str(exc))


def _map_and_cones(params: dict) -> Tuple[int, BilinearMapSpec, ConeSpec, ConeSpec]:
    n = _take(params, "n", int, required=True)
    return (n, _map_spec(params, n), _cone(params, "i", "cone_x", n),
            _cone(params, "j", "cone_y", n))


def _two_seeds(seed: int) -> Tuple[int, int]:
    a, b = np.random.SeedSequence(seed).generate_state(2)
    return int(a), int(b)


# ---------------------------------------------------------------------------
# command handlers: each returns (json payload, csv table or None)


def _run_rnmp(config: ExperimentConfig) -> Tuple[dict, Optional[_Table]]:
    p = dict(config.parameters)
    _check_unknown(p, ("map", "n", "i", "j", "cone_x", "cone_y", "method",
                       "samples", "restarts", "grid_per_dim"))
    _, spec, cone_x, cone_y = _map_and_cones(p)
    method = _take(p, "method", str, default="grid")
    if method == "brute":
        est = estimate_brute(spec, cone_x, cone_y,
                             samples=_count(p, "samples", 10_000, 1),
                             seed=config.seed)
    elif method == "alternating":
        est = estimate_alternating(spec, cone_x, cone_y,
                                   restarts=_count(p, "restarts", 8, 1),
                                   seed=config.seed)
    elif method == "grid":
        est = certify_exhaustive(spec, cone_x, cone_y,
                                 grid_per_dim=_count(p, "grid_per_dim", 64, 3))
    else:
        raise ConfigError("method", f"must be brute, alternating or grid, got {method!r}")
    return est.to_json(), None


def _run_bounds(config: ExperimentConfig) -> Tuple[dict, Optional[_Table]]:
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
    m_grid = _int_list(p, "m_grid")
    if m_grid is not None:
        reports = [compose_bound_report(case, s, f, delta, m, n) for m in m_grid]
        payload: dict = {"reports": [r.to_json() for r in reports]}
    else:
        m = _take(p, "M", int, required=True)
        reports = [compose_bound_report(case, s, f, delta, m, n)]
        payload = reports[0].to_json()

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

    return payload, _bounds_table(reports)


def _ensemble(p: dict, n: int, m_key: str, seed: int) -> MeasurementEnsemble:
    m = _take(p, m_key, int, required=True)
    kind = _take(p, "ensemble", str, default="gaussian")
    if kind not in ENSEMBLE_KINDS:
        raise ConfigError("ensemble", f"must be one of {ENSEMBLE_KINDS}, got {kind!r}")
    try:
        return MeasurementEnsemble(kind=kind, rows=m, cols=n, seed=seed)
    except ValueError as exc:
        raise ConfigError(m_key, str(exc))


def _run_rip_mc(config: ExperimentConfig) -> Tuple[dict, Optional[_Table]]:
    p = dict(config.parameters)
    _check_unknown(p, ("map", "n", "i", "j", "cone_x", "cone_y", "ensemble",
                       "M", "n_samples", "delta"))
    n, spec, cone_x, cone_y = _map_and_cones(p)
    delta = _take(p, "delta", float, required=True)
    n_samples = _count(p, "n_samples", 10_000, 1)
    e_seed, s_seed = _two_seeds(config.seed)
    ensemble = _ensemble(p, n, "M", e_seed)
    report = rip_monte_carlo(spec, cone_x, cone_y, ensemble, n_samples,
                             delta, s_seed)
    return report.to_json(), _distortion_table(report)


def _run_concentration(config: ExperimentConfig) -> Tuple[dict, Optional[_Table]]:
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


def _run_recover(config: ExperimentConfig) -> Tuple[dict, Optional[_Table]]:
    p = dict(config.parameters)
    _check_unknown(p, ("map", "n", "i", "j", "cone_x", "cone_y", "ensemble",
                       "M", "noise_sigma", "algorithm", "k", "max_iters", "tol"))
    n, spec, cone_x, cone_y = _map_and_cones(p)
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
                     max_iters=_count(p, "max_iters", 500, 1),
                     tol=_take(p, "tol", float, default=1e-8))
    return result.to_json(), None


def _run_phase(config: ExperimentConfig) -> Tuple[dict, Optional[_Table]]:
    p = dict(config.parameters)
    _check_unknown(p, ("map", "n", "S", "F", "cone_kind", "m_grid", "trials",
                       "delta_success"))
    n = _take(p, "n", int, required=True)
    spec = _map_spec(p, n)
    s = _take(p, "S", int, required=True)
    f = _take(p, "F", int, required=True)
    cone_kind = _cone_kind(p, "cone_kind")
    m_grid = _int_list(p, "m_grid", required=True)
    trials = _take(p, "trials", int, required=True)
    delta_success = _take(p, "delta_success", float, default=1e-3)
    result = phase_transition(spec, n, s, f, cone_kind, m_grid, trials,
                              delta_success=delta_success, seed=config.seed)
    cells = result.cells
    return result.to_json(), {
        "N": [result.n] * len(cells), "S": [result.s] * len(cells),
        "F": [result.f] * len(cells), "cone_kind": [result.cone_kind] * len(cells),
        "M": [c.m for c in cells], "trials": [c.trials for c in cells],
        "successes": [c.successes for c in cells], "rate": [c.rate for c in cells]}


_HANDLERS: Dict[str, Callable[[ExperimentConfig], Tuple[dict, Optional[_Table]]]] = {
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
        payload, table = _HANDLERS[config.command](config)
        if config.format == "csv":
            if table is None:
                raise ConfigError("format",
                                  f"command {config.command!r} has no CSV schema; use json")
            _write_csv(config.output_path, _config_header(config), table)
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
