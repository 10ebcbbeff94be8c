"""Batch experiment runner: every module as a subcommand.

One binary, JSON configs, deterministic outputs.  A config is one plain
mapping of six keys (`_CONFIG`): the schema, a command (rnmp | bounds |
rip-mc | concentration | recover | phase), its parameters (`_COMMANDS`,
which names the method, algorithm or `solve_samples: 1` each knob is
used with), a seed, an output path and a format.  `run` checks it once
by `_CONFIG` and its parameters once by the command's table, by one rule
(`_checked`) that rejects an unknown key or a knob used with another
method.
Outputs embed the checked config plus the package version so a result
file is its own provenance record; there are no timestamps, so the same
config produces byte-identical files.

Floats are printed as their shortest round-trip repr everywhere (JSON
and CSV), so doubles, -0.0 included, read back bit for bit.  Exit
codes: 0 success, 2 bad config (the failing field is named), 1 runtime
failure; errors go to stderr as a one-line JSON record.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import operator
import sys
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .bilinear_ops import CIRCULAR_CONVOLUTION, POINTWISE, BilinearMapSpec
from .bounds import CASES, compose_bound_report, union_bound_samples
from .recovery import (BilinearModel, PhaseTransitionResult, RecoveryResult, iht,
                       model_sparsity, oracle_least_squares, output_support,
                       phase_transition, simulate_problem)
from .rnmp import RnmpEstimate, certify_exhaustive, estimate_alternating, estimate_brute
from .sensing import (ENSEMBLE_KINDS, GAUSSIAN, ConcentrationResult, DistortionReport,
                      MeasurementEnsemble, concentration_test, generate, rip_monte_carlo)
from .sparse_model import CONE_KINDS, SUBSPACE, ConeSpec, support_from_indices

SCHEMA_VERSION = 1
FORMATS = ("json", "csv")

_CLI_MAPS = {"pointwise": POINTWISE, "circular_convolution": CIRCULAR_CONVOLUTION}


class ConfigError(ValueError):
    """Config rejection that names the offending field."""

    def __init__(self, config_field: str, message: str):
        super().__init__(f"{config_field}: {message}")
        self.field = config_field
        self.message = message


def load_config(path: str, seed_override: Optional[int] = None,
                output_override: Optional[str] = None,
                format_override: Optional[str] = None) -> dict:
    """The config file at `path` as a mapping, each override that is not
    None in place of its key; `run` checks it."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config", "top level must be an object")
    overrides = {"seed": seed_override, "output": output_override, "format": format_override}
    return {**raw, **{k: v for k, v in overrides.items() if v is not None}}


# ---------------------------------------------------------------------------
# deterministic serialization


@functools.cache
def _json_keys(cls) -> tuple:
    """(JSON key, field name) of each field of a dataclass type that its
    JSON holds: the key `field(metadata={"json": key})` names, by default
    the field's own name, and no field marked `{"json": False}` (per-sample
    arrays, which go only to CSV).  Cached per type: each fresh
    `dataclasses.fields` tuple leaves one more tuple on CPython's free
    list, up to 2000 of each size."""
    return tuple((f.metadata.get("json", f.name), f.name) for f in dataclasses.fields(cls)
                 if f.metadata.get("json") is not False)


def _plain(obj):
    """What json.dumps writes for a value it has no rule for: an array's
    list, a numpy scalar's Python value, or a dataclass's fields under
    their JSON keys (`_json_keys`)."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if dataclasses.is_dataclass(obj):
        return {key: getattr(obj, name) for key, name in _json_keys(type(obj))}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def json_text(obj) -> str:
    """JSON with sorted keys and each float as its shortest round-trip
    repr; a non-finite float raises ValueError."""
    return json.dumps(obj, sort_keys=True, allow_nan=False, default=_plain)


_Table = Mapping[str, Sequence]  # a CSV table: column name -> cells, in order
_CSV_ROWS = 4096  # rows formatted and written at a time


def _column_text(column: Sequence) -> list:
    """One CSV column: floats as their shortest round-trip repr, str otherwise."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "fiu":
        return list(map(repr, column.tolist()))  # a Python int's repr is its str
    if isinstance(column, range):
        return list(map(str, column))
    return [repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in column]


def _write_csv(path: str, header_lines: Sequence[str], table: _Table) -> None:
    """Write the header lines and the column names, then the rows in chunks
    of `_CSV_ROWS`, each formatted column by column: no text spans the table."""
    rows = min(map(len, table.values()), default=0)
    with open(path, "w") as fh:
        fh.write("".join(f"# {line}\n" for line in header_lines) + ",".join(table) + "\n")
        for start in range(0, rows, _CSV_ROWS):
            texts = [_column_text(c[start:start + _CSV_ROWS]) for c in table.values()]
            fh.write("\n".join(map(",".join, zip(*texts))) + "\n")


def _config_header(config: Mapping) -> list:
    return [f"version={__version__}"] + [
        f"{key}={json_text(value) if isinstance(value, dict) else value}"
        for key, value in sorted(config.items())]


# ---------------------------------------------------------------------------
# field tables

REQUIRED = object()  # the default of a field that must be set


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A JSON number that is a finite double: NaN, infinities and ints
    beyond the double range fail the comparison."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


# what each field kind accepts, and how a rejection names it
_KINDS = {
    "int": (_is_int, "an integer"),
    "float": (_is_number, "a finite number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "path": (lambda v: isinstance(v, str) and bool(v), "a non-empty string"),
    "object": (lambda v: isinstance(v, dict), "an object"),
    "ints": (lambda v: isinstance(v, list) and bool(v) and all(map(_is_int, v)),
             "a non-empty list of integers"),
    "floats": (lambda v: isinstance(v, list) and bool(v) and all(map(_is_number, v)),
               "a non-empty list of finite numbers"),
}


# a table maps field -> (kind, default, check[, owner]); a check is a
# tuple of the allowed values, comparisons such as ">= 1" or "> 0, < 1"
# that a number (each entry of a list) must pass, or None; an owner
# (field, value) is the one setting of another field that uses this one
_COMPARE = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}
_MAP = {"map": ("str", REQUIRED, tuple(_CLI_MAPS)), "n": ("int", REQUIRED, ">= 1")}
_CONES = {"i": ("ints", REQUIRED, None), "j": ("ints", REQUIRED, None),
          "cone_x": ("str", SUBSPACE, CONE_KINDS), "cone_y": ("str", SUBSPACE, CONE_KINDS)}
_ENSEMBLE = {"ensemble": ("str", GAUSSIAN, ENSEMBLE_KINDS), "M": ("int", REQUIRED, ">= 1")}
_DELTA = ("float", REQUIRED, "> 0, < 1")
_IHT = ("algorithm", "iht")


def _checked(fields: Mapping, given: Mapping, what: str) -> dict:
    """`given` by the table `fields`: unknown keys rejected, each given
    field checked once, defaults filled in, numbers of kind float made
    floats; then, so that a field out of its range is named first, a
    field given under another setting than its owner's rejected."""
    for key in given:
        if key not in fields:
            raise ConfigError(key, f"unknown {what} (allowed: {sorted(fields)})")
    p = {}
    for name, (kind, default, check, *_) in fields.items():
        if name not in given:
            if default is REQUIRED:
                raise ConfigError(name, f"missing required {what}")
            p[name] = default
            continue
        value = given[name]
        accepts, what_kind = _KINDS[kind]
        if not accepts(value):
            raise ConfigError(name, f"must be {what_kind}, got {value!r}")
        if isinstance(check, tuple) and value not in check:
            raise ConfigError(name, f"must be one of {check}, got {value!r}")
        if isinstance(check, str) and not all(
                _COMPARE[op](v, float(bound)) for v in (value if kind == "ints" else [value])
                for op, bound in (c.split() for c in check.split(", "))):
            raise ConfigError(name, f"must be {check}, got {value!r}")
        p[name] = float(value) if kind == "float" else value
    for name in given:
        for key, value in fields[name][3:]:  # the field's owner, if it has one
            if p[key] != value:
                raise ConfigError(name, f"used only with {key} = {value!r}, got {p[key]!r}")
    return p


def _cone(p: dict, index_key: str, kind_key: str) -> ConeSpec:
    if len(set(p[index_key])) < len(p[index_key]):
        raise ConfigError(index_key, f"repeats an index: {p[index_key]!r}")
    try:
        return ConeSpec(support_from_indices(p[index_key], p["n"]), p[kind_key])
    except ValueError as exc:
        raise ConfigError(index_key, str(exc))


def _map_and_cones(p: dict) -> Tuple[BilinearMapSpec, ConeSpec, ConeSpec]:
    return (BilinearMapSpec(_CLI_MAPS[p["map"]], p["n"]), _cone(p, "i", "cone_x"),
            _cone(p, "j", "cone_y"))


def _ensemble(p: dict, seed: int) -> MeasurementEnsemble:
    try:
        return MeasurementEnsemble(kind=p["ensemble"], rows=p["M"], cols=p["n"], seed=seed)
    except ValueError as exc:
        raise ConfigError("M", str(exc))


def _two_seeds(seed: int) -> Tuple[int, int]:
    a, b = np.random.SeedSequence(seed).generate_state(2)
    return int(a), int(b)


# ---------------------------------------------------------------------------
# command handlers: each takes the checked fields and the seed, and
# returns (result for json_text, csv table or None)


def _run_rnmp(p: dict, seed: int) -> Tuple[RnmpEstimate, None]:
    spec, cone_x, cone_y = _map_and_cones(p)
    if p["method"] == "brute":
        est = estimate_brute(spec, cone_x, cone_y, samples=p["samples"], seed=seed)
    elif p["method"] == "alternating":
        est = estimate_alternating(spec, cone_x, cone_y, restarts=p["restarts"], seed=seed)
    else:
        try:
            est = certify_exhaustive(spec, cone_x, cone_y, grid_per_dim=p["grid_per_dim"])
        except ValueError as exc:  # the grid-size guard
            raise ConfigError("grid_per_dim", str(exc))
    return est, None


def _run_bounds(p: dict, seed: int) -> Tuple[dict, _Table]:
    case, s, f, delta, n = p["case"], p["S"], p["F"], p["delta"], p["N"]
    if (p["m_grid"] is None) == (p["M"] is None):
        raise ConfigError("M", "set exactly one of M and m_grid")
    if n is not None and s * f > n:
        raise ConfigError("N", f"the sparse model needs S*F <= N, got {s}*{f} > {n}")
    reports = [compose_bound_report(case, s, f, delta, m, n) for m in p["m_grid"] or [p["M"]]]
    payload = {"reports": reports} if p["m_grid"] else _plain(reports[0])
    if p["solve_samples"]:
        for key in ("N", "p_target"):
            if p[key] is None:
                raise ConfigError(key, "required when solve_samples is set")
        payload["sample_count"] = union_bound_samples(
            n, s, f, delta, p["p_target"], case)

    return payload, {"M": [b.inputs.m for b in reports],
                     "raw_bound": [b.success_probability_lower for b in reports],
                     "clamped_bound": [b.success_probability_clamped for b in reports]}


def _run_rip_mc(p: dict, seed: int) -> Tuple[DistortionReport, _Table]:
    spec, cone_x, cone_y = _map_and_cones(p)
    e_seed, s_seed = _two_seeds(seed)
    report = rip_monte_carlo(spec, cone_x, cone_y, _ensemble(p, e_seed), p["n_samples"],
                             p["delta"], s_seed)
    return report, {"sample_index": range(report.abs_distortions.size),
                              "abs_distortion": report.abs_distortions}


def _run_concentration(p: dict, seed: int) -> Tuple[ConcentrationResult, None]:
    ensemble = _ensemble(p, seed)
    if p["r"] is None:
        r = np.zeros(p["n"])
        r[0] = 1.0
    else:
        r = np.array([float(v) for v in p["r"]])
        if r.shape != (p["n"],) or not r.any():
            raise ConfigError("r", f"must be n = {p['n']} numbers, not all 0, got {p['r']!r}")
    return concentration_test(r, ensemble, p["trials"], p["delta"]), None


def _run_recover(p: dict, seed: int) -> Tuple[RecoveryResult, None]:
    model = BilinearModel(*_map_and_cones(p))
    if p["k"] is not None and p["k"] > p["M"]:
        raise ConfigError("k", f"must not exceed M = {p['M']}, got {p['k']}")
    e_seed, s_seed = _two_seeds(seed)
    problem = simulate_problem(model, generate(_ensemble(p, e_seed)), p["noise_sigma"], s_seed)
    if p["algorithm"] == "oracle":
        result = oracle_least_squares(problem, output_support(model))
    else:
        k = model_sparsity(model) if p["k"] is None else p["k"]
        result = iht(problem, k, max_iters=p["max_iters"], tol=p["tol"])
    return result, None


def _run_phase(p: dict, seed: int) -> Tuple[PhaseTransitionResult, _Table]:
    for key, most in (("S", p["S"]), ("F", p["F"]), ("m_grid", max(p["m_grid"]))):
        if most > p["n"]:
            raise ConfigError(key, f"must not exceed n = {p['n']}, got {p[key]!r}")
    spec = BilinearMapSpec(_CLI_MAPS[p["map"]], p["n"])
    result = phase_transition(spec, p["S"], p["F"], p["cone_kind"], p["m_grid"], p["trials"],
                              delta_success=p["delta_success"], seed=seed)
    cells = result.cells
    return result, {
        "N": [result.n] * len(cells), "S": [result.s] * len(cells),
        "F": [result.f] * len(cells), "cone_kind": [result.cone_kind] * len(cells),
        "M": [c.m for c in cells], "trials": [c.trials for c in cells],
        "successes": [c.successes for c in cells], "rate": [c.rate for c in cells]}


# each command once: (handler, whether it writes CSV, its parameter table)
_COMMANDS = {
    "rnmp": (_run_rnmp, False, {
        **_MAP, **_CONES, "method": ("str", "grid", ("brute", "alternating", "grid")),
        "samples": ("int", 10_000, ">= 1", ("method", "brute")),
        "restarts": ("int", 8, ">= 1", ("method", "alternating")),
        "grid_per_dim": ("int", 64, ">= 3", ("method", "grid"))}),
    "bounds": (_run_bounds, True, {
        "case": ("str", REQUIRED, CASES), "S": ("int", REQUIRED, ">= 2"),
        "F": ("int", REQUIRED, ">= 2"), "delta": _DELTA, "M": ("int", None, ">= 1"),
        "m_grid": ("ints", None, ">= 1"), "N": ("int", None, ">= 1"),
        "p_target": ("float", None, "> 0, <= 1", ("solve_samples", 1)),
        "solve_samples": ("int", 0, (0, 1))}),
    "rip-mc": (_run_rip_mc, True, {
        **_MAP, **_CONES, **_ENSEMBLE, "n_samples": ("int", 10_000, ">= 1"),
        "delta": _DELTA}),
    "concentration": (_run_concentration, False, {
        "n": ("int", REQUIRED, ">= 1"), **_ENSEMBLE, "trials": ("int", REQUIRED, ">= 100"),
        "delta": _DELTA, "r": ("floats", None, None)}),
    "recover": (_run_recover, False, {
        **_MAP, **_CONES, **_ENSEMBLE, "noise_sigma": ("float", 0.0, ">= 0"),
        "algorithm": ("str", "iht", ("iht", "oracle")), "k": ("int", None, ">= 1", _IHT),
        "max_iters": ("int", 500, ">= 1", _IHT), "tol": ("float", 1e-8, "> 0", _IHT)}),
    "phase": (_run_phase, True, {
        **_MAP, "S": ("int", REQUIRED, ">= 1"), "F": ("int", REQUIRED, ">= 1"),
        "cone_kind": ("str", SUBSPACE, CONE_KINDS), "m_grid": ("ints", REQUIRED, ">= 1"),
        "trials": ("int", REQUIRED, ">= 1"), "delta_success": ("float", 1e-3, "> 0")}),
}
COMMANDS = tuple(_COMMANDS)
# the six top-level fields of a config
_CONFIG = {"schema": ("int", REQUIRED, (SCHEMA_VERSION,)), "command": ("str", REQUIRED, COMMANDS),
           "parameters": ("object", REQUIRED, None), "seed": ("int", 0, ">= 0"),
           "output": ("path", REQUIRED, None), "format": ("str", "json", FORMATS)}


def _fail(exc: Exception) -> int:
    """Write the error to stderr as a one-line JSON record; returns the
    exit status: 2 for a bad config, 1 for a runtime failure."""
    if isinstance(exc, ConfigError):
        code, record = 2, {"kind": "config", "field": exc.field, "message": exc.message}
    else:
        code, record = 1, {"kind": "runtime", "message": str(exc)}
    sys.stderr.write(json.dumps({"error": record}) + "\n")
    return code


def run(config: Mapping) -> int:
    """Check a config mapping by `_CONFIG` (which fills in seed 0 and
    format "json"), then its parameters by the command's table, and
    execute it; returns the process exit status.  The output embeds the
    checked mapping."""
    try:
        config = _checked(_CONFIG, config, "top-level key")
        handler, csv, fields = _COMMANDS[config["command"]]
        if config["format"] == "csv" and not csv:
            raise ConfigError("format",
                              f"command {config['command']!r} has no CSV schema; use json")
        payload, table = handler(_checked(fields, config["parameters"], "parameter"),
                                 config["seed"])
        if config["format"] == "csv":
            _write_csv(config["output"], _config_header(config), table)
        else:
            document = {"version": __version__, "config": config, "result": payload}
            with open(config["output"], "w") as fh:
                fh.write(json_text(document) + "\n")
    except (ValueError, OSError, OverflowError, MemoryError) as exc:
        return _fail(exc)
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
        return _fail(exc)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
