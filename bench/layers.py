"""Per-layer spans for the traced benchmark run.

The tracer wraps the public functions of each `bilinear_cs` module from
outside: it rebinds the name in the defining module and in every module
that imported it, and puts the originals back on exit.  Untraced runs
never install it.  Each wrapped call is one span with busy time (its
duration) and self time (busy time minus the busy time of the traced
spans it caused).  A call made while a span of the same layer is open is
part of that span, so nested calls inside one layer, such as the
bounds helpers, count once.
"""

from __future__ import annotations

import inspect
import sys
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from checks import IHT_SUCCESS


def _arg(name: str) -> Callable:
    """Counter that reads one (possibly defaulted) argument of the call."""
    return lambda bound, result: bound.arguments[name]


def _grid_pairs(bound, result) -> int:
    g = bound.arguments["grid_per_dim"]
    rows = [1 if c.dim == 1 else g ** (c.dim - 1)
            for c in (bound.arguments["cone_x"], bound.arguments["cone_y"])]
    return rows[0] * rows[1]


def _phase_trials(bound, result) -> int:
    return len(bound.arguments["m_grid"]) * bound.arguments["trials"]


def _iht_success(bound, result) -> int:
    return int(result.relative_error is not None and result.relative_error <= IHT_SUCCESS)


# layer key -> (module, function names, {counter: fn(bound args, result)})
LAYERS = {
    "sparse_model.unit_cone_directions": ("sparse_model", ("unit_cone_directions",),
                                          {"rows": lambda b, r: r.shape[0]}),
    "bilinear_ops.apply_map": ("bilinear_ops", ("apply_map",), {}),
    "bilinear_ops.apply_map_batch": ("bilinear_ops", ("apply_map_batch",),
                                     {"rows": lambda b, r: r.shape[0]}),
    "rnmp.estimate_brute": ("rnmp", ("estimate_brute",), {"samples": _arg("samples")}),
    "rnmp.estimate_alternating": ("rnmp", ("estimate_alternating",),
                                  {"converged": lambda b, r: int(r.converged)}),
    "rnmp.matricize": ("rnmp", ("matricize",), {}),
    "rnmp.certify_exhaustive": ("rnmp", ("certify_exhaustive",), {"grid_pairs": _grid_pairs}),
    "bounds": ("bounds", ("d_constant", "c0", "covering_bound", "rip_probability",
                          "application_probability", "compose_bound_report",
                          "union_bound_samples"), {}),
    "sensing.concentration_test": ("sensing", ("concentration_test",), {"trials": _arg("trials")}),
    "sensing.rip_monte_carlo": ("sensing", ("rip_monte_carlo",), {"samples": _arg("n_samples")}),
    "sensing.generate": ("sensing", ("generate",),
                         {"entries": lambda b, r: r.size}),
    "recovery.simulate_problem": ("recovery", ("simulate_problem",), {}),
    "recovery.oracle_least_squares": ("recovery", ("oracle_least_squares",), {}),
    "recovery.iht": ("recovery", ("iht",),
                     {"iterations": lambda b, r: r.iterations,
                      "diverged": lambda b, r: int(r.diverged), "successes": _iht_success}),
    "recovery.phase_transition": ("recovery", ("phase_transition",), {"trials": _phase_trials}),
}


class Tracer:
    """Spans and counters per layer, for one traced pass at a time."""

    def __init__(self):
        self.stats: Dict[str, Dict[str, float]] = {}
        self._stack: List[list] = []
        self._restore: List[tuple] = []

    def reset(self) -> None:
        self.stats = {}

    def call(self, key: str, fn: Callable, *args, counters: Optional[dict] = None,
             signature: Optional[inspect.Signature] = None, **kwargs):
        """Run fn as one span of layer `key`."""
        if self._stack and self._stack[-1][0] == key:
            return fn(*args, **kwargs)
        frame = [key, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            busy = time.perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += busy
            st = self.stats.setdefault(key, {"calls": 0, "s": 0.0, "self_s": 0.0})
            st["calls"] += 1
            st["s"] += busy
            st["self_s"] += busy - frame[1]
        if counters:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            for name, count in counters.items():
                st[name] = st.get(name, 0) + count(bound, result)
        return result

    def _wrap(self, key: str, fn: Callable, counters: dict) -> Callable:
        signature = inspect.signature(fn)

        def wrapped(*args, **kwargs):
            return self.call(key, fn, *args, counters=counters, signature=signature, **kwargs)
        wrapped.__wrapped__ = fn
        return wrapped

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "bilinear_cs" or name.startswith("bilinear_cs.")) and m is not None]
        for key, (module_name, names, counters) in LAYERS.items():
            home = sys.modules[f"bilinear_cs.{module_name}"]
            for name in names:
                original = getattr(home, name, None)
                if original is None:  # a function a later version removed is an idle layer
                    continue
                wrapped = self._wrap(key, original, counters)
                for module in modules:
                    if getattr(module, name, None) is original:
                        setattr(module, name, wrapped)
                        self._restore.append((module, name, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._restore):
            setattr(module, name, original)
        self._restore = []


# metric stat -> the counter it divides by the layer's calls
_RATIOS = {"converged_ratio": "converged", "success_ratio": "successes"}


def layer_metrics(passes: List[Dict[str, Dict[str, float]]], names: List[str]) -> Dict[str, float]:
    """Metrics named `layer.stat` from the stats of each traced pass:
    counts from the first pass, times as the median over passes."""
    first = passes[0]

    def count(key, stat):
        return first.get(key, {}).get(stat, 0)

    def seconds(key, stat):
        return float(np.median([p.get(key, {}).get(stat, 0.0) for p in passes]))

    values = {}
    for name in names:
        key, stat = name.rsplit(".", 1)
        counters = {"bytes_written"} if key == "cli" else set(LAYERS[key][2])
        if stat in ("s", "self_s"):
            values[name] = seconds(key, stat)
        elif stat in _RATIOS:
            calls = count(key, "calls")
            values[name] = count(key, _RATIOS[stat]) / calls if calls else 0.0
        elif stat == "us_per_trial":
            trials = count(key, "trials")
            values[name] = seconds(key, "s") / trials * 1e6 if trials else 0.0
        elif stat == "calls" or stat in counters:
            values[name] = count(key, stat)
        else:
            raise ValueError(f"no layer statistic {name}")
    return values
