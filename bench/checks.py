"""Output predicates that any correct `bilinear-cs` run satisfies.

`check_output` looks at one output file against the config that made it
and returns the broken predicates (empty when the output is correct)
plus the facts the batch-level checks and the counters need.  The
predicates follow from the mathematics, not from this program's code:

rnmp           0 <= alpha <= beta <= sqrt(min(S, F)); each witness is a
               unit vector on its cone and reproduces its constant (the
               image is recomputed here by FFT); properly separated
               convolution pairs give alpha = beta = 1; positive-orthant
               convolution pairs give alpha >= 1.
recover        noiseless oracle: relative error <= 1e-9 and the estimate
               lives on the true output support; IHT: at most k nonzeros.
concentration  pooled per shape (`pooled_problems`): the violation rate
               stays below 2 exp(-c0 M), and for gaussian matrices matches
               the exact chi-square rate, within Chernoff bands that a
               correct program crosses with probability below 1e-6.
bounds         the closed-form failure mass, clamping, monotonicity in M
               and the minimality of the solved sample count.
rip-mc, phase  counts and rates that agree with each other.

Agreement of brute or alternating estimates with the grid is reported
as a counter (`agree_dev_max`), never as a failure.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

WITNESS_TOL = 1e-6
ORACLE_TOL = 1e-9
IHT_SUCCESS = 1e-3
# chance per run that a correct program fails the pooled concentration check
POOLED_FALSE_ALARM = 1e-6

QUANTILE_LEVELS = [0.5, 0.9, 0.99]


def c0(delta: float) -> float:
    return (3.0 * delta ** 2 - delta ** 3) / 48.0


def _image(map_name: str, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if map_name == "pointwise":
        return x * y
    return np.real(np.fft.ifft(np.fft.fft(x) * np.fft.fft(y)))


def _sumset(i: Sequence[int], j: Sequence[int], n: int) -> set:
    return {(a + b) % n for a in i for b in j}


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def _rnmp(p: dict, r: dict) -> List[str]:
    bad = []
    n, i, j = p["n"], p["i"], p["j"]
    alpha, beta = r["alpha_est"], r["beta_est"]
    top = math.sqrt(min(len(i), len(j)))
    if not 0.0 <= alpha <= beta <= top * (1 + 1e-12):
        bad.append(f"need 0 <= alpha <= beta <= {top}, got {alpha}, {beta}")
    for name, value in (("alpha", alpha), ("beta", beta)):
        x = np.asarray(r[f"{name}_witness_x"], dtype=float)
        y = np.asarray(r[f"{name}_witness_y"], dtype=float)
        for vec, support, kind in ((x, i, p["cone_x"]), (y, j, p["cone_y"])):
            outside = np.delete(vec, support)
            if vec.shape != (n,) or np.any(outside != 0.0) or abs(np.linalg.norm(vec) - 1) > WITNESS_TOL:
                bad.append(f"{name} witness is not a unit vector on its support")
            elif kind == "positive_orthant" and np.any(vec < 0):
                bad.append(f"{name} witness leaves the positive orthant")
        if not bad:
            ratio = np.linalg.norm(_image(p["map"], x, y)) / (np.linalg.norm(x) * np.linalg.norm(y))
            if abs(ratio - value) > WITNESS_TOL:
                bad.append(f"{name} witness gives {ratio}, reported {value}")
    if p["map"] == "circular_convolution":
        if len(_sumset(i, j, n)) == len(i) * len(j) and \
                max(abs(alpha - 1), abs(beta - 1)) > WITNESS_TOL:
            bad.append(f"separated pair must give alpha = beta = 1, got {alpha}, {beta}")
        if p["cone_x"] == p["cone_y"] == "positive_orthant" and alpha < 1 - WITNESS_TOL:
            bad.append(f"positive-orthant convolution needs alpha >= 1, got {alpha}")
    return bad


_CASE_BASE = {
    "pointwise": lambda s, f, d: (12.0 / d, min(s, f)),
    "positive_cone_conv": lambda s, f, d: (378.0 * math.sqrt(min(s, f)) / d, s + f),
    "tensor_conv": lambda s, f, d: (36.0 / d, s + f),
}


def _bound_rows(p: dict, rows: Sequence[Tuple[int, float, float]]) -> List[str]:
    bad = []
    base, exponent = _CASE_BASE[p["case"]](p["S"], p["F"], p["delta"])
    for m, raw, clamped in rows:
        mass = 2.0 * base ** exponent * math.exp(-c0(p["delta"]) * m)
        if abs(raw - (1.0 - mass)) > 1e-9 * max(1.0, mass):
            bad.append(f"raw bound {raw} at M={m}, closed form {1.0 - mass}")
        if clamped != min(1.0, max(0.0, raw)):
            bad.append(f"clamped bound {clamped} is not clamp({raw})")
    ms = [row[0] for row in rows]
    expected = p["m_grid"] if "m_grid" in p else [p["M"]]
    if ms != expected:
        bad.append(f"rows for M={ms}, asked {expected}")
    clamped = [row[2] for row in sorted(rows)]
    if any(b < a for a, b in zip(clamped, clamped[1:])):
        bad.append("bound falls as M grows")
    return bad


def _sample_count(p: dict, sc: dict) -> List[str]:
    n, s, f, delta = p["N"], p["S"], p["F"], p["delta"]
    base, exponent = _CASE_BASE[p["case"]](s, f, delta)
    log_pairs = sum(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                    for k in (s, f))
    need = (math.log(2.0) + log_pairs + exponent * math.log(base)
            - math.log(p["p_target"])) / c0(delta)
    m = sc["m"]
    if not (need <= m + 1e-9 and (m == 1 or need > m - 1 - 1e-9)) or m > sc["m_loose"]:
        return [f"sample count {m} is not the least M with mass <= p_target (need {need})"]
    return []


def _bounds(p: dict, doc) -> List[str]:
    if isinstance(doc, list):  # CSV rows
        return _bound_rows(p, [(int(r[0]), float(r[1]), float(r[2])) for r in doc])
    reports = doc["reports"] if "m_grid" in p else [doc]
    bad = _bound_rows(p, [(b["inputs"]["m"], b["success_probability_lower"],
                           b["success_probability_clamped"]) for b in reports])
    if not all(_close(b["c0"], c0(p["delta"]), 1e-12) for b in reports):
        bad.append("c0 differs from (3 delta^2 - delta^3) / 48")
    if p.get("solve_samples"):
        bad += _sample_count(p, doc["sample_count"])
    return bad


def _rip_mc(p: dict, doc) -> List[str]:
    if isinstance(doc, list):
        values = [float(r[1]) for r in doc]
        if not 1 <= len(doc) <= p["n_samples"] or \
                [int(r[0]) for r in doc] != list(range(len(doc))) or min(values) < 0:
            return ["CSV rows are not an index and nonnegative distortions"]
        return []
    bad = []
    if doc["n_samples"] + doc["skipped"] != p["n_samples"]:
        bad.append("n_samples + skipped differs from the samples asked")
    levels = [q for q, _ in doc["quantiles"]]
    values = [v for _, v in doc["quantiles"]] + [doc["max_abs_distortion"]]
    if levels != QUANTILE_LEVELS or values[0] < 0 or \
            any(b < a for a, b in zip(values, values[1:])):
        bad.append(f"quantiles {doc['quantiles']} are not ordered below the max")
    if not 0 <= doc["exceed_count"] <= doc["n_samples"] or (doc["m"], doc["n"]) != (p["M"], p["n"]):
        bad.append("exceed count or shape out of range")
    return bad


def _concentration(p: dict, r: dict) -> List[str]:
    if not 0 <= r["violations"] <= r["trials"] == p["trials"] or r["m"] != p["M"] or \
            r["empirical_rate"] != r["violations"] / r["trials"]:
        return ["violations, trials and rate disagree"]
    if not _close(r["theory_rate"], 2.0 * math.exp(-c0(p["delta"]) * p["M"]), 1e-12):
        return [f"ceiling {r['theory_rate']} is not 2 exp(-c0 M)"]
    return []


def _recover(p: dict, r: dict) -> List[str]:
    z = np.asarray(r["z_hat"], dtype=float)
    if z.shape != (p["n"],) or r["relative_error"] is None:
        return ["estimate has the wrong length or no error"]
    nonzero = set(int(k) for k in np.flatnonzero(z))
    if p["algorithm"] == "oracle":
        if p["map"] == "pointwise":
            support = set(p["i"]) & set(p["j"])
        else:
            support = _sumset(p["i"], p["j"], p["n"])
        if not p.get("noise_sigma") and r["relative_error"] > ORACLE_TOL:
            return [f"noiseless oracle error {r['relative_error']} > {ORACLE_TOL}"]
        if not nonzero <= support:
            return ["oracle estimate leaves the output support"]
        return []
    if len(nonzero) > p["k"]:
        return [f"IHT estimate has {len(nonzero)} nonzeros, k = {p['k']}"]
    if not 1 <= r["iterations"] <= p["max_iters"]:
        return [f"IHT ran {r['iterations']} iterations"]
    return []


def _cells(doc) -> List[dict]:
    if isinstance(doc, list):
        return [{"m": int(row[4]), "trials": int(row[5]), "successes": int(row[6]),
                 "rate": float(row[7])} for row in doc]
    return doc["cells"]


def _phase(p: dict, doc) -> List[str]:
    cells = _cells(doc)
    if [c["m"] for c in cells] != p["m_grid"] or any(
            c["trials"] != p["trials"] or not 0 <= c["successes"] <= c["trials"]
            or c["rate"] != c["successes"] / c["trials"] for c in cells):
        return ["phase cells disagree with the grid or with their counts"]
    return []


_CHECKS = {"rnmp": _rnmp, "bounds": _bounds, "rip-mc": _rip_mc,
           "concentration": _concentration, "recover": _recover, "phase": _phase}

_CSV_COLUMNS = {"bounds": "M,raw_bound,clamped_bound",
                "rip-mc": "sample_index,abs_distortion",
                "phase": "N,S,F,cone_kind,M,trials,successes,rate"}


def parse(config: dict, text: str):
    """The result block of a JSON output, or the data rows of a CSV one."""
    if config["format"] == "json":
        doc = json.loads(text)
        echo = doc["config"]
        if (echo["command"], echo["parameters"], echo["seed"]) != \
                (config["command"], config["parameters"], config["seed"]):
            raise ValueError("output echoes another config")
        return doc["result"]
    lines = [line for line in text.splitlines() if not line.startswith("# ")]
    if not lines or lines[0] != _CSV_COLUMNS[config["command"]]:
        raise ValueError("CSV has the wrong columns")
    return [line.split(",") for line in lines[1:]]


def check_output(config: dict, text: str) -> Tuple[List[str], dict]:
    """(broken predicates, facts) for one output."""
    try:
        doc = parse(config, text)
        return _CHECKS[config["command"]](config["parameters"], doc), _facts(config, doc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"], {"command": config["command"]}


def _facts(config: dict, doc) -> dict:
    p, command = config["parameters"], config["command"]
    facts = {"command": command}
    if command == "rnmp":
        facts.update(pair=(p["map"], p["n"], tuple(p["i"]), tuple(p["j"]), p["cone_x"], p["cone_y"]),
                     method=p["method"], alpha=doc["alpha_est"], beta=doc["beta_est"],
                     converged=doc["converged"])
    elif command == "concentration":
        facts.update(shape=(p["n"], p["M"], p["ensemble"], p["delta"]),
                     violations=doc["violations"], trials=doc["trials"])
    elif command == "recover":
        facts.update(algorithm=p["algorithm"], iterations=doc["iterations"],
                     diverged=doc["diverged"], success=doc["relative_error"] <= IHT_SUCCESS)
    elif command == "phase":
        facts.update(successes=sum(c["successes"] for c in _cells(doc)))
    elif command == "rip-mc" and isinstance(doc, dict):
        facts.update(skipped=doc["skipped"], exceed=doc["exceed_count"])
    return facts


def _chi2_cdf(k: int, x: float) -> float:
    """P(chi^2_k <= x), by the series of the regularized lower incomplete
    gamma function; absolute error about 1e-13 for k <= 500."""
    a, h = k / 2.0, x / 2.0
    if h <= 0:
        return 0.0
    term = total = 1.0 / a
    n = 0
    while term > 1e-17 * total:
        n += 1
        term *= h / (a + n)
        total += term
    return min(1.0, math.exp(a * math.log(h) - h - math.lgamma(a)) * total)


def gaussian_violation_rate(m: int, delta: float) -> float:
    """Exact chance that | |Phi r| / |r| - 1 | > delta / 2 for gaussian
    N(0, 1/M) entries, where M |Phi r|^2 / |r|^2 is chi-square with M
    degrees of freedom."""
    return (_chi2_cdf(m, m * (1 - delta / 2) ** 2)
            + 1.0 - _chi2_cdf(m, m * (1 + delta / 2) ** 2))


def _kl(q: float, p: float) -> float:
    """Kullback-Leibler divergence of Bernoulli(q) from Bernoulli(p)."""
    p = min(max(p, 1e-300), 1 - 1e-16)
    out = q * math.log(q / p) if q > 0 else 0.0
    return out + ((1 - q) * math.log((1 - q) / (1 - p)) if q < 1 else 0.0)


def pooled_problems(facts: Sequence[dict]) -> List[str]:
    """Concentration rates pooled per (n, M, ensemble, delta).

    The rate must not exceed the 2 exp(-c0 M) ceiling, and for gaussian
    matrices it must match the exact chi-square rate from both sides.
    Each test uses the Chernoff bound P(rate >= q) <= exp(-T KL(q || p)),
    with the false-alarm budget split evenly over all tests, so a correct
    program fails with probability below POOLED_FALSE_ALARM per run."""
    pooled: Dict[tuple, List[int]] = {}
    for fact in facts:
        if fact["command"] == "concentration" and "shape" in fact:
            tally = pooled.setdefault(fact["shape"], [0, 0])
            tally[0] += fact["violations"]
            tally[1] += fact["trials"]
    budget = math.log(3 * max(1, len(pooled)) / POOLED_FALSE_ALARM)
    bad = []
    for (n, m, ensemble, delta), (violations, trials) in sorted(pooled.items()):
        rate = violations / trials
        ceiling = 2.0 * math.exp(-c0(delta) * m)
        where = f"{ensemble} {m}x{n} at delta={delta}: rate {rate} over {trials} trials"
        if rate > ceiling and trials * _kl(rate, ceiling) > budget:
            bad.append(f"{where} exceeds the ceiling {ceiling}")
        if ensemble == "gaussian":
            exact = gaussian_violation_rate(m, delta)
            if trials * _kl(rate, exact) > budget:
                bad.append(f"{where} differs from the exact gaussian rate {exact}")
    return bad


def agree_dev_max(facts: Sequence[dict]) -> float:
    """Largest |estimate - grid| of alpha or beta over pairs run by the
    grid and by another estimator."""
    grid = {f["pair"]: f for f in facts if f.get("method") == "grid"}
    devs = [max(abs(f["alpha"] - grid[f["pair"]]["alpha"]), abs(f["beta"] - grid[f["pair"]]["beta"]))
            for f in facts if f.get("method") in ("brute", "alternating") and f["pair"] in grid]
    return max(devs, default=0.0)


def counters(facts: Sequence[dict]) -> dict:
    """Deterministic counts over one pass, from the outputs alone."""
    out: Dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for f in facts:
        add(f"configs.{f['command']}", 1)
        for key in ("violations", "trials", "iterations", "successes", "skipped", "exceed"):
            if key in f:
                add(f"{f['command']}.{key}", f[key])
        if f.get("method") == "alternating":
            add("rnmp.alternating_converged", int(f["converged"]))
        if f.get("algorithm") == "iht":
            add("recover.iht_diverged", int(f["diverged"]))
            add("recover.iht_success", int(f["success"]))
    out["rnmp.agree_dev_max"] = agree_dev_max(facts)
    return dict(sorted(out.items()))
