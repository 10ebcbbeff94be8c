"""Config batches for the benchmark workloads.

A batch is a list of JSON experiment configs for the `bilinear-cs`
runner.  It is a pure function of (workload, seed): the seed picks the
supports and the per-config seeds, while the shapes and the per-config
knobs are fixed, so every seed asks for about the same work.  Configs
name relative output paths (`out/NNNN.json|csv`); the runner is started
from the batch directory, so the outputs, which echo their config, are
byte-identical wherever the batch is run.

Shapes follow the README examples and the acceptance criteria:

conditioning          a stratified quarter of the circular-convolution
                      subspace pairs of criterion 10 at N <= 5, each
                      through grid, alternating and brute with the
                      criterion's knobs; plus pointwise and positive-orthant
                      pairs and a few `bounds` configs.
measurement_recovery  `concentration` in equal gaussian and rademacher
                      halves of the same shapes, `rip-mc` in JSON and CSV
                      with four N = 256 batches of 20000 samples, noiseless
                      oracle least squares on circular convolution, blind
                      IHT on pointwise positive-orthant cones (criterion
                      08) and `phase` sweeps the size of the README example.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from typing import List

import numpy as np

WORKLOADS = ("conditioning", "measurement_recovery")

# the per-config knobs of criterion 10: grid points per angle by the
# larger cone dimension and alternating restarts; brute at 3 * 10^4
# samples, between the first two rungs of the criterion's ladder
GRID_BY_DIM = {1: 8, 2: 240, 3: 120, 4: 40}
RESTARTS = 8
BRUTE_SAMPLES = 30_000
# share of each (N, |I|, |J|) class of the 820 pairs at N <= 5 that a
# batch samples; all of them take about 22 s a pass
PAIR_SHARE = 1 / 4
# support sizes of the pointwise and positive-orthant pairs, |I| + |J| <= 5
# as in criterion 10, so that no seed draws a larger grid than another
PAIR_SIZES = ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (2, 3), (3, 2))

# (N, M, delta); the exact gaussian violation rates are 4.4e-2, 4.5e-3, 7.6e-6, 6.5e-5
CONCENTRATION_SHAPES = ((128, 32, 0.5), (128, 64, 0.5), (256, 64, 0.8), (256, 128, 0.5))
# trials of the configs of one (shape, ensemble); the ladder spreads their
# run times so that no latency percentile sits on a jump between kinds of work
CONCENTRATION_TRIALS = (100, 150, 200, 250)

RECOVERY_N, RECOVERY_M = 256, 64


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2 ** 31))


def _support(rng: np.random.Generator, n: int, size: int) -> List[int]:
    return sorted(int(i) for i in rng.choice(n, size=size, replace=False))


def _subsets(n: int):
    return [c for r in range(1, min(4, n) + 1) for c in itertools.combinations(range(n), r)]


def small_convolution_pairs(n: int):
    """Support pairs of criterion 10 at ambient dimension n."""
    return [(i, j) for i in _subsets(n) for j in _subsets(n) if len(i) + len(j) <= 5]


def _rnmp_trio(rng, map_name, n, i, j, cone_x="subspace", cone_y="subspace"):
    base = {"map": map_name, "n": n, "i": list(i), "j": list(j),
            "cone_x": cone_x, "cone_y": cone_y}
    grid = GRID_BY_DIM[max(len(i), len(j))]
    knobs = (("grid", {"grid_per_dim": grid}), ("alternating", {"restarts": RESTARTS}),
             ("brute", {"samples": BRUTE_SAMPLES}))
    return [("rnmp", {**base, "method": method, **knob}, _seed(rng), "json")
            for method, knob in knobs]


def _conditioning(rng):
    specs = []
    pairs = []
    for n in (2, 3, 4, 5):
        by_class = {}
        for i, j in small_convolution_pairs(n):
            by_class.setdefault((len(i), len(j)), []).append((i, j))
        for key in sorted(by_class):
            group = by_class[key]
            picks = rng.choice(len(group), size=math.ceil(PAIR_SHARE * len(group)),
                               replace=False)
            pairs += [(n,) + group[p] for p in sorted(picks)]
    for n, i, j in pairs:
        specs += _rnmp_trio(rng, "circular_convolution", n, i, j)

    # 16 pointwise pairs on random cone kinds, then 16 positive-orthant
    # convolution pairs; only the supports are random
    kinds = ("subspace", "positive_orthant")
    for c in range(32):
        n = 3 + c % 3
        s, f = PAIR_SIZES[c % len(PAIR_SIZES)]
        i, j = _support(rng, n, s), _support(rng, n, f)
        if c < 16:
            specs += _rnmp_trio(rng, "pointwise", n, i, j,
                                kinds[int(rng.integers(2))], kinds[int(rng.integers(2))])
        else:
            specs += _rnmp_trio(rng, "circular_convolution", n, i, j,
                                "positive_orthant", "positive_orthant")

    cases = ("pointwise", "positive_cone_conv", "tensor_conv")
    for b in range(12):
        s, f = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        params = {"case": cases[b % 3], "S": s, "F": f,
                  "delta": float(rng.choice([0.3, 0.5, 0.8]))}
        if b % 2:
            params["M"] = int(rng.integers(100, 20_000))
            params.update({"N": int(rng.integers(s * f, 2048)), "solve_samples": 1,
                           "p_target": float(rng.choice([1e-2, 1e-3, 1e-6]))})
            specs.append(("bounds", params, 0, "json"))
        else:
            params["m_grid"] = sorted(int(m) for m in rng.choice(20_000, size=8, replace=False) + 1)
            specs.append(("bounds", params, 0, "csv" if b % 4 else "json"))
    return specs


def _measurement(rng):
    specs = []
    for n, m, delta in CONCENTRATION_SHAPES:
        for ensemble in ("gaussian", "rademacher"):
            for trials in CONCENTRATION_TRIALS:
                specs.append(("concentration",
                              {"n": n, "M": m, "ensemble": ensemble,
                               "trials": trials, "delta": delta},
                              _seed(rng), "json"))

    ensembles = ("gaussian", "rademacher")
    kinds = ("subspace", "positive_orthant")
    for c in range(44):
        large = c < 4
        n = 256 if large else 64
        i = _support(rng, n, 3)
        # pointwise images need overlapping supports to be nonzero
        j = sorted(set(_support(rng, n, 2)) | {i[0]}) if c % 2 else _support(rng, n, 3)
        params = {"map": "pointwise" if c % 2 else "circular_convolution", "n": n,
                  "i": i, "j": j, "cone_x": kinds[int(rng.integers(2))],
                  "cone_y": kinds[int(rng.integers(2))],
                  "ensemble": ensembles[(c // 2) % 2], "M": 64 if large else 16 * (1 + c % 2),
                  "n_samples": 20_000 if large else 1_000 + 50 * c, "delta": 0.3}
        specs.append(("rip-mc", params, _seed(rng), "csv" if c % 4 >= 2 else "json"))
    return specs


def _recovery(rng):
    specs = []
    n, m = RECOVERY_N, RECOVERY_M
    for c in range(20):
        specs.append(("recover",
                      {"map": "circular_convolution", "n": n, "i": _support(rng, n, 4),
                       "j": _support(rng, n, 4), "ensemble": ("gaussian", "rademacher")[c % 2],
                       "M": m, "algorithm": "oracle"},
                      _seed(rng), "json"))
    for c in range(40):
        # 16 + 16 positive-orthant supports overlapping in 8 places
        i = _support(rng, n, 16)
        rest = sorted(set(range(n)) - set(i))
        j = sorted(i[k] for k in rng.choice(16, size=8, replace=False))
        j = sorted(j + [rest[k] for k in rng.choice(len(rest), size=8, replace=False)])
        params = {"map": "pointwise", "n": n, "i": i, "j": j,
                  "cone_x": "positive_orthant", "cone_y": "positive_orthant",
                  "ensemble": "gaussian", "M": m, "algorithm": "iht", "k": 16,
                  "max_iters": 1000}
        if c % 4 == 3:
            params["noise_sigma"] = 1e-3
        specs.append(("recover", params, _seed(rng), "json"))
    # the README's phase example, and its blind pointwise positive-orthant twin
    for map_name, cone_kind, fmt in (("circular_convolution", "subspace", "csv"),
                                     ("pointwise", "positive_orthant", "json")):
        specs.append(("phase",
                      {"map": map_name, "n": 32, "S": 2, "F": 2, "cone_kind": cone_kind,
                       "m_grid": [4, 8, 16, 32], "trials": 20},
                      _seed(rng), fmt))
    return specs


_GENERATORS = {"conditioning": _conditioning,
               "measurement_recovery": lambda rng: _measurement(rng) + _recovery(rng)}


def batch(workload: str, seed: int) -> List[dict]:
    """The workload's configs for this seed, in run order."""
    if workload not in _GENERATORS:
        raise ValueError(f"workload must be one of {WORKLOADS}, got {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return [{"schema": 1, "command": command, "parameters": params, "seed": cfg_seed,
             "output": f"out/{k:04d}.{fmt}", "format": fmt}
            for k, (command, params, cfg_seed, fmt) in enumerate(_GENERATORS[workload](rng))]


def digest(configs: List[dict]) -> str:
    """SHA-256 of a batch, to check that processes generate the same one."""
    return hashlib.sha256(json.dumps(configs, sort_keys=True).encode()).hexdigest()


def write_batch(workload: str, seed: int, directory: str) -> List[str]:
    """Write the batch as cfg/NNNN.json under `directory`; returns the
    config paths relative to it."""
    os.makedirs(os.path.join(directory, "cfg"), exist_ok=True)
    os.makedirs(os.path.join(directory, "out"), exist_ok=True)
    paths = []
    for k, config in enumerate(batch(workload, seed)):
        path = os.path.join("cfg", f"{k:04d}.json")
        with open(os.path.join(directory, path), "w") as fh:
            json.dump(config, fh, sort_keys=True)
        paths.append(path)
    return paths
