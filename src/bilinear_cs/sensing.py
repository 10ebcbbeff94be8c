"""Random measurement ensembles and empirical isometry experiments.

Covers four jobs: generating sub-Gaussian measurement matrices
(gaussian N(0, 1/M) or scaled Rademacher entries), measuring per-vector
distortion |Phi z| / |z| - 1, Monte Carlo sweeps of that distortion over
images of bilinear maps, and the single-vector concentration experiment
(how often |Phi r| strays from |r| by more than delta/2, against the
2 exp(-c0 M) ceiling).

Concentration trials draw from per-trial child streams spawned off the
master seed (seeded in one vectorized pass), so trial t is reproducible
in any execution order and results merge associatively; distortion
sweeps draw their cone pairs from `rnmp.cone_pair_blocks`.  All of it
runs single-threaded; the stream layout is what makes parallel runs legal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .bilinear_ops import BilinearMapSpec
from .bounds import c0
from .rnmp import basis_images, cone_pair_blocks
from .sparse_model import DEGENERATE_NORM, ConeSpec

GAUSSIAN = "gaussian"
RADEMACHER = "rademacher"
ENSEMBLE_KINDS = (GAUSSIAN, RADEMACHER)

# dense Phi guard: M*N entries materialized
_SIZE_GUARD = 10 ** 7

# levels of the |distortion| quantiles a DistortionReport carries
QUANTILE_LEVELS = (0.5, 0.9, 0.99)

# numpy SeedSequence's hash constants: hashmix, mix and generate_state
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


@dataclass(frozen=True)
class MeasurementEnsemble:
    """Spec for an M x N random measurement matrix.

    gaussian: i.i.d. N(0, 1/M) entries.  rademacher: i.i.d. +-1/sqrt(M)
    with equal probability.  Requires M <= N (compression, not
    expansion).
    """

    kind: str
    rows: int
    cols: int
    seed: int

    def __post_init__(self):
        if self.kind not in ENSEMBLE_KINDS:
            raise ValueError(f"kind must be one of {ENSEMBLE_KINDS}, got {self.kind!r}")
        if self.rows < 1:
            raise ValueError(f"rows must be >= 1, got {self.rows}")
        if self.rows > self.cols:
            raise ValueError(f"need rows <= cols, got {self.rows} > {self.cols}")
        if self.rows * self.cols > _SIZE_GUARD:
            raise ValueError(
                f"{self.rows}x{self.cols} exceeds the dense-matrix guard ({_SIZE_GUARD} entries)")


def _draw(kind: str, rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    if kind == GAUSSIAN:
        return rng.standard_normal((rows, cols)) / math.sqrt(rows)
    # not random_raw: a shared rng may hold a buffered 32-bit half, which integers uses first
    signs = rng.integers(0, 2, size=(rows, cols)).astype(np.float64)
    return (2.0 * signs - 1.0) / math.sqrt(rows)


def generate(ensemble: MeasurementEnsemble) -> np.ndarray:
    """Materialize the ensemble's matrix.  Deterministic in the seed."""
    rng = np.random.default_rng(ensemble.seed)
    return _draw(ensemble.kind, ensemble.rows, ensemble.cols, rng)


def orthonormal_rows(rows: int, cols: int, seed: int) -> np.ndarray:
    """M x N matrix with exactly orthonormal rows (QR of a gaussian
    draw).  An exact isometry on its row space; the M = N control case."""
    if rows > cols:
        raise ValueError(f"need rows <= cols, got {rows} > {cols}")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
    return q[:rows]


@dataclass(frozen=True, eq=False)
class DistortionReport:
    """Monte Carlo distortion statistics for one fixed matrix.

    `n_samples` counts evaluated samples; `skipped` the degenerate draws
    (output norm below DEGENERATE_NORM).  `quantiles` are (q, value) pairs
    of |distortion|; `exceed_count` is how many samples had |distortion| >
    delta.  The raw per-sample |distortion| array rides along for
    plotting but stays out of the JSON payload.
    """

    n_samples: int
    skipped: int
    max_abs_distortion: float
    quantiles: Tuple[Tuple[float, float], ...]
    exceed_count: int
    delta: float
    m: int
    n: int
    sample_seed: int
    ensemble_seed: Optional[int]
    abs_distortions: np.ndarray = field(metadata={"json": False})

    def __post_init__(self):
        if self.exceed_count > self.n_samples:
            raise ValueError("exceed_count cannot exceed n_samples")
        self.abs_distortions.setflags(write=False)


def rip_monte_carlo(map_spec: BilinearMapSpec,
                    cone_x: ConeSpec,
                    cone_y: ConeSpec,
                    ensemble: Union[MeasurementEnsemble, np.ndarray],
                    n_samples: int,
                    delta: float,
                    seed: int) -> DistortionReport:
    """Sample unit cone pairs, push them through the map, and record
    |distortion| of the images under one fixed matrix realization.

    The pairs are `estimate_brute`'s at the same seed, taken block by
    block from `rnmp.cone_pair_blocks` with their images on the output
    support, K of the N coordinates; each block's Phi z is measured with
    the K columns of Phi, so no array spans N or the whole sweep (save
    the distortions).  Each norm sums its image's squares over the K
    coordinates in order.  Phi z keeps the bits of the full-length
    product while the support lies in one 256-wide block of OpenBLAS's
    gemm (always at N <= 256) and more than one sample of its block is
    measured, else it may differ in the last bit.

    `ensemble` may be a MeasurementEnsemble or an explicit M x N matrix
    (e.g. orthonormalized rows for the isometry control).  Outputs with
    norm below DEGENERATE_NORM are skipped and counted; if everything
    degenerates that's an error, not an empty report.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if isinstance(ensemble, MeasurementEnsemble):
        if ensemble.cols != map_spec.ambient_dim:
            raise ValueError(f"ensemble cols {ensemble.cols} != ambient dim "
                             f"{map_spec.ambient_dim}")
        phi = generate(ensemble)
        ensemble_seed: Optional[int] = ensemble.seed
    else:
        phi = np.asarray(ensemble, dtype=np.float64)
        if phi.ndim != 2 or phi.shape[1] != map_spec.ambient_dim:
            raise ValueError(f"explicit matrix must be M x {map_spec.ambient_dim}, "
                             f"got shape {phi.shape}")
        ensemble_seed = None

    images = basis_images(map_spec, cone_x.support, cone_y.support)
    parts, skipped = [], 0
    for _, _, support, zs, norms in cone_pair_blocks(images, cone_x, cone_y, n_samples, seed):
        keep = norms >= DEGENERATE_NORM
        if not keep.all():
            skipped += int(np.sum(~keep))
            zs, norms = zs[keep], norms[keep]
        parts.append(np.abs(np.linalg.norm(zs @ phi[:, support].T, axis=1) / norms - 1.0))
    abs_dist = np.concatenate(parts)
    if not abs_dist.size:
        raise ValueError(f"all sampled outputs were degenerate (norm < {DEGENERATE_NORM}); "
                         "the cone pair looks null under this map")
    qs = tuple(zip(QUANTILE_LEVELS, np.quantile(abs_dist, QUANTILE_LEVELS).tolist()))
    return DistortionReport(
        n_samples=int(abs_dist.size),
        skipped=skipped,
        max_abs_distortion=float(np.max(abs_dist)),
        quantiles=qs,
        exceed_count=int(np.sum(abs_dist > delta)),
        delta=delta,
        m=phi.shape[0],
        n=phi.shape[1],
        sample_seed=seed,
        ensemble_seed=ensemble_seed,
        abs_distortions=abs_dist,
    )


@dataclass(frozen=True, eq=False)
class ConcentrationResult:
    """Outcome of the single-vector concentration experiment.

    `ratios` holds the per-trial |Phi r| / |r| values (kept for
    diagnostics, not serialized); theory_rate is the raw ceiling
    2 exp(-c0(delta) M), which can exceed 1 at small M.
    """

    empirical_rate: float
    theory_rate: float
    violations: int
    trials: int
    delta: float
    m: int
    seed: int
    ratios: np.ndarray = field(metadata={"json": False})

    def __post_init__(self):
        self.ratios.setflags(write=False)


@dataclass
class _SeedWords(ISeedSequence):
    """SFC64's three seed words: one row of `_spawned_sfc64_states`."""

    words: np.ndarray

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _spawned_sfc64_states(seed: int, n: int) -> np.ndarray:
    """(n, 3) uint64 array whose row t is `SeedSequence(seed).spawn(n)[t]
    .generate_state(3, np.uint64)`: the spawn key t hashed into the
    parent's pool (after its 16 + 4 max(0, w - 4) hashmix calls for a
    w-word seed), then hashed out, for all t at once in wrapping uint32."""
    if n >= 2 ** 32:
        raise ValueError(f"spawn keys are one 32-bit word: need n < 2**32, got {n}")
    pool = np.random.SeedSequence(seed).pool  # validates the seed
    k = 16 + 4 * max(0, (int(seed).bit_length() + 31) // 32 - 4)  # w: the seed in 32-bit words
    # hashmix: xor hash constant i, multiply by constant i + 1, xorshift by 16
    a = np.array([_INIT_A * pow(_MULT_A, i, 2**32) % 2**32 for i in range(k, k + 5)], np.uint32)
    b = np.array([_INIT_B * pow(_MULT_B, i, 2**32) % 2**32 for i in range(7)], np.uint32)
    h = (np.arange(n, dtype=np.uint32)[:, None] ^ a[:-1]) * a[1:]
    pool = _MIX_L * pool - _MIX_R * (h ^ h >> 16)
    pool ^= pool >> 16
    h = (pool[:, [0, 1, 2, 3, 0, 1]] ^ b[:-1]) * b[1:]  # six words, cycling the pool
    # word pairs, low word first, as generate_state joins them
    return np.ascontiguousarray(h ^ h >> 16, dtype="<u4").view("<u8").astype(np.uint64)


def concentration_test(r: np.ndarray,
                       ensemble_template: MeasurementEnsemble,
                       trials: int,
                       delta: float) -> ConcentrationResult:
    """Fraction of independent matrix draws with | |Phi r| - |r| | >
    (delta/2) |r|, against the ceiling 2 exp(-c0(delta) M).

    The template's seed is the master seed; trial t uses the t-th
    spawned child stream (SFC64 here for throughput; the stream layout,
    not the bit generator, is what fixes reproducibility).  Needs
    100 <= trials < 2**32 so the empirical rate means anything.

    Gaussian trials draw Phi r itself, not Phi: with i.i.d. N(0, 1/M)
    entries, Phi r ~ N(0, |r|^2/M I_M) exactly, so |Phi r| / |r| has
    the law of |g| / sqrt(M) for g ~ N(0, I_M), and a trial costs M
    normals instead of M*N.  Rademacher Phi r has no such closed form,
    so those trials draw the raw SFC64 words of the full M x N sign
    matrix, as `integers(0, 2)` would bit for bit (a test pins this),
    and decode only the M |supp(r)| signs that meet r's nonzeros.
    """
    if trials < 100:
        raise ValueError(f"trials must be >= 100, got {trials}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    r = np.asarray(r, dtype=np.float64)
    if r.shape != (ensemble_template.cols,):
        raise ValueError(f"r must have length {ensemble_template.cols}, "
                         f"got shape {r.shape}")
    if not np.isfinite(r).all():
        raise ValueError("r must be finite")
    norm_r = float(np.linalg.norm(r))
    if norm_r == 0.0:
        raise ValueError("r must be nonzero")

    m = ensemble_template.rows
    cols = ensemble_template.cols
    states = _spawned_sfc64_states(ensemble_template.seed, trials)
    ratios = np.empty(trials)
    # hot loop: SFC64 streams and unscaled draws (the 1/sqrt(M) factor
    # moves into the final norm); gaussian trials draw only the M
    # entries of sqrt(M) Phi r / |r| (see the docstring).  For int64
    # output `integers(0, 2)` keeps bit 31 of each 32-bit half of a raw
    # word, low half first, and a fresh SFC64 holds no buffered half, so
    # sign k is 1 where half k (of the little-endian words) is negative
    # as an int32, else -1.  Rademacher trials write copysign(1, half k),
    # minus sign k, only at the entries k in supp(r)'s columns of one
    # reused M x N buffer that is 0 elsewhere: the product is then
    # exactly minus signs @ r, and its norm keeps its bits
    root_m = math.sqrt(m)
    scale = root_m * norm_r
    if ensemble_template.kind == GAUSSIAN:
        for t, state in enumerate(states):
            g = np.random.Generator(np.random.SFC64(_SeedWords(state))).standard_normal(m)
            ratios[t] = math.sqrt(g.dot(g)) / root_m  # np.linalg.norm(g), bit for bit
    else:
        words = (m * cols + 1) // 2
        pos = (np.arange(m)[:, None] * cols + np.flatnonzero(r)).ravel()
        pos = slice(0, m * cols) if pos.size == m * cols else pos  # a view for dense r
        flat = np.zeros(m * cols)
        signs, decoded = flat.reshape(m, cols), flat[pos]
        for t, state in enumerate(states):
            raw = np.random.SFC64(_SeedWords(state)).random_raw(words)
            np.copysign(1.0, raw.astype("<u8", copy=False).view("<i4")[pos], out=decoded)
            flat[pos] = decoded  # a no-op when decoded is a view of flat
            y = signs @ r
            ratios[t] = math.sqrt(y.dot(y)) / scale

    violations = int(np.sum(np.abs(ratios - 1.0) > delta / 2.0))
    return ConcentrationResult(
        empirical_rate=violations / trials,
        theory_rate=2.0 * math.exp(-c0(delta) * m),
        violations=violations,
        trials=trials,
        delta=delta,
        m=m,
        seed=ensemble_template.seed,
        ratios=ratios,
    )
