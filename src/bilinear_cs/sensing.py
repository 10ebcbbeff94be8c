"""Random measurement ensembles and empirical isometry experiments.

Covers four jobs: generating sub-Gaussian measurement matrices
(gaussian N(0, 1/M) or scaled Rademacher entries), measuring per-vector
distortion |Phi z| / |z| - 1, Monte Carlo sweeps of that distortion over
images of bilinear maps, and the single-vector concentration experiment
(how often |Phi r| strays from |r| by more than delta/2, against the
2 exp(-c0 M) ceiling).

Concentration trial t is row t of one `default_rng(seed)` stream, drawn
in blocks, so a larger trial count extends the same sequence; Rademacher
trials draw only the signs in supp(r)'s columns.  Distortion sweeps draw
their cone pairs from `rnmp.cone_pair_blocks`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

import numpy as np

from .bilinear_ops import BilinearMapSpec
from .bounds import c0
from .rnmp import _BLOCK, basis_images, cone_pair_blocks
from .sparse_model import DEGENERATE_NORM, ConeSpec

GAUSSIAN = "gaussian"
RADEMACHER = "rademacher"
ENSEMBLE_KINDS = (GAUSSIAN, RADEMACHER)

# dense Phi guard: M*N entries materialized
_SIZE_GUARD = 10 ** 7

# levels of the |distortion| quantiles a DistortionReport carries
QUANTILE_LEVELS = (0.5, 0.9, 0.99)


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


def concentration_test(r: np.ndarray,
                       ensemble_template: MeasurementEnsemble,
                       trials: int,
                       delta: float) -> ConcentrationResult:
    """Fraction of independent matrix draws with | |Phi r| - |r| | >
    (delta/2) |r|, against the ceiling 2 exp(-c0(delta) M).

    The template's seed seeds one `default_rng` stream, and trial t is
    its row t: trials are drawn in blocks whose row count depends only
    on M and |supp(r)|, so a larger `trials` extends the sequence and
    keeps every earlier trial.  Needs trials >= 100 so the empirical
    rate means anything.

    Gaussian trials draw Phi r itself, not Phi: with i.i.d. N(0, 1/M)
    entries, Phi r ~ N(0, |r|^2/M I_M) exactly, so |Phi r| / |r| has
    the law of |g| / sqrt(M) for g ~ N(0, I_M), and a trial costs M
    normals instead of M*N.  Rademacher Phi r depends only on the
    columns of Phi in supp(r), so those trials draw just those M
    |supp(r)| signs s and take y = (2s - 1) r[supp], unscaled; the ratio
    is |y| / (sqrt(M) |r|).
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
    rng = np.random.default_rng(ensemble_template.seed)  # validates the seed
    ratios = np.empty(trials)
    gaussian = ensemble_template.kind == GAUSSIAN
    support = np.flatnonzero(r)
    scale = math.sqrt(m) * (1.0 if gaussian else norm_r)
    # rnmp's budget: block sizes interact through glibc's mmap threshold
    step = max(1, _BLOCK // (m if gaussian else m * support.size))
    for start in range(0, trials, step):
        rows = min(step, trials - start)
        if gaussian:
            y = rng.standard_normal((rows, m))
        else:
            signs = rng.integers(0, 2, size=(rows * m, support.size), dtype=bool)
            y = ((2.0 * signs - 1.0) @ r[support]).reshape(rows, m)
        ratios[start:start + rows] = np.linalg.norm(y, axis=1) / scale

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
