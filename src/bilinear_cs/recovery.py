"""Recovery of bilinear-map outputs from compressed measurements.

The target is always the image z = T(s, h), never the factor pair; the
embedding story is about the output set, and factor identification is
somebody else's problem.  Two solvers: least squares restricted to a
known support (the oracle receiver), and plain iterative hard
thresholding (IHT) as the single blind baseline.  On top of both sits a
phase-transition harness that sweeps the measurement count M and
records success rates, with the additive (S+F) ln N and multiplicative
S F ln N reference abscissas alongside.

Noise is i.i.d. gaussian per measurement entry with standard deviation
noise_sigma.  Per-trial randomness derives from (master seed, M index,
trial index), so any subset of the grid reproduces independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .bilinear_ops import (BilinearMapSpec, CIRCULAR_CONVOLUTION, POINTWISE,
                           apply_map)
from .sensing import GAUSSIAN, _draw
from .sparse_model import (CONE_KINDS, ConeSpec, Support, sample_cone,
                           support_from_indices, support_sum, unit_cone_directions)

# images with norm below this are treated as degenerate draws
_NULL_IMAGE = 1e-12

# fresh support pairs are redrawn at most this many times per trial
_MAX_REDRAWS = 100

_POWER_ITERS = 30
_DIVERGENCE_WINDOW = 50
_DIVERGENCE_FACTOR = 10.0


@dataclass(frozen=True)
class BilinearModel:
    """A bilinear map together with the cone pair feeding it."""

    map_spec: BilinearMapSpec
    cone_x: ConeSpec
    cone_y: ConeSpec

    def __post_init__(self):
        n = self.map_spec.ambient_dim
        if self.cone_x.ambient_dim != n or self.cone_y.ambient_dim != n:
            raise ValueError("cone ambient dimensions must match the map's")

    def to_json(self) -> dict:
        return {"map_kind": self.map_spec.kind,
                "n": self.map_spec.ambient_dim,
                "cone_x": self.cone_x.to_json(),
                "cone_y": self.cone_y.to_json()}


@dataclass(frozen=True, eq=False)
class RecoveryProblem:
    """Measurements y = Phi z + noise plus the model that generated z.

    `truth` carries (s, h, z) when the problem was simulated, so results
    can be scored; receiver-side code never peeks at it.
    """

    phi: np.ndarray
    y: np.ndarray
    model: BilinearModel
    noise_sigma: float = 0.0
    truth: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def __post_init__(self):
        if self.phi.ndim != 2:
            raise ValueError("phi must be a matrix")
        if self.y.shape != (self.phi.shape[0],):
            raise ValueError(f"y must have length {self.phi.shape[0]}, "
                             f"got shape {self.y.shape}")
        if self.phi.shape[1] != self.model.map_spec.ambient_dim:
            raise ValueError("phi column count must match the model's ambient dim")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        self.phi.setflags(write=False)
        self.y.setflags(write=False)


@dataclass(frozen=True, eq=False)
class RecoveryResult:
    """One solver outcome.  residual = |Phi z_hat - y|; relative_error
    is |z_hat - z| / |z| when the truth is available (None for a zero
    truth).  support_hat is None when z_hat = 0."""

    z_hat: np.ndarray
    support_hat: Optional[Support]
    iterations: int
    residual: float
    relative_error: Optional[float]
    converged: bool
    diverged: bool = False
    rank_deficient: bool = False

    def __post_init__(self):
        self.z_hat.setflags(write=False)

    def to_json(self) -> dict:
        return {
            "z_hat": [float(v) for v in self.z_hat],
            "support_hat": None if self.support_hat is None
            else self.support_hat.to_json(),
            "iterations": self.iterations,
            "residual": self.residual,
            "relative_error": self.relative_error,
            "converged": self.converged,
            "diverged": self.diverged,
            "rank_deficient": self.rank_deficient,
        }


def output_support(model: BilinearModel) -> Support:
    """The support that holds every output T(x, y) of the model: the
    intersection I ∩ J for pointwise products, the modular sumset I ⊕ J
    for circular convolution.  The unitary-conjugated product has no such
    support (the output is generically dense), so asking is an error.
    """
    kind = model.map_spec.kind
    if kind == POINTWISE:
        common = sorted(set(model.cone_x.support.indices) &
                        set(model.cone_y.support.indices))
        if not common:
            raise ValueError("pointwise supports are disjoint; the output is zero")
        return support_from_indices(common, model.map_spec.ambient_dim)
    if kind == CIRCULAR_CONVOLUTION:
        return support_sum(model.cone_x.support, model.cone_y.support)
    raise ValueError(f"no closed-form output support for map kind {kind!r}")


def model_sparsity(model: BilinearModel) -> int:
    """Sparsity budget for the model's output, at least |output_support|.

    Pointwise products live on I ∩ J; the budget is min(S, F), an upper
    bound on |I ∩ J| that is reached only when the smaller support lies
    inside the larger.  Circular convolution gets the exact size of the
    modular sumset, anywhere from max(S, F) up to S*F.  The
    unitary-conjugated product has no closed-form budget, so asking is an
    error.
    """
    if model.map_spec.kind == POINTWISE:
        return min(model.cone_x.dim, model.cone_y.dim)
    return output_support(model).size


def _finish(z_hat: np.ndarray, phi: np.ndarray, y: np.ndarray,
            problem: RecoveryProblem, iterations: int, converged: bool,
            diverged: bool = False, rank_deficient: bool = False) -> RecoveryResult:
    nonzero = np.flatnonzero(z_hat)
    support_hat = None
    if nonzero.size:
        support_hat = Support(tuple(int(i) for i in nonzero), z_hat.shape[0])
    relative_error = None
    if problem.truth is not None:
        z_true = problem.truth[2]
        nz = float(np.linalg.norm(z_true))
        if nz > 0:
            relative_error = float(np.linalg.norm(z_hat - z_true)) / nz
    return RecoveryResult(
        z_hat=z_hat,
        support_hat=support_hat,
        iterations=iterations,
        residual=float(np.linalg.norm(phi @ z_hat - y)),
        relative_error=relative_error,
        converged=converged,
        diverged=diverged,
        rank_deficient=rank_deficient,
    )


def oracle_least_squares(problem: RecoveryProblem, support: Support) -> RecoveryResult:
    """Least squares restricted to a known support.

    Rank-deficient restricted matrices fall back to the minimum-norm
    solution and are flagged, not rejected.
    """
    m = problem.phi.shape[0]
    if support.size > m:
        raise ValueError(f"support size {support.size} exceeds {m} measurements; "
                         "the restricted system is underdetermined")
    if support.ambient_dim != problem.phi.shape[1]:
        raise ValueError("support ambient dim must match phi columns")
    cols = problem.phi[:, support.as_array()]
    sol, _, rank, _ = np.linalg.lstsq(cols, problem.y, rcond=None)
    z_hat = np.zeros(problem.phi.shape[1])
    z_hat[support.as_array()] = sol
    return _finish(z_hat, problem.phi, problem.y, problem,
                   iterations=1, converged=True,
                   rank_deficient=bool(rank < support.size))


def _hard_threshold(v: np.ndarray, k: int) -> np.ndarray:
    """Keep the k largest-magnitude entries, ties broken toward the
    lowest index, zero elsewhere."""
    order = np.argsort(-np.abs(v), kind="stable")
    out = np.zeros_like(v)
    out[order[:k]] = v[order[:k]]
    return out


def _adaptive_step(phi: np.ndarray) -> float:
    """1 / |Phi|^2 with the spectral norm estimated by power iteration."""
    b = np.random.default_rng(0).standard_normal(phi.shape[1])
    b /= np.linalg.norm(b)
    for _ in range(_POWER_ITERS):
        b = phi.T @ (phi @ b)
        nb = np.linalg.norm(b)
        if nb == 0.0:
            return 1.0
        b /= nb
    return 1.0 / float(np.dot(phi @ b, phi @ b))


def iht(problem: RecoveryProblem, k: int, max_iters: int = 500,
        step: Union[float, str] = "adaptive", tol: float = 1e-8) -> RecoveryResult:
    """Iterative hard thresholding: z <- H_k(z + step Phi^T (y - Phi z)).

    Stops when the update norm drops below tol * |z| or after max_iters.
    A residual that grows tenfold over a 50-iteration window flags the
    run as diverged.  step="adaptive" uses 1 / |Phi|^2 from 30 power
    iterations.
    """
    phi, y = problem.phi, problem.y
    m, n = phi.shape
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    if k > m:
        raise ValueError(f"k={k} exceeds {m} measurements")
    if step == "adaptive":
        mu = _adaptive_step(phi)
    else:
        mu = float(step)
        if mu <= 0:
            raise ValueError(f"step must be positive, got {step}")

    z = np.zeros(n)
    r_vec = y - phi @ z
    residuals = [float(np.linalg.norm(y))]
    converged = False
    diverged = False
    it = 0
    for it in range(1, max_iters + 1):
        z_new = _hard_threshold(z + mu * (phi.T @ r_vec), k)
        update = float(np.linalg.norm(z_new - z))
        z = z_new
        # the residual of this iterate is also the next iteration's gradient input
        r_vec = y - phi @ z
        residuals.append(float(np.linalg.norm(r_vec)))
        if update <= tol * max(float(np.linalg.norm(z)), 1e-300):
            converged = True
            break
        if (it >= _DIVERGENCE_WINDOW and
                residuals[-1] > _DIVERGENCE_FACTOR * residuals[-1 - _DIVERGENCE_WINDOW]):
            diverged = True
            break
    return _finish(z, phi, y, problem, iterations=it, converged=converged,
                   diverged=diverged)


def simulate_problem(model: BilinearModel, phi: np.ndarray,
                     noise_sigma: float = 0.0, seed: int = 0) -> RecoveryProblem:
    """Draw unit-norm cone samples, push through the map, measure with
    the given matrix, add gaussian noise.  Truth rides along."""
    if noise_sigma < 0:
        raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma}")
    ss_s, ss_h, ss_noise = np.random.SeedSequence(seed).spawn(3)
    s = sample_cone(model.cone_x, ss_s)
    h = sample_cone(model.cone_y, ss_h)
    z = apply_map(model.map_spec, s, h)
    y = phi @ z
    if noise_sigma > 0:
        y = y + noise_sigma * np.random.default_rng(ss_noise).standard_normal(y.shape)
    return RecoveryProblem(phi=np.array(phi, dtype=np.float64), y=y, model=model,
                           noise_sigma=noise_sigma,
                           truth=(s.values.copy(), h.values.copy(), z))


@dataclass(frozen=True)
class PhaseCell:
    """Success tally at one measurement count."""

    m: int
    trials: int
    successes: int

    @property
    def rate(self) -> float:
        return self.successes / self.trials

    def to_json(self) -> dict:
        return {"m": self.m, "trials": self.trials, "successes": self.successes,
                "rate": self.rate}


@dataclass(frozen=True)
class PhaseTransitionResult:
    """Success-rate curve over an M grid, plus the two reference
    abscissas (S+F) ln N and S F ln N bracketing the additive and
    multiplicative sample-complexity stories."""

    n: int
    s: int
    f: int
    cone_kind: str
    map_kind: str
    trials: int
    delta_success: float
    seed: int
    cells: Tuple[PhaseCell, ...]
    reference_additive: float
    reference_multiplicative: float

    def rates(self) -> np.ndarray:
        return np.array([c.rate for c in self.cells])

    def to_json(self) -> dict:
        return {
            "n": self.n, "s": self.s, "f": self.f,
            "cone_kind": self.cone_kind, "map_kind": self.map_kind,
            "trials": self.trials, "delta_success": self.delta_success,
            "seed": self.seed,
            "cells": [c.to_json() for c in self.cells],
            "reference_additive": self.reference_additive,
            "reference_multiplicative": self.reference_multiplicative,
        }


def phase_transition(map_spec: BilinearMapSpec, n: int, s: int, f: int,
                     cone_kind: str, m_grid: Sequence[int], trials: int,
                     delta_success: float = 1e-3, seed: int = 0) -> PhaseTransitionResult:
    """Empirical success rate of IHT recovery as M sweeps a grid.

    Each trial draws a fresh support pair, fresh unit cone samples, a
    fresh gaussian matrix, and recovers with K = model_sparsity.
    Success means relative error <= delta_success.  Trials whose
    sparsity budget exceeds M count as failures outright (the restricted
    system is underdetermined on every candidate support).  Degenerate
    draws (null image) are redrawn.  Trial (mi, t) seeds from
    (seed, mi, t), so grid subsets reproduce.
    """
    if map_spec.ambient_dim != n:
        raise ValueError(f"map ambient dim {map_spec.ambient_dim} != n={n}")
    if cone_kind not in CONE_KINDS:
        raise ValueError(f"cone_kind must be one of {CONE_KINDS}, got {cone_kind!r}")
    if not m_grid:
        raise ValueError("m_grid must be nonempty")
    if any(m < 1 or m > n for m in m_grid):
        raise ValueError(f"every M must lie in [1, {n}]")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not (1 <= s <= n and 1 <= f <= n):
        raise ValueError("need 1 <= S, F <= N")

    cells = []
    for mi, m in enumerate(m_grid):
        successes = 0
        for t in range(trials):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, mi, t)))
            for _ in range(_MAX_REDRAWS):
                i_idx = np.sort(rng.choice(n, size=s, replace=False))
                j_idx = np.sort(rng.choice(n, size=f, replace=False))
                cone_x = ConeSpec(Support(tuple(int(i) for i in i_idx), n), cone_kind)
                cone_y = ConeSpec(Support(tuple(int(j) for j in j_idx), n), cone_kind)
                x = unit_cone_directions(cone_x, 1, rng)[0]
                y_vec = unit_cone_directions(cone_y, 1, rng)[0]
                z = apply_map(map_spec, x, y_vec)
                if np.linalg.norm(z) >= _NULL_IMAGE:
                    break
            else:
                raise ValueError("could not draw a nondegenerate sample pair "
                                 f"after {_MAX_REDRAWS} attempts")
            model = BilinearModel(map_spec, cone_x, cone_y)
            k = model_sparsity(model)
            if k > m:
                continue
            phi = _draw(GAUSSIAN, m, n, rng)
            y = phi @ z
            problem = RecoveryProblem(phi=phi, y=y, model=model,
                                      truth=(x, y_vec, z))
            result = iht(problem, k)
            if result.relative_error is not None and \
                    result.relative_error <= delta_success:
                successes += 1
        cells.append(PhaseCell(m=int(m), trials=trials, successes=successes))

    return PhaseTransitionResult(
        n=n, s=s, f=f, cone_kind=cone_kind, map_kind=map_spec.kind,
        trials=trials, delta_success=delta_success, seed=seed,
        cells=tuple(cells),
        reference_additive=(s + f) * math.log(n),
        reference_multiplicative=s * f * math.log(n),
    )
