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

IHT has one loop, `_iht_stack`, which runs a stack of problems in
lockstep with the arithmetic of a lone run.  A phase cell runs all of
its trials as one stack, which the per-trial streams make legal, and
`iht` is the stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .bilinear_ops import (BilinearMapSpec, CIRCULAR_CONVOLUTION, POINTWISE,
                           apply_map)
from .sensing import GAUSSIAN, _draw
from .sparse_model import (CONE_KINDS, DEGENERATE_NORM, ConeSpec, Support,
                           support_from_indices, support_sum, unit_cone_directions)

# fresh support pairs are redrawn at most this many times per trial
_MAX_REDRAWS = 100

_MAX_ITERS = 500
_TOL = 1e-8
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


class _TopK:
    """Keeps the k[t] largest-magnitude entries of row t of a (T, 1, n)
    stack and zeroes the rest in place, ties broken toward the lowest
    index: row t keeps the first k[t] positions of
    np.argsort(-|v[t, 0]|, kind="stable").

    The k[t]-th smallest key of b = -|v| is a threshold, and every key
    above it is dropped.  That keeps at least k[t] entries of each row,
    and more exactly when keys tie at the threshold (or are NaN); only
    then are the rows sorted stably.
    """

    def __init__(self, k: np.ndarray, n: int):
        self.k = k
        self._n = n
        # flat position of each row's k-th smallest key
        self._kth = (np.arange(k.size) * n + k - 1)[:, None, None]
        self._dropped = k.size * n - int(k.sum())

    def dropped(self, v: np.ndarray) -> np.ndarray:
        """The mask of the entries to zero."""
        b = np.negative(np.abs(v))
        keys = b.copy()
        keys.sort()
        drop = b > keys.ravel()[self._kth]
        if np.count_nonzero(drop) != self._dropped:
            rows = drop.reshape(-1, self._n)
            rows[:] = True
            for row, order in enumerate(np.argsort(b.reshape(rows.shape), axis=1,
                                                   kind="stable")):
                rows[row, order[:self.k[row]]] = False
        return drop

    def __call__(self, v: np.ndarray) -> np.ndarray:
        np.putmask(v, self.dropped(v), 0.0)
        return v


def _adaptive_step(phi: np.ndarray) -> np.ndarray:
    """1 / |Phi_t|_2^2 for each matrix of the stack phi (T, m, n), from the
    largest eigenvalue of the smaller Gram matrix; 1.0 for Phi_t = 0.  The
    eigenvalue is scaled up by 1 + 4 (m + n) eps first, to cover the Gram
    product's rounding (inner dimension max(m, n)) and eigvalsh's backward
    error, so that mu |Phi_t|_2^2 <= 1 holds in floating point."""
    m, n = phi.shape[1:]
    phi_t = phi.transpose(0, 2, 1)
    gram = np.matmul(phi, phi_t) if m <= n else np.matmul(phi_t, phi)
    top = np.linalg.eigvalsh(gram)[:, -1] * (1.0 + 4 * (m + n) * np.finfo(float).eps)
    return 1.0 / np.where(top > 0.0, top, 1.0)


def _iht_stack(phi: np.ndarray, y: np.ndarray, k: np.ndarray, mu: np.ndarray,
               max_iters: int, tol: float):
    """Run IHT on a stack of problems in lockstep: phi (T, m, n), y (T, m),
    per-problem sparsity k (T,) and step mu (T,).

    Every member takes exactly the steps a lone run takes, bit for bit:
    the stacked products are the same gemv calls item by item, a norm is
    the square root of the dot product np.linalg.norm computes, and the
    stopping rules run on those floats member by member.  Members leave
    the stack on the iteration they stop.  Returns the iterates (T, n),
    the iteration counts and the converged and diverged flags, all in
    stack order.
    """
    count, _, n = phi.shape
    z_hat = np.zeros((count, n))
    iterations = [0] * count
    converged = [False] * count
    diverged = [False] * count
    live = list(range(count))
    top_k = _TopK(k, n)
    # the step repeated along each row, so the update multiplies equal shapes
    mu = np.repeat(mu, n).reshape(count, 1, n)
    y = y[:, None, :]
    phi_t = phi.transpose(0, 2, 1)
    z = np.zeros((count, 1, n))
    r = y - np.matmul(z, phi_t)
    residuals = [[math.sqrt(sq)] for (sq,) in np.vecdot(y, y).tolist()]
    for it in range(1, max_iters + 1):
        # z_new = H_k(z + mu Phi^T r), in place; in rows, r @ Phi is Phi^T r
        # and z @ Phi^T is Phi z
        z_new = np.matmul(r, phi)
        z_new *= mu
        z_new += z
        top_k(z_new)
        d = z_new - z
        z = z_new
        # the residual of this iterate is also the next iteration's gradient input
        r = y - np.matmul(z, phi_t)
        stopped = []
        for i, ((d_sq,), (z_sq,), (r_sq,), history) in enumerate(zip(
                np.vecdot(d, d).tolist(), np.vecdot(z, z).tolist(),
                np.vecdot(r, r).tolist(), residuals)):
            history.append(math.sqrt(r_sq))
            if math.sqrt(d_sq) <= tol * max(math.sqrt(z_sq), 1e-300):
                converged[live[i]] = True
            elif (it >= _DIVERGENCE_WINDOW and
                    history[-1] > _DIVERGENCE_FACTOR * history[-1 - _DIVERGENCE_WINDOW]):
                diverged[live[i]] = True
            elif it < max_iters:
                continue
            stopped.append(i)
        if stopped:
            for i in stopped:
                iterations[live[i]] = it
                z_hat[live[i]] = z[i, 0]
            keep = [i for i in range(len(live)) if i not in stopped]
            if not keep:
                break
            live = [live[i] for i in keep]
            residuals = [residuals[i] for i in keep]
            phi, y, mu, z, r = phi[keep], y[keep], mu[keep], z[keep], r[keep]
            phi_t = phi.transpose(0, 2, 1)
            top_k = _TopK(top_k.k[keep], n)
    return z_hat, iterations, converged, diverged


def iht(problem: RecoveryProblem, k: int, max_iters: int = _MAX_ITERS,
        tol: float = _TOL) -> RecoveryResult:
    """Iterative hard thresholding: z <- H_k(z + mu Phi^T (y - Phi z)).

    Stops when the update norm drops below tol * |z| or after max_iters.
    A residual that grows tenfold over a 50-iteration window flags the
    run as diverged.  The step mu is 1 / |Phi|_2^2 from the largest
    eigenvalue of the Gram matrix, shrunk by 1 + 4 (m + n) eps so that
    mu |Phi|_2^2 <= 1, as IHT's convergence condition asks
    (`_adaptive_step`).  The solve is a stack of one through `_iht_stack`,
    the loop that also solves a phase cell's trials.
    """
    phi, y = problem.phi, problem.y
    m, n = phi.shape
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    if k > m:
        raise ValueError(f"k={k} exceeds {m} measurements")
    z, iterations, converged, diverged = _iht_stack(
        phi[None], y[None], np.array([k]), _adaptive_step(phi[None]), max_iters, tol)
    return _finish(z[0], phi, y, problem, iterations=iterations[0],
                   converged=converged[0], diverged=diverged[0])


def simulate_problem(model: BilinearModel, phi: np.ndarray,
                     noise_sigma: float = 0.0, seed: int = 0) -> RecoveryProblem:
    """Draw unit-norm cone samples, push through the map, measure with
    the given matrix, add gaussian noise.  Truth rides along."""
    if noise_sigma < 0:
        raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma}")
    ss_s, ss_h, ss_noise = np.random.SeedSequence(seed).spawn(3)
    s = unit_cone_directions(model.cone_x, 1, np.random.default_rng(ss_s))[0]
    h = unit_cone_directions(model.cone_y, 1, np.random.default_rng(ss_h))[0]
    z = apply_map(model.map_spec, s, h)
    y = phi @ z
    if noise_sigma > 0:
        y = y + noise_sigma * np.random.default_rng(ss_noise).standard_normal(y.shape)
    return RecoveryProblem(phi=np.array(phi, dtype=np.float64), y=y, model=model,
                           noise_sigma=noise_sigma,
                           truth=(s, h, z))


@dataclass(frozen=True)
class PhaseCell:
    """Success tally at one measurement count."""

    m: int
    trials: int
    successes: int
    rate: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "rate", self.successes / self.trials)


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


def phase_transition(map_spec: BilinearMapSpec, s: int, f: int, cone_kind: str,
                     m_grid: Sequence[int], trials: int, delta_success: float = 1e-3,
                     seed: int = 0) -> PhaseTransitionResult:
    """Empirical success rate of IHT recovery as M sweeps a grid, at the
    map's ambient dimension N.

    Each trial draws a fresh support pair, fresh unit cone samples, a
    fresh gaussian matrix, and recovers with K = model_sparsity.
    Success means relative error <= delta_success.  Trials whose
    sparsity budget exceeds M count as failures outright (the restricted
    system is underdetermined on every candidate support).  Degenerate
    draws (null image) are redrawn.  Trial (mi, t) seeds from
    (seed, mi, t), so grid subsets reproduce.

    A cell first draws all of its trials, then finds their steps and
    solves them as lockstep stacks (`_adaptive_step`, `_iht_stack`).
    Each trial draws only from its own stream, so drawing ahead changes
    no draw, and the stacks give each trial a lone `iht` run's bits.
    """
    n = map_spec.ambient_dim
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
        phis, ys, truths, ks = [], [], [], []
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
                if np.linalg.norm(z) >= DEGENERATE_NORM:
                    break
            else:
                raise ValueError("could not draw a nondegenerate sample pair "
                                 f"after {_MAX_REDRAWS} attempts")
            k = model_sparsity(BilinearModel(map_spec, cone_x, cone_y))
            if k > m:
                continue
            phi = _draw(GAUSSIAN, m, n, rng)
            phis.append(phi)
            ys.append(phi @ z)
            truths.append(z)
            ks.append(k)
        successes = 0
        if phis:
            phis = np.stack(phis)
            z_hat, _, _, _ = _iht_stack(phis, np.stack(ys), np.array(ks), _adaptive_step(phis),
                                        _MAX_ITERS, _TOL)
            truth = np.stack(truths)
            miss = z_hat - truth
            # |z_hat - z| / |z| as _finish scores it; a redrawn image is never 0
            errors = np.sqrt(np.vecdot(miss, miss)) / np.sqrt(np.vecdot(truth, truth))
            successes = int(np.count_nonzero(errors <= delta_success))
        cells.append(PhaseCell(m=int(m), trials=trials, successes=successes))

    return PhaseTransitionResult(
        n=n, s=s, f=f, cone_kind=cone_kind, map_kind=map_spec.kind,
        trials=trials, delta_success=delta_success, seed=seed,
        cells=tuple(cells),
        reference_additive=(s + f) * math.log(n),
        reference_multiplicative=s * f * math.log(n),
    )
