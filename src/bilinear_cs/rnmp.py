"""Estimation of restricted norm multiplicativity constants.

For a bilinear map T restricted to a cone pair (X, Y) the quantities of
interest are the extreme values of the ratio

    r(x, y) = ||T(x, y)|| / (||x|| ||y||),   (x, y) nonzero in X x Y.

`alpha` is the pairwise infimum of r over the cone pair and `beta` the
supremum.  The infimum computed here ranges over all nonzero pairs, which
is a conservative lower bound for the representation-optimized constant;
it keeps every probability bound built on top of it valid.

On canonical supports I and J of sizes S and F the restricted map is
fixed by its basis images B[a, b] = T(e_{i_a}, e_{j_b}) (`basis_images`,
shape (S, F, N)); every estimator works on B in coefficient space.  The
brute sweep (and `sensing.rip_monte_carlo`) draws (T, S) and (T, F)
coefficient batches and evaluates them with `apply_restricted_batch`,
never embedding a sample at length N.  The alternating search runs the
min and max runs of all its restarts as one lockstep stack (`_alternate`).

Three estimators with different trade-offs:

  estimate_brute        random unit pairs; alpha upper / beta lower bounds
  estimate_alternating  block coordinate descent on singular directions
  certify_exhaustive    deterministic angular grid (small dimensions only)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .bilinear_ops import BilinearMapSpec, apply_map, apply_map_batch
from .sparse_model import POSITIVE_ORTHANT, ConeSpec, Support, unit_cone_coefficients

GRID_GUARD = 10 ** 8
_BATCH = 20_000


@dataclass(frozen=True)
class RnmpEstimate:
    """Estimated multiplicativity constants with attaining direction pairs.

    Witnesses are unit-norm vectors supported on the declared cones; each
    reproduces its reported constant within `tol` when the ratio is
    re-evaluated.  `converged` is False when the alternating method hit
    its iteration cap before the improvement dropped below tol.
    """

    support_pair: Tuple[Support, Support]
    cone_kinds: Tuple[str, str]
    alpha_est: float
    beta_est: float
    alpha_witness: Tuple[np.ndarray, np.ndarray]
    beta_witness: Tuple[np.ndarray, np.ndarray]
    method: str  # brute | alternating | grid
    restarts: int
    tol: float
    converged: bool = True

    def __post_init__(self):
        if not 0.0 <= self.alpha_est <= self.beta_est:
            raise ValueError(
                f"need 0 <= alpha <= beta, got alpha={self.alpha_est}, beta={self.beta_est}"
            )

    @property
    def multiplicative(self) -> bool:
        """Whether the estimates collapse to alpha = beta within tol."""
        return abs(self.beta_est - self.alpha_est) <= self.tol

    def to_json(self) -> dict:
        return {
            "support_x": self.support_pair[0].to_json(),
            "support_y": self.support_pair[1].to_json(),
            "cone_kinds": list(self.cone_kinds),
            "alpha_est": self.alpha_est,
            "beta_est": self.beta_est,
            "alpha_witness_x": self.alpha_witness[0].tolist(),
            "alpha_witness_y": self.alpha_witness[1].tolist(),
            "beta_witness_x": self.beta_witness[0].tolist(),
            "beta_witness_y": self.beta_witness[1].tolist(),
            "method": self.method,
            "restarts": self.restarts,
            "tol": self.tol,
            "converged": self.converged,
        }


def norm_ratio(spec: BilinearMapSpec, x, y) -> float:
    """||T(x,y)|| / (||x|| ||y||); 0-homogeneous in each argument."""
    xv = np.asarray(getattr(x, "values", x), dtype=float)
    yv = np.asarray(getattr(y, "values", y), dtype=float)
    nx = np.linalg.norm(xv)
    ny = np.linalg.norm(yv)
    if nx == 0 or ny == 0:
        raise ValueError("ratio undefined for zero vectors")
    return float(np.linalg.norm(apply_map(spec, xv, yv)) / (nx * ny))


def basis_images(spec: BilinearMapSpec, i_set: Support, j_set: Support) -> np.ndarray:
    """Basis images B[a, b] = T(e_{i_a}, e_{j_b}), shape (S, F, N).

    On a support pair T is fixed by B: T(x, y) = sum_{a,b} x_a y_b B[a, b]
    for x on I and y on J, where x_a and y_b are the coefficients.
    """
    n = spec.ambient_dim
    if i_set.ambient_dim != n or j_set.ambient_dim != n:
        raise ValueError("map and cones must share the ambient dimension")
    s, f = i_set.size, j_set.size
    xs = np.zeros((s, f, n))
    ys = np.zeros((s, f, n))
    xs[np.arange(s), :, i_set.as_array()] = 1.0
    ys[:, np.arange(f), j_set.as_array()] = 1.0
    images = apply_map_batch(spec, xs.reshape(s * f, n), ys.reshape(s * f, n))
    return images.reshape(s, f, n)


def apply_restricted_batch(images: np.ndarray, xc: np.ndarray, yc: np.ndarray) -> np.ndarray:
    """Rowwise T(x_t, y_t) from coefficient batches xc (T, S) and yc (T, F)
    on the support pair of the basis images B = `images`; (T, N), C order.

    Column k sums B[a, b, k] yc[:, b] xc[:, a] over the nonzeros of B with
    b ascending, then a: the order in which `apply_map_batch` sums, so
    convolution and pointwise images keep its bits.
    """
    s, f, n = images.shape
    z = np.zeros((xc.shape[0], n))
    for b in range(f):
        for a in range(s):
            ks = np.flatnonzero(images[a, b])
            if ks.size:
                z[:, ks] += (yc[:, b] * xc[:, a])[:, None] * images[a, b, ks]
    return z


def _embed(coeffs: np.ndarray, cone: ConeSpec) -> np.ndarray:
    v = np.zeros(cone.ambient_dim)
    v[cone.support.as_array()] = coeffs
    return v


def estimate_brute(spec: BilinearMapSpec, cone_x: ConeSpec, cone_y: ConeSpec,
                   samples: int = 10_000, seed: int = 0) -> RnmpEstimate:
    """Monte Carlo sweep over random unit cone pairs.

    With finitely many samples alpha_est is an upper bound on the true
    pairwise infimum and beta_est a lower bound on the supremum.  The
    sample streams for the two cones are independent, so enlarging
    `samples` at a fixed seed extends (rather than reshuffles) the sweep.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    images = basis_images(spec, cone_x.support, cone_y.support)
    ss = np.random.SeedSequence(seed)
    child_x, child_y = ss.spawn(2)
    rng_x = np.random.default_rng(child_x)
    rng_y = np.random.default_rng(child_y)

    best_min = np.inf
    best_max = -np.inf
    wit_min = wit_max = None
    done = 0
    while done < samples:
        count = min(_BATCH, samples - done)
        xc = unit_cone_coefficients(cone_x, count, rng_x)
        yc = unit_cone_coefficients(cone_y, count, rng_y)
        r = np.linalg.norm(apply_restricted_batch(images, xc, yc), axis=1)
        i_min = int(np.argmin(r))
        i_max = int(np.argmax(r))
        if r[i_min] < best_min:
            best_min = float(r[i_min])
            wit_min = (_embed(xc[i_min], cone_x), _embed(yc[i_min], cone_y))
        if r[i_max] > best_max:
            best_max = float(r[i_max])
            wit_max = (_embed(xc[i_max], cone_x), _embed(yc[i_max], cone_y))
        done += count

    return RnmpEstimate(
        support_pair=(cone_x.support, cone_y.support),
        cone_kinds=(cone_x.kind, cone_y.kind),
        alpha_est=best_min,
        beta_est=best_max,
        alpha_witness=wit_min,
        beta_witness=wit_max,
        method="brute",
        restarts=samples,
        tol=1e-9,
    )


def _norms(rows: np.ndarray) -> np.ndarray:
    """Row norms, each the root of the dot product np.linalg.norm takes."""
    return np.sqrt(np.vecdot(rows, rows))


def _restricted(coeffs: np.ndarray, images: np.ndarray) -> np.ndarray:
    """sum_k coeffs[t, k] images[k] for each row t, as (T, N, images.shape[1]);
    one gemv per row.  The copy to C order is deliberate: A @ v takes
    other bits from a transposed view."""
    k, m, n = images.shape
    flat = np.matmul(coeffs[:, None, :], images.reshape(k, m * n))
    return np.ascontiguousarray(flat.reshape(-1, m, n).transpose(0, 2, 1))


def _half_step(a, use_max, kind, current, side):
    """Move one side of each member to the largest (where use_max) or
    smallest right singular direction of its A[t], where that improves.

    Orthant projection takes the sign with the larger nonnegative mass, at
    least 1/sqrt(2) for a unit vector, clamps the rest to zero and rescales.
    Nonnegative A has a nonnegative leading direction (Perron), so max mode
    loses nothing.
    """
    vt = np.linalg.svd(a, full_matrices=False).Vh
    v = vt[np.arange(len(vt)), np.where(use_max, 0, vt.shape[1] - 1)]
    if kind == POSITIVE_ORTHANT:
        pos = np.clip(v, 0.0, None)
        neg = np.clip(-v, 0.0, None)
        v = np.where((_norms(neg) > _norms(pos))[:, None], neg, pos)
    v = v / _norms(v)[:, None]
    cand = _norms(np.matmul(a, v[:, :, None])[:, :, 0])
    better = np.where(use_max, cand > current, cand < current)
    return np.where(better[:, None], v, side), np.where(better, cand, current)


def _alternate(images, kinds, x, y, use_max, max_iters, tol):
    """Alternating runs from starts x (T, S) and y (T, F) in lockstep, max
    where use_max, else min; values, x, y and converged flags in order.

    With B = images (S, F, N), T(x, y) = A(x) y = A(y) x for A(x) = sum_a
    x_a B[a] and A(y) = sum_b y_b B[:, b]: no step assumes T symmetric.
    Members take lone runs' steps bit for bit (stacked products and SVDs
    are the same BLAS and LAPACK calls) and leave on the step they converge.
    """
    images_t = np.ascontiguousarray(images.transpose(1, 0, 2))
    current = _norms(np.matmul(_restricted(x, images), y[:, :, None])[:, :, 0])
    out = [current.copy(), x.copy(), y.copy()]
    converged = np.zeros(len(x), dtype=bool)
    live = np.arange(len(x))
    for _ in range(max_iters):
        previous = current
        y, current = _half_step(_restricted(x, images), use_max, kinds[1], current, y)
        x, current = _half_step(_restricted(y, images_t), use_max, kinds[0], current, x)
        stop = np.abs(previous - current) < tol
        for held, now in zip(out, (current, x, y)):
            held[live] = now
        if stop.any():
            converged[live[stop]] = True
            keep = ~stop
            live, x, y, current, use_max = (
                live[keep], x[keep], y[keep], current[keep], use_max[keep])
            if not live.size:
                break
    return (*out, converged)


def estimate_alternating(spec: BilinearMapSpec, cone_x: ConeSpec, cone_y: ConeSpec,
                         restarts: int = 8, max_iters: int = 200,
                         tol: float = 1e-9, seed: int = 0) -> RnmpEstimate:
    """Alternating singular-direction search for alpha (min) and beta (max).

    Fixing one argument makes the restricted map linear; the update picks
    the extreme right singular direction of that matrix, built from the
    basis images, projected to the cone for positive orthants.  Updates
    are only accepted when they improve, so the objective is monotone
    across iterations.  Each restart's start comes from its own stream, so
    all are drawn first and every restart's min and max runs are one stack.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    images = basis_images(spec, cone_x.support, cone_y.support)
    rngs = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(restarts))
    x0, y0 = zip(*[(unit_cone_coefficients(cone_x, 1, rng),
                    unit_cone_coefficients(cone_y, 1, rng)) for rng in rngs])
    kinds = (cone_x.kind, cone_y.kind)
    # members 0..restarts-1 are the min runs, the rest the max runs
    val, x, y, converged = _alternate(images, kinds, np.concatenate(x0 * 2),
                                      np.concatenate(y0 * 2),
                                      np.repeat([False, True], restarts), max_iters, tol)
    # the first restart wins ties, as in a scan in restart order
    i_a = int(np.argmin(val[:restarts]))
    i_b = restarts + int(np.argmax(val[restarts:]))

    return RnmpEstimate(
        support_pair=(cone_x.support, cone_y.support),
        cone_kinds=kinds,
        alpha_est=float(val[i_a]),
        beta_est=float(val[i_b]),
        alpha_witness=(_embed(x[i_a], cone_x), _embed(y[i_a], cone_y)),
        beta_witness=(_embed(x[i_b], cone_x), _embed(y[i_b], cone_y)),
        method="alternating",
        restarts=restarts,
        tol=tol,
        converged=bool(converged[i_a] and converged[i_b]),
    )


def _sphere_grid(dim: int, kind: str, g: int) -> np.ndarray:
    """Deterministic angular grid of unit coefficient vectors.

    Subspace: polar angles on [0, pi], azimuth on [0, 2pi); positive
    orthant: all angles on [0, pi/2] so every coordinate is nonnegative.
    A 1-dimensional cone has the single direction e (the ratio is
    invariant under flipping the sign of a whole argument).
    """
    if dim == 1:
        return np.ones((1, 1))
    if kind == POSITIVE_ORTHANT:
        axes = [np.linspace(0.0, np.pi / 2, g)] * (dim - 1)
    else:
        axes = [np.linspace(0.0, np.pi, g)] * (dim - 2) + [
            np.linspace(0.0, 2 * np.pi, g, endpoint=False)
        ]
    # angle k varies along axis k, the last fastest: meshgrid's row order
    coords = np.empty((g,) * (dim - 1) + (dim,))
    sin_prod = 1.0
    for k, theta in enumerate(axes):
        along_k = (g,) + (1,) * (dim - 2 - k)
        coords[..., k] = sin_prod * np.cos(theta).reshape(along_k)
        sin_prod = sin_prod * np.sin(theta).reshape(along_k)
    coords[..., dim - 1] = sin_prod
    return coords.reshape(-1, dim)


def certify_exhaustive(spec: BilinearMapSpec, cone_x: ConeSpec, cone_y: ConeSpec,
                       grid_per_dim: int = 64) -> RnmpEstimate:
    """Deterministic min/max of the ratio over an angular product grid.

    Feasible only for small cone dimensions; the pair count is capped at
    10^8.  Serves as the oracle the randomized estimators are tested
    against: its resolution error is O(grid spacing) in the worst case.
    """
    if grid_per_dim < 3:
        raise ValueError("grid_per_dim must be >= 3")
    n_pairs = grid_per_dim ** (cone_x.dim - 1 + cone_y.dim - 1)
    if n_pairs > GRID_GUARD:
        raise ValueError(f"grid of {n_pairs} pairs exceeds the {GRID_GUARD} guard")
    images = basis_images(spec, cone_x.support, cone_y.support)
    xs = _sphere_grid(cone_x.dim, cone_x.kind, grid_per_dim)
    same = (cone_y.dim, cone_y.kind) == (cone_x.dim, cone_x.kind)
    ys = xs if same else _sphere_grid(cone_y.dim, cone_y.kind, grid_per_dim)

    # G[(a,a'),(b,b')] = <B[a,b], B[a',b']> evaluates ||T(x,y)||^2 for
    # whole grids at once
    s, f = cone_x.dim, cone_y.dim
    gram = np.einsum("abn,cdn->acbd", images, images).reshape(s * s, f * f)
    xx = (xs[:, :, None] * xs[:, None, :]).reshape(xs.shape[0], s * s)
    left = xx @ gram  # (a, F^2)

    best_min = np.inf
    best_max = -np.inf
    arg_min = arg_max = (0, 0)
    chunk = max(1, int(4_000_000 // max(1, xs.shape[0])))
    for start in range(0, ys.shape[0], chunk):
        yc = ys[start:start + chunk]
        yy = (yc[:, :, None] * yc[:, None, :]).reshape(yc.shape[0], f * f)
        r2 = left @ yy.T  # (a, c)
        np.clip(r2, 0.0, None, out=r2)
        flat_min = int(np.argmin(r2))
        flat_max = int(np.argmax(r2))
        if r2.flat[flat_min] < best_min:
            best_min = float(r2.flat[flat_min])
            a, c = np.unravel_index(flat_min, r2.shape)
            arg_min = (int(a), start + int(c))
        if r2.flat[flat_max] > best_max:
            best_max = float(r2.flat[flat_max])
            a, c = np.unravel_index(flat_max, r2.shape)
            arg_max = (int(a), start + int(c))

    wit_min = (_embed(xs[arg_min[0]], cone_x), _embed(ys[arg_min[1]], cone_y))
    wit_max = (_embed(xs[arg_max[0]], cone_x), _embed(ys[arg_max[1]], cone_y))
    return RnmpEstimate(
        support_pair=(cone_x.support, cone_y.support),
        cone_kinds=(cone_x.kind, cone_y.kind),
        alpha_est=float(np.sqrt(best_min)),
        beta_est=float(np.sqrt(best_max)),
        alpha_witness=wit_min,
        beta_witness=wit_max,
        method="grid",
        restarts=grid_per_dim,
        tol=1e-6,
    )
