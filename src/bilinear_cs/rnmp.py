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
shape (S, F, N)); every estimator works on B in coefficient space.  One
sampler, `cone_pair_blocks`, draws the random unit pairs of the brute
sweep, the alternating starts and `sensing.rip_monte_carlo` as (T, S)
and (T, F) coefficient blocks, and `apply_restricted_batch` evaluates
them without embedding a sample at length N.  It accumulates the images as
coordinate rows, one per coordinate of the output support (at most S F
of the N under convolution), and hands back their (T, K) transpose; an
image's norm is the root of its squares summed over those K coordinates
in order (`sparse_model.row_norms`).  The alternating search runs the min
and max runs of all its restarts as one lockstep stack (`_alternate`).
The certifier grids one cone and solves the other exactly: with the
outer argument u fixed, T(u, .) is the matrix A(u) = sum_k u_k B_k,
whose extreme singular values are the extreme ratios over an inner
subspace.  The sampler and the certifier work in blocks of one
working-set budget, `_BLOCK` floats: block size changes no result, since
draws fill in stream order and the first extreme wins across blocks.

Three estimators with different trade-offs:

  estimate_brute        random unit pairs; alpha upper / beta lower bounds
  estimate_alternating  block coordinate descent on singular directions
  certify_exhaustive    angular grid over one cone, batched SVDs over the
                        other; a rigorous bracket on alpha and beta from
                        the grid's covering radius (small dimensions only)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .bilinear_ops import BilinearMapSpec, apply_map_batch
from .sparse_model import (POSITIVE_ORTHANT, ConeSpec, Support, row_norms,
                           unit_cone_coefficients)

GRID_GUARD = 10 ** 8
_BLOCK = 65_536  # floats in the working set of a sampled block or a certifier chunk
_TOL = 1e-9  # an alternating run stops once a step improves it by less


@dataclass(frozen=True)
class RnmpEstimate:
    """Estimated multiplicativity constants with attaining direction pairs.

    Witnesses are unit-norm vectors supported on the declared cones; each
    reproduces its reported constant, up to rounding, when the ratio is
    re-evaluated.  `converged` is False when the alternating method hit
    its iteration cap before the improvement dropped below `_TOL`.  Each
    estimator returns a subclass whose added fields are its own settings.
    """

    support_x: Support
    support_y: Support
    cone_kinds: Tuple[str, str]
    alpha_est: float
    beta_est: float
    alpha_witness_x: np.ndarray
    alpha_witness_y: np.ndarray
    beta_witness_x: np.ndarray
    beta_witness_y: np.ndarray
    method: str  # brute | alternating | grid
    converged: bool

    def __post_init__(self):
        if not 0.0 <= self.alpha_est <= self.beta_est:
            raise ValueError(
                f"need 0 <= alpha <= beta, got alpha={self.alpha_est}, beta={self.beta_est}"
            )


@dataclass(frozen=True)
class BruteEstimate(RnmpEstimate):
    samples: int


@dataclass(frozen=True)
class AlternatingEstimate(RnmpEstimate):
    restarts: int
    tol: float


@dataclass(frozen=True)
class GridEstimate(RnmpEstimate):
    """The certified interval [alpha_lower, alpha_upper] on alpha and
    [beta_lower, beta_upper] on beta, from a grid of `outer_points` with
    covering radius `covering_radius` (`certify_exhaustive`)."""

    grid_per_dim: int
    alpha_lower: float
    alpha_upper: float
    beta_lower: float
    beta_upper: float
    covering_radius: float
    outer_points: int


def _estimate(cls, cone_x: ConeSpec, cone_y: ConeSpec, alpha: float, beta: float,
              alpha_witness: tuple, beta_witness: tuple, **fields) -> RnmpEstimate:
    """An estimate of type cls on the cone pair, from its (x, y) witness
    pairs; `fields` are the rest of cls's fields."""
    return cls(support_x=cone_x.support, support_y=cone_y.support,
               cone_kinds=(cone_x.kind, cone_y.kind), alpha_est=alpha, beta_est=beta,
               alpha_witness_x=alpha_witness[0], alpha_witness_y=alpha_witness[1],
               beta_witness_x=beta_witness[0], beta_witness_y=beta_witness[1], **fields)


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


def apply_restricted_batch(images: np.ndarray, xc: np.ndarray, yc: np.ndarray) -> tuple:
    """Rowwise T(x_t, y_t) from coefficient batches xc (T, S) and yc (T, F)
    on the support pair of the basis images B = `images`: the output
    support, the K increasing coordinates k where some B[a, b, k] is
    nonzero (every image is 0 elsewhere), and the images there as a (T, K)
    F-ordered view, the transpose, not a copy, of the C-ordered (K, T)
    coordinate rows it accumulates, one contiguous row per coordinate.

    Row k sums B[a, b, k] yc[:, b] xc[:, a] in sequence over the nonzeros
    of B[:, :, k] with b ascending, then a: the order in which
    `apply_map_batch` sums, so convolution and pointwise images keep its
    bits.
    """
    s, f, n = images.shape
    coeffs = images.transpose(1, 0, 2).reshape(f * s, n)  # row b * s + a
    support = np.flatnonzero(coeffs.any(axis=0))
    coeffs = coeffs[:, support]
    products = [yc[:, b] * xc[:, a] for b in range(f) for a in range(s)]
    rows = np.zeros((support.size, xc.shape[0]))
    for k, j in zip(*np.nonzero(coeffs.T)):
        rows[k] += coeffs[j, k] * products[j]
    return support, rows.T


def _embed(coeffs: np.ndarray, cone: ConeSpec) -> np.ndarray:
    v = np.zeros(cone.ambient_dim)
    v[cone.support.as_array()] = coeffs
    return v


def _brute_rows(images: np.ndarray) -> int:
    """Pairs per block of `cone_pair_blocks`: one holds S + F coefficients,
    S F pair products and a float per coordinate of the output support."""
    s, f, _ = images.shape
    return max(1, _BLOCK // (s + f + s * f + int(np.count_nonzero(images.any(axis=(0, 1))))))


def cone_pair_blocks(images: np.ndarray, cone_x: ConeSpec, cone_y: ConeSpec,
                     samples: int, seed: int):
    """Random unit pairs on the cone pair of the basis images, `samples`
    in all, in blocks of `_brute_rows(images)`; a lone last pair joins the
    block before it (a one-row product is a gemv).  The x and y draws
    come from two streams spawned off `seed`, so a larger `samples`
    extends (rather than reshuffles) the sweep.  Yields (xc, yc, support,
    zs, norms) a block: the (T, S) and (T, F) coefficients,
    `apply_restricted_batch`'s output support and (T, K) images, and the
    images' norms (`row_norms` over the support's coordinates).
    """
    rng_x, rng_y = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    rows = _brute_rows(images)
    while samples > 0:
        count = samples if samples <= rows + 1 else rows
        xc = unit_cone_coefficients(cone_x, count, rng_x)
        yc = unit_cone_coefficients(cone_y, count, rng_y)
        support, zs = apply_restricted_batch(images, xc, yc)
        yield xc, yc, support, zs, row_norms(zs)
        samples -= count


def estimate_brute(spec: BilinearMapSpec, cone_x: ConeSpec, cone_y: ConeSpec,
                   samples: int = 10_000, seed: int = 0) -> BruteEstimate:
    """Monte Carlo sweep over random unit cone pairs (`cone_pair_blocks`).

    With finitely many samples alpha_est is an upper bound on the true
    pairwise infimum and beta_est a lower bound on the supremum; the
    first extreme of the sweep is the witness.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    images = basis_images(spec, cone_x.support, cone_y.support)
    best_min, best_max = np.inf, -np.inf
    for xc, yc, _, _, r in cone_pair_blocks(images, cone_x, cone_y, samples, seed):
        i_min, i_max = int(np.argmin(r)), int(np.argmax(r))
        if r[i_min] < best_min:
            best_min = float(r[i_min])
            wit_min = (_embed(xc[i_min], cone_x), _embed(yc[i_min], cone_y))
        if r[i_max] > best_max:
            best_max = float(r[i_max])
            wit_max = (_embed(xc[i_max], cone_x), _embed(yc[i_max], cone_y))
        del xc, yc, r  # not held while the next block is drawn

    return _estimate(BruteEstimate, cone_x, cone_y, best_min, best_max, wit_min, wit_max,
                     method="brute", converged=True, samples=samples)


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


def _alternate(images, kinds, x, y, use_max, max_iters):
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
        stop = np.abs(previous - current) < _TOL
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
                         seed: int = 0) -> AlternatingEstimate:
    """Alternating singular-direction search for alpha (min) and beta (max).

    Fixing one argument makes the restricted map linear; the update picks
    the extreme right singular direction of that matrix, built from the
    basis images, projected to the cone for positive orthants.  Updates
    are only accepted when they improve, so the objective is monotone
    across iterations; a run stops once a step gains less than `_TOL`.
    The starts are the first `restarts` pairs of `estimate_brute`'s sweep
    at the seed, so the estimates are at least as extreme as that sweep's
    (up to rounding).  All restarts' min and max runs are one stack.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    images = basis_images(spec, cone_x.support, cone_y.support)
    x0, y0 = (np.concatenate(side) for side in zip(*(
        block[:2] for block in cone_pair_blocks(images, cone_x, cone_y, restarts, seed))))
    kinds = (cone_x.kind, cone_y.kind)
    # members 0..restarts-1 are the min runs, the rest the max runs
    val, x, y, converged = _alternate(images, kinds, np.tile(x0, (2, 1)), np.tile(y0, (2, 1)),
                                      np.repeat([False, True], restarts), max_iters)
    # the first restart wins ties, as in a scan in restart order
    i_a = int(np.argmin(val[:restarts]))
    i_b = restarts + int(np.argmax(val[restarts:]))

    return _estimate(AlternatingEstimate, cone_x, cone_y, float(val[i_a]), float(val[i_b]),
                     (_embed(x[i_a], cone_x), _embed(y[i_a], cone_y)),
                     (_embed(x[i_b], cone_x), _embed(y[i_b], cone_y)),
                     method="alternating", converged=bool(converged[i_a] and converged[i_b]),
                     restarts=restarts, tol=_TOL)


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


def _covering_radius(dim: int, kind: str, g: int) -> float:
    """A chord radius rho: every unit vector of the cone lies within rho of
    a point of `_sphere_grid(dim, kind, g)` (on a 1-dimensional subspace,
    up to the sign the ratio ignores).

    Moving angle k by d moves the point along an arc of length at most |d|
    (its speed is a product of sines), and each angle lies within half its
    spacing Delta_k of a grid angle, so rho = sum_k Delta_k / 2.
    """
    if dim == 1:
        return 0.0
    if kind == POSITIVE_ORTHANT:
        return (dim - 1) * np.pi / (4 * (g - 1))
    return (dim - 2) * np.pi / (2 * (g - 1)) + np.pi / g


def _lipschitz(slices: np.ndarray) -> float:
    """L = sqrt(sum_k ||slices[k]||_2^2), which bounds
    ||sum_k d_k slices[k]||_2 by L ||d|| for every d, in the cone or not."""
    return float(np.sqrt(np.sum(np.linalg.svd(slices, compute_uv=False)[:, 0] ** 2)))


def certify_exhaustive(spec: BilinearMapSpec, cone_x: ConeSpec, cone_y: ConeSpec,
                       grid_per_dim: int = 64) -> GridEstimate:
    """Rigorous bracket on alpha and beta: an angular grid over one cone
    (the outer side) and the exact extremes over the other (the inner side).

    With the outer unit vector u fixed, T(u, v) = A(u) v for the matrix
    A(u) = sum_k u_k B_k of basis images, so over the unit vectors of an
    inner subspace the ratio ranges over [sigma_min, sigma_max] of A(u):
    one batched SVD per chunk of the grid.  A subspace is the inner side,
    the larger one when both cones are subspaces.  On two positive
    orthants, where min ||A(u) v|| over v >= 0 is no SVD, the inner side
    is the inner cone's grid, evaluated through the Gram matrix of the
    basis images.

    alpha_est and beta_est are the extremes found, attained by their
    witnesses, so alpha <= alpha_est and beta >= beta_est.  Every outer
    cone vector lies within rho of a grid point (`_covering_radius`) and
    ||A(d)|| <= L ||d|| (`_lipschitz`), so alpha >= alpha_est - L rho and
    beta <= beta_est + L rho; on two orthants the slack is
    L_x rho_x + L_y rho_y.  The estimate holds the four bounds, rho (the
    larger of the two on orthants) and the outer grid's size.  The pair
    count of the product grid over both cones is capped at 10^8.
    """
    if grid_per_dim < 3:
        raise ValueError("grid_per_dim must be >= 3")
    n_pairs = grid_per_dim ** (cone_x.dim - 1 + cone_y.dim - 1)
    if n_pairs > GRID_GUARD:
        raise ValueError(f"grid of {n_pairs} pairs exceeds the {GRID_GUARD} guard")
    images = basis_images(spec, cone_x.support, cone_y.support)
    flip = cone_x.kind != POSITIVE_ORTHANT and (
        cone_y.kind == POSITIVE_ORTHANT or cone_x.dim > cone_y.dim)
    outer, inner = (cone_y, cone_x) if flip else (cone_x, cone_y)
    # slices[k] is B_k, the (inner dim, N) image of outer coefficient k
    slices = images.transpose(1, 0, 2) if flip else images
    k, m, n = slices.shape
    us = _sphere_grid(k, outer.kind, grid_per_dim)
    rho = _covering_radius(k, outer.kind, grid_per_dim)
    slack = _lipschitz(slices) * rho
    exact = inner.kind != POSITIVE_ORTHANT
    if exact:
        per_point = m * n
    else:
        # G[(k,k'),(l,l')] = <B[k,l], B[k',l']> evaluates ||T(u,v)||^2 for
        # whole grids at once
        vs = _sphere_grid(m, inner.kind, grid_per_dim)
        gram = np.einsum("kln,jpn->kjlp", slices, slices).reshape(k * k, m * m)
        vv = (vs[:, :, None] * vs[:, None, :]).reshape(len(vs), m * m)
        per_point = len(vs)
        inner_rho = _covering_radius(m, inner.kind, grid_per_dim)
        slack += _lipschitz(slices.transpose(1, 0, 2)) * inner_rho
        rho = max(rho, inner_rho)

    def squares(uc):  # ||T(u, v)||^2 for each row u of uc and v of vs
        uu = (uc[:, :, None] * uc[:, None, :]).reshape(len(uc), k * k)
        return (uu @ gram) @ vv.T

    best_lo = np.inf
    best_hi = -np.inf
    chunk = max(1, _BLOCK // per_point)
    for start in range(0, len(us), chunk):
        uc = us[start:start + chunk]
        if exact:
            a = _restricted(uc, slices)
            # the singular value of a one-column A(u) is its norm
            sv = np.linalg.svd(a, compute_uv=False) if m > 1 else _norms(a[:, :, 0])[:, None]
            lo, hi = sv[:, -1], sv[:, 0]
        else:
            r2 = squares(uc)
            lo, hi = (np.sqrt(np.clip(ext(r2, axis=1), 0.0, None)) for ext in (np.min, np.max))
        i_lo, i_hi = int(np.argmin(lo)), int(np.argmax(hi))
        if lo[i_lo] < best_lo:
            best_lo, arg_lo = float(lo[i_lo]), start + i_lo
        if hi[i_hi] > best_hi:
            best_hi, arg_hi = float(hi[i_hi]), start + i_hi

    def witness(i, use_max):
        u = us[i]
        if exact:
            v = np.linalg.svd(_restricted(u[None], slices)[0],
                              full_matrices=False).Vh[0 if use_max else -1]
        else:
            r2 = squares(u[None])[0]
            v = vs[int(np.argmax(r2) if use_max else np.argmin(r2))]
        pair = (_embed(v, inner), _embed(u, outer))
        return pair if flip else pair[::-1]

    return _estimate(GridEstimate, cone_x, cone_y, best_lo, best_hi,
                     witness(arg_lo, False), witness(arg_hi, True),
                     method="grid", converged=True, grid_per_dim=grid_per_dim,
                     alpha_lower=max(0.0, best_lo - slack), alpha_upper=best_lo,
                     beta_lower=best_hi, beta_upper=best_hi + slack,
                     covering_radius=rho, outer_points=len(us))
