"""Bilinear couplings T(s, h) and their closed-form norm inequalities.

Three commutative bilinear maps on R^N are implemented:

  pointwise             z = h ⊙ s               (entrywise product)
  circular_convolution  z_n = Σ_k s_k h_{(n-k) mod N}
  unitary_product       z = √N U*(Us ⊙ Uh)      for a stored unitary U

With U the unitary DFT matrix, the unitary product equals circular
convolution; the direct summation path here is the ground truth and the
transform identity is checked against it in the tests.

The checker evaluates the positive-cone sandwich
||h|| ||s|| <= ||h ⊛ s|| <= sqrt(min{S,F}) ||h|| ||s||, which holds on
entrywise nonnegative inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

POINTWISE = "pointwise"
CIRCULAR_CONVOLUTION = "circular_convolution"
UNITARY_PRODUCT = "unitary_product"
MAP_KINDS = (POINTWISE, CIRCULAR_CONVOLUTION, UNITARY_PRODUCT)

# relative tolerance of analytic identities evaluated in floating point
ANALYTIC_RTOL = 1e-9


@dataclass(frozen=True)
class BilinearMapSpec:
    """Descriptor of the bilinear coupling.

    `unitary` is required (and checked for unitarity to 1e-10) iff
    kind == "unitary_product"; it must be None otherwise.
    """

    kind: str
    ambient_dim: int
    unitary: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in MAP_KINDS:
            raise ValueError(f"kind must be one of {MAP_KINDS}, got {self.kind!r}")
        if self.ambient_dim < 1:
            raise ValueError("ambient_dim must be positive")
        if self.kind == UNITARY_PRODUCT:
            if self.unitary is None:
                raise ValueError("unitary_product requires a stored unitary matrix")
            u = np.array(self.unitary, dtype=complex)
            n = self.ambient_dim
            if u.shape != (n, n):
                raise ValueError(f"unitary must be {n}x{n}, got {u.shape}")
            defect = np.abs(u.conj().T @ u - np.eye(n)).max()
            if defect > 1e-10:
                raise ValueError(f"stored matrix is not unitary (U*U - I defect {defect:.3e})")
            u.setflags(write=False)
            object.__setattr__(self, "unitary", u)
        elif self.unitary is not None:
            raise ValueError(f"kind {self.kind!r} does not take a unitary matrix")


def dft_unitary(n: int) -> np.ndarray:
    """Unitary DFT matrix F with [F]_lk = exp(-2πi l k / N) / sqrt(N)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    l = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(l, l) / n) / np.sqrt(n)


def _coerce(vec, n: int) -> np.ndarray:
    v = np.asarray(vec, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"expected a length-{n} vector, got shape {v.shape}")
    return v


def apply_map(spec: BilinearMapSpec, s, h) -> np.ndarray:
    """Evaluate T(s, h) for the given map; returns a dense real vector.

    For the unitary product the complex intermediates are discarded only
    after checking the imaginary residue is below 1e-9 of the result norm;
    a stored unitary that does not map real pairs to (numerically) real
    outputs is rejected at that point.
    """
    n = spec.ambient_dim
    sv = _coerce(s, n)
    hv = _coerce(h, n)
    # arguments swapped: the batch convolution sums over the nonzeros of
    # its second argument, and summing over those of s keeps the bits of
    # the direct sum  z = sum_k s_k roll(h, k)
    return apply_map_batch(spec, hv[None], sv[None])[0]


def apply_map_batch(spec: BilinearMapSpec, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Rowwise T(xs[t], ys[t]) for (T, N) batches; apply_map is the one-row case."""
    n = spec.ambient_dim
    if xs.shape != ys.shape or xs.ndim != 2 or xs.shape[1] != n:
        raise ValueError(f"batches must share shape (T, {n})")
    if spec.kind == POINTWISE:
        return xs * ys
    if spec.kind == CIRCULAR_CONVOLUTION:
        cols = np.flatnonzero(np.any(ys != 0.0, axis=0))
        z = np.zeros_like(xs)
        for j in cols:
            z += ys[:, j, None] * np.roll(xs, j, axis=1)
        return z
    u = spec.unitary
    w = np.sqrt(n) * (((xs @ u.T) * (ys @ u.T)) @ u.conj())
    scale = np.maximum(np.linalg.norm(w, axis=1), 1.0)
    imag = np.linalg.norm(w.imag, axis=1)
    if np.any(imag > ANALYTIC_RTOL * scale):
        raise ValueError("unitary product of real inputs has non-negligible imaginary residue")
    return np.ascontiguousarray(w.real)


@dataclass(frozen=True)
class NormBoundCheck:
    """Outcome of one norm-inequality evaluation.

    `satisfied` means rhs_lower <= lhs <= rhs_upper up to 1e-9 relative
    slack on each side; `slack` is the margin to the nearer bound.
    """

    lhs: float
    rhs_upper: float
    rhs_lower: float
    satisfied: bool
    slack: float

    @staticmethod
    def evaluate(lhs: float, rhs_upper: float, rhs_lower: float) -> "NormBoundCheck":
        ref = max(1.0, abs(lhs), abs(rhs_upper))
        ref_lo = max(1.0, abs(lhs), abs(rhs_lower))
        ok = (lhs <= rhs_upper + ANALYTIC_RTOL * ref
              and lhs >= rhs_lower - ANALYTIC_RTOL * ref_lo)
        return NormBoundCheck(float(lhs), float(rhs_upper), float(rhs_lower), bool(ok),
                              float(min(rhs_upper - lhs, lhs - rhs_lower)))


def check_positive_cone_bounds(s, h) -> NormBoundCheck:
    """Positive-cone convolution sandwich with S = ||s||_0, F = ||h||_0:

        ||h|| ||s|| <= ||h ⊛ s|| <= sqrt(min{S, F}) ||h|| ||s||

    Both inputs must be entrywise nonnegative.
    """
    sv = np.asarray(s, dtype=float)
    hv = np.asarray(h, dtype=float)
    if sv.min() < 0 or hv.min() < 0:
        raise ValueError("positive-cone bounds require nonnegative entries")
    spec = BilinearMapSpec(CIRCULAR_CONVOLUTION, sv.size)
    lhs = float(np.linalg.norm(apply_map(spec, sv, hv)))
    prod = float(np.linalg.norm(sv) * np.linalg.norm(hv))
    k = min(int(np.count_nonzero(sv)), int(np.count_nonzero(hv)))
    return NormBoundCheck.evaluate(lhs, float(np.sqrt(k)) * prod, rhs_lower=prod)
