"""Supports, canonical cones and uniform draws from their unit spheres.

The combinatorial side of every sparse model used here: an index set
I ⊆ {0, ..., N-1}, the canonical subspace span{e_i, i ∈ I}, and its
positive-orthant restriction {x ∈ span{e_i} : x_i >= 0}.  All types are
immutable value objects; the samplers draw from the numpy Generator they
are given, so a caller that seeds the generator fixes the draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

SUBSPACE = "subspace"
POSITIVE_ORTHANT = "positive_orthant"
CONE_KINDS = (SUBSPACE, POSITIVE_ORTHANT)

# below this norm a drawn vector or image is degenerate: redrawn or skipped
DEGENERATE_NORM = 1e-12


@dataclass(frozen=True)
class Support:
    """Sorted index set modulo an ambient dimension.

    `indices` must be strictly increasing, each in [0, ambient_dim).  The
    empty support is forbidden.  Sizes 1 are accepted everywhere although
    the embedding guarantees downstream assume sizes >= 2; the bounds
    module enforces that range where it matters.
    """

    indices: tuple
    ambient_dim: int = field(metadata={"json": "n"})

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        object.__setattr__(self, "indices", idx)
        n = self.ambient_dim
        if n < 1:
            raise ValueError(f"ambient_dim must be positive, got {n}")
        if len(idx) == 0:
            raise ValueError("empty support is forbidden")
        if any(i < 0 or i >= n for i in idx):
            raise ValueError(f"indices {idx} out of range [0, {n})")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError(f"indices {idx} must be strictly increasing")

    @property
    def size(self) -> int:
        return len(self.indices)

    def as_array(self) -> np.ndarray:
        return np.array(self.indices, dtype=int)


@dataclass(frozen=True)
class ConeSpec:
    """A canonical cone: the subspace span{e_i, i ∈ I} or its positive orthant.

    The positive orthant is a convex cone (closed under nonnegative
    scaling); the subspace is the full span.
    """

    support: Support
    kind: str

    def __post_init__(self):
        if self.kind not in CONE_KINDS:
            raise ValueError(f"kind must be one of {CONE_KINDS}, got {self.kind!r}")

    @property
    def dim(self) -> int:
        return self.support.size

    @property
    def ambient_dim(self) -> int:
        return self.support.ambient_dim


def support_from_indices(indices: Iterable[int], n: int) -> Support:
    """Build a Support from an arbitrary iterable (sorted and deduplicated)."""
    return Support(tuple(sorted(set(int(i) for i in indices))), n)


def support_sum(i_set: Support, j_set: Support) -> Support:
    """Modular sumset I ⊕ J = {(i + j) mod N : i ∈ I, j ∈ J}.

    This is exactly the support of the image of the coordinate subspaces
    under circular convolution.  |I ⊕ J| <= min(N, |I|·|J|).
    """
    n = i_set.ambient_dim
    if j_set.ambient_dim != n:
        raise ValueError(
            f"ambient dims differ: {n} vs {j_set.ambient_dim}"
        )
    sums = {(i + j) % n for i in i_set.indices for j in j_set.indices}
    return Support(tuple(sorted(sums)), n)


def is_properly_separated(i_set: Support, j_set: Support) -> bool:
    """True iff the sumset does not collide: |I ⊕ J| = |I|·|J|.

    On properly separated support pairs the circular convolution is
    norm-multiplicative (its image is isometric to simple tensors).
    """
    return support_sum(i_set, j_set).size == i_set.size * j_set.size


def row_norms(columns: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of a (T, K) array: the root of its
    squares summed column by column in column order, from zeros, so no
    squared copy is built (the columns are contiguous if F-ordered).
    Below 8 columns numpy sums in the same order, so this is
    np.linalg.norm(columns, axis=1) bit for bit; with no columns it is 0."""
    total = np.zeros(columns.shape[0])
    for c in range(columns.shape[1]):
        total += np.square(columns[:, c])
    return np.sqrt(total)


def unit_cone_coefficients(cone: ConeSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `count` unit vectors uniformly from the cone's sphere section,
    as their (count, S) coefficients on the support coordinates.

    Subspace: gaussian direction, normalized.  Positive orthant: absolute
    value of the same construction, which is exactly uniform on the
    orthant section of the sphere by symmetry of the gaussian.
    """
    s = cone.dim
    g = rng.standard_normal((count, s))
    norms = row_norms(g)
    # resample the (measure-zero) degenerate rows
    while np.any(norms < DEGENERATE_NORM):
        bad = norms < DEGENERATE_NORM
        g[bad] = rng.standard_normal((int(bad.sum()), s))
        norms = row_norms(g)
    g /= norms[:, None]
    if cone.kind == POSITIVE_ORTHANT:
        np.abs(g, out=g)
    return g


def unit_cone_directions(cone: ConeSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    """`unit_cone_coefficients` embedded as a (count, N) dense array; the
    same draws from the same stream."""
    out = np.zeros((count, cone.ambient_dim))
    out[:, cone.support.as_array()] = unit_cone_coefficients(cone, count, rng)
    return out
