"""Supports, canonical cones and uniform draws from their unit spheres.

The combinatorial side of every sparse model used here: an index set
I ⊆ {0, ..., N-1}, the canonical subspace span{e_i, i ∈ I}, and its
positive-orthant restriction {x ∈ span{e_i} : x_i >= 0}.  All types are
immutable value objects; the samplers draw from the numpy Generator they
are given, so a caller that seeds the generator fixes the draw.
"""

from __future__ import annotations

from bisect import bisect_left
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


def _sum_squares(columns: np.ndarray, positions: list, lo: int, hi: int):
    """Rowwise sum of the squares of the columns at positions lo <= p < hi
    (columns[:, c] sits at positions[c], zeros everywhere else), in the
    order of numpy's pairwise float sum over coordinates lo..hi-1: in
    sequence below 8 terms, in eight running sums up to 128 terms, and by
    halving (at a multiple of 8) above that.  A zero square adds an exact
    0, so the zero coordinates are skipped, and a sum of none is 0.0."""
    first, last = bisect_left(positions, lo), bisect_left(positions, hi)
    if first == last:
        return 0.0
    n = hi - lo
    if n > 128:
        mid = lo + n // 2 - n // 2 % 8
        out = _sum_squares(columns, positions, lo, mid)
        out += _sum_squares(columns, positions, mid, hi)
        return out
    out, rest = 0.0, first
    if n >= 8:
        rest = bisect_left(positions, hi - n % 8)
        r = [0.0] * 8
        for c in range(first, rest):
            r[(positions[c] - lo) % 8] += np.square(columns[:, c])
        # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i, j in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)):
            r[i] += r[j]
        out = r[0]
    for c in range(rest, last):
        out += np.square(columns[:, c])
    return out


def row_norms(columns: np.ndarray, positions=None, width=None) -> np.ndarray:
    """np.linalg.norm(a, axis=1), bit for bit, of the (T, width) array a
    holding columns[:, c] in column positions[c] (increasing) and zeros
    elsewhere, or of a = columns when no positions are given; taken one
    column at a time (contiguous if F-ordered): neither a nor its squares are built."""
    if positions is None:
        positions, width = range(columns.shape[1]), columns.shape[1]
    total = _sum_squares(columns, [int(p) for p in positions], 0, width)
    return np.sqrt(total) if np.ndim(total) else np.zeros(columns.shape[0])


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
