"""Closed-form embedding constants, covering numbers and probability bounds.

Everything here is deterministic arithmetic: the case constant d, the
exponent rate c0, covering-number upper bounds for balls and positive
cones, the resulting lower bound on the embedding success probability,
and a solver for the sample count needed in the union-bound regime over
all canonical support pairs.

Conventions fixed for reproducibility: natural logarithm throughout
(including the "log S" in the Rogers covering bound), probabilities
reported raw (possibly negative, i.e. vacuous) alongside a clamped copy,
and exact binomial pair counts via log-gamma rather than the looser
N^(S+F) estimate (which is reported alongside).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

BALL = "ball"
POSITIVE_CONE_ROGERS = "positive_cone_rogers"
POSITIVE_CONE_SIMPLIFIED = "positive_cone_simplified"
COVERING_KINDS = (BALL, POSITIVE_CONE_ROGERS, POSITIVE_CONE_SIMPLIFIED)

CASE_POINTWISE = "pointwise"
CASE_POSITIVE_CONE_CONV = "positive_cone_conv"
CASE_TENSOR_CONV = "tensor_conv"
CASES = (CASE_POINTWISE, CASE_POSITIVE_CONE_CONV, CASE_TENSOR_CONV)

# net radius divisor for the plain K-sparse subspace route (3/(delta/4) = 12/delta)
POINTWISE_NET_DIVISOR = 4.0

# covering numbers are (base/eps)^dim, times 7 dim ln(dim) for the Rogers form
_COVERING_BASE = {BALL: 3.0, POSITIVE_CONE_ROGERS: 4.0, POSITIVE_CONE_SIMPLIFIED: 18.0}


def d_constant(alpha: float, beta: float) -> float:
    """Case constant d(alpha, beta): 12 when alpha = beta (norm
    multiplicativity), else 7 (beta/alpha) (2 + sqrt(alpha)).

    Equality is tested exactly on the inputs as given; callers holding
    numerical estimates decide equality upstream.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if beta < alpha:
        raise ValueError(f"need beta >= alpha, got alpha={alpha}, beta={beta}")
    if alpha == beta:
        return 12.0
    # association chosen so the alpha = 1 specialization reproduces the
    # printed constant 21*beta bit-for-bit
    return 7.0 * (2.0 + math.sqrt(alpha)) * (beta / alpha)


def c0(delta: float) -> float:
    """Exponential rate (3 delta^2 - delta^3) / 48 at RIP level delta ∈ (0,1)."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return (3.0 * delta ** 2 - delta ** 3) / 48.0


def covering_bound(kind: str, dim: int, eps: float) -> float:
    """Covering-number upper bound N(X^1, X^eps) for the named geometry.

    ball:                      (3/eps)^dim
    positive_cone_rogers:      (4/eps)^dim * 7 dim ln(dim), dim >= 3
    positive_cone_simplified:  (18/eps)^dim
    """
    if kind not in COVERING_KINDS:
        raise ValueError(f"kind must be one of {COVERING_KINDS}, got {kind!r}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    if kind != POSITIVE_CONE_ROGERS:
        return (_COVERING_BASE[kind] / eps) ** dim
    if dim < 3:
        raise ValueError("the Rogers form needs dim >= 3; use positive_cone_simplified")
    return (_COVERING_BASE[kind] / eps) ** dim * 7.0 * dim * math.log(dim)


def rip_probability(cov_x: float, cov_y: float, delta: float, m: int) -> float:
    """Raw lower bound 1 - 2 cov_x cov_y exp(-c0(delta) M); not clamped.

    M = 0 is admitted as the degenerate case (the bound is then <= -1,
    i.e. vacuous, which is still informative at desk scale).
    """
    if cov_x < 1 or cov_y < 1:
        raise ValueError("covering numbers must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    return 1.0 - 2.0 * cov_x * cov_y * math.exp(-c0(delta) * m)


def _case_setup(case: str, s: int, f: int, delta: float):
    """Per-case (beta, d, eps, covering kind, covering dims): the one
    source of the case constants behind every bound in this module.
    alpha is 1 in every case; a covering dim of None stands for a
    covering number of 1."""
    if case == CASE_POINTWISE:
        eps = delta / POINTWISE_NET_DIVISOR
        return 1.0, POINTWISE_NET_DIVISOR, eps, BALL, (min(s, f), None)
    if case == CASE_TENSOR_CONV:
        beta, cover_kind = 1.0, BALL
    elif case == CASE_POSITIVE_CONE_CONV:
        beta, cover_kind = math.sqrt(min(s, f)), POSITIVE_CONE_SIMPLIFIED
    else:
        raise ValueError(f"case must be one of {CASES}, got {case!r}")
    d = d_constant(1.0, beta)
    return beta, d, delta / d, cover_kind, (s, f)


def _check_model_range(s: int, f: int, delta: float, n: Optional[int]):
    if s < 2 or f < 2:
        raise ValueError(f"the embedding guarantee needs S, F >= 2, got S={s}, F={f}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if n is not None and s * f > n:
        raise ValueError(f"the sparse model needs S*F <= N, got {s}*{f} > {n}")


def application_probability(case: str, s: int, f: int, delta: float, m: int) -> float:
    """Closed-form success bound for the three worked model classes.

    pointwise           1 - 2 (12/delta)^min{S,F} exp(-c0 M)
    positive_cone_conv  1 - 2 (378 sqrt(min{S,F})/delta)^(S+F) exp(-c0 M)
    tensor_conv         1 - 2 (36/delta)^(S+F) exp(-c0 M)

    Implemented as the composition of d_constant, covering_bound and
    rip_probability so the constants emerge rather than being hardcoded.
    """
    return compose_bound_report(case, s, f, delta, m).success_probability_lower


@dataclass(frozen=True)
class BoundInputs:
    """The model and case a BoundReport evaluates."""

    alpha: float
    beta: float
    delta: float
    m: int
    s: int
    f: int
    n: Optional[int]
    case: str


@dataclass(frozen=True)
class BoundReport:
    """Assembled bound evaluation: constants, covering numbers, raw and
    clamped success probability, plus the inputs that produced them."""

    d: float
    c0: float
    covering_x: float
    covering_y: float
    success_probability_lower: float  # raw, may be negative
    success_probability_clamped: float
    inputs: BoundInputs


def compose_bound_report(case: str, s: int, f: int, delta: float, m: int,
                         n: Optional[int] = None) -> BoundReport:
    """Build the full BoundReport for one of the named model classes."""
    _check_model_range(s, f, delta, n)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    beta, d, eps, cover_kind, dims = _case_setup(case, s, f, delta)
    cov_x = covering_bound(cover_kind, dims[0], eps)
    cov_y = 1.0 if dims[1] is None else covering_bound(cover_kind, dims[1], eps)
    raw = rip_probability(cov_x, cov_y, delta, m)
    return BoundReport(
        d=d,
        c0=c0(delta),
        covering_x=cov_x,
        covering_y=cov_y,
        success_probability_lower=raw,
        success_probability_clamped=min(1.0, max(0.0, raw)),
        inputs=BoundInputs(alpha=1.0, beta=beta, delta=delta, m=m, s=s, f=f, n=n,
                           case=case),
    )


def _log_binomial(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


@dataclass(frozen=True)
class SampleCountInputs:
    """The model, case and failure target a SampleCountReport solves for."""

    n: int
    s: int
    f: int
    delta: float
    p_target: float
    case: str


@dataclass(frozen=True)
class SampleCountReport:
    """Solved sample counts for the union bound over all canonical
    support pairs: `m` uses the exact binomial pair count, `m_loose` the
    N^(S+F) estimate."""

    m: int
    m_loose: int
    log_pairs_exact: float
    log_pairs_loose: float
    inputs: SampleCountInputs


def union_bound_samples(n: int, s: int, f: int, delta: float, p_target: float,
                        case: str = CASE_TENSOR_CONV) -> SampleCountReport:
    """Smallest M with 2 L cov_x cov_y exp(-c0 M) <= p_target, where L
    counts the canonical support pairs and cov_x cov_y is the case's
    covering product, as in compose_bound_report.  Solved exactly in log
    domain (then ceiled), so the result scales as (S + F) log N + log(1/p).

    p_target = 1 is admitted (degenerate: only the union-bound mass has
    to be beaten).
    """
    _check_model_range(s, f, delta, n)
    if not 0.0 < p_target <= 1.0:
        raise ValueError(f"p_target must lie in (0, 1], got {p_target}")

    _, _, eps, cover_kind, dims = _case_setup(case, s, f, delta)
    log_cover = sum(dim * math.log(_COVERING_BASE[cover_kind] / eps)
                    for dim in dims if dim is not None)

    log_l_exact = _log_binomial(n, s) + _log_binomial(n, f)
    log_l_loose = (s + f) * math.log(n)
    rate = c0(delta)

    def solve(log_l):
        need = math.log(2.0) + log_l + log_cover - math.log(p_target)
        return max(1, math.ceil(need / rate))

    return SampleCountReport(
        m=solve(log_l_exact),
        m_loose=solve(log_l_loose),
        log_pairs_exact=log_l_exact,
        log_pairs_loose=log_l_loose,
        inputs=SampleCountInputs(n=n, s=s, f=f, delta=delta, p_target=p_target, case=case),
    )
