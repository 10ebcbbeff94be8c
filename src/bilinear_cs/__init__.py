"""Compressed sensing on the image of sparse bilinear maps.

Library + experiment CLI for studying how well random sub-Gaussian
projections preserve norms on output sets of bilinear couplings
(pointwise products, circular convolutions, unitary-conjugated products)
restricted to sparse inputs, and how many measurements recovery needs.
"""

__version__ = "0.1.0"

from .sparse_model import ConeSpec, SparseVector, Support, is_properly_separated, sample_cone, support_sum
from .bilinear_ops import (
    BilinearMapSpec,
    NormBoundCheck,
    apply_map,
    check_positive_cone_bounds,
    dft_unitary,
)
from .rnmp import RnmpEstimate, certify_exhaustive, estimate_alternating, estimate_brute
from .bounds import (
    BoundReport,
    SampleCountReport,
    application_probability,
    c0,
    compose_bound_report,
    covering_bound,
    d_constant,
    rip_probability,
    union_bound_samples,
)
from .sensing import (
    ConcentrationResult,
    DistortionReport,
    MeasurementEnsemble,
    concentration_test,
    distortion,
    generate,
    rip_monte_carlo,
)
from .recovery import (
    BilinearModel,
    PhaseCell,
    PhaseTransitionResult,
    RecoveryProblem,
    RecoveryResult,
    iht,
    model_sparsity,
    oracle_least_squares,
    output_support,
    phase_transition,
    simulate_problem,
)
