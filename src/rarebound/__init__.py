"""Conservative bounds on rare-event failure probabilities.

The package bounds p = P(g(X) < y) for an expensive black-box g on the
unit cube, using structural side information instead of surrogate trust:
Lipschitz constants (dyadic cube labeling), monotonicity (Pareto
staircase bounds with sequential sampling), and conservative surrogate
shifts (additive bias and stochastic dominance constraints).
"""

from .bench import (
    ToyProblem,
    get_benchmark,
    make_example1,
    make_linear_toy,
    make_lipschitz_toy_1d,
)
from .core import (
    DETERMINISTIC,
    HIGH_PROBABILITY,
    BlackBoxFunction,
    DimensionMismatch,
    MCEstimate,
    ProbabilityBounds,
    RandomStream,
    mc_estimate,
    surrogate_mc_estimate,
)
from .dyadic import DyadicCube, default_max_depth, label_cube, refine
from .mcmc import (
    RegionWalkSampler,
    adapt_covariance,
    psi,
    psi_inv,
)
from .monotone import (
    LabeledDesign,
    MonotonicityViolation,
    RejectionSampler,
    SamplerStalled,
    SequentialRun,
    StaircaseRegion,
    bounds_from_design,
    lower_orthant_volume,
    maximal_points,
    minimal_points,
    sequential_bounder,
    upper_orthant_volume,
)
from .special import (
    beta_cdf,
    beta_quantile,
    gamma_cdf,
    gamma_quantile,
    normal_cdf,
    normal_quantile,
)
from .surrogate import (
    FeedforwardFamily,
    FSDFitResult,
    PolynomialFamily,
    RegressionSurrogate,
    ShiftedSurrogate,
    bernstein_bound,
    check_fsd,
    conservative_shift,
    fit,
    fsd_fit,
    lambda_crossing,
    lambda_risk,
    q2,
)

__version__ = "0.1.0"

__all__ = [
    "BlackBoxFunction",
    "DETERMINISTIC",
    "DimensionMismatch",
    "DyadicCube",
    "FSDFitResult",
    "FeedforwardFamily",
    "HIGH_PROBABILITY",
    "LabeledDesign",
    "MCEstimate",
    "MonotonicityViolation",
    "PolynomialFamily",
    "ProbabilityBounds",
    "RandomStream",
    "RegionWalkSampler",
    "RegressionSurrogate",
    "RejectionSampler",
    "SamplerStalled",
    "SequentialRun",
    "ShiftedSurrogate",
    "StaircaseRegion",
    "ToyProblem",
    "adapt_covariance",
    "bernstein_bound",
    "beta_cdf",
    "beta_quantile",
    "bounds_from_design",
    "check_fsd",
    "conservative_shift",
    "default_max_depth",
    "fit",
    "fsd_fit",
    "gamma_cdf",
    "gamma_quantile",
    "get_benchmark",
    "label_cube",
    "lambda_crossing",
    "lambda_risk",
    "lower_orthant_volume",
    "make_example1",
    "make_linear_toy",
    "make_lipschitz_toy_1d",
    "maximal_points",
    "mc_estimate",
    "minimal_points",
    "normal_cdf",
    "normal_quantile",
    "psi",
    "psi_inv",
    "q2",
    "refine",
    "sequential_bounder",
    "surrogate_mc_estimate",
    "upper_orthant_volume",
    "__version__",
]
