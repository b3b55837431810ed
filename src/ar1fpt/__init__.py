"""First passage times of AR(1) sequences.

Analytic characteristics (limit cumulant, martingale transforms, expectation
identity and bounds, exponential tail certificates) of the first time an
AR(1) sequence exceeds a level, cross-validated against a built-in Monte
Carlo oracle.
"""

from .cumulant import (
    LimitCumulant,
    SlopeReport,
    check_functional_equation,
    slope_probe,
    stationary_reference,
)
from .errors import (
    Ar1FptError,
    CertificateInfeasibleError,
    ConfigError,
    CoverageError,
    DivergenceError,
    InfeasibleTruncationError,
    NoCrossingError,
    SeriesDivergenceError,
    UnsupportedSamplerError,
)
from .innovations import (
    CappedAbove,
    Deterministic,
    Discrete,
    FlooredPositive,
    Gaussian,
    InnovationSpec,
    StableSpectrallyNegative,
    Truncated,
    TwoPoint,
    psi,
    sample,
    truncate_cap_above,
    truncate_floor_positive,
)
from .montecarlo import (
    DriftReport,
    SimulationSummary,
    empirical_martingale_check,
    simulate_passage,
    simulate_stationary,
)
from .passage import (
    ExponentialCertificate,
    FeasibilityReport,
    IdentityNodes,
    PassageProblem,
    crossing_mass,
    exponential_certificate,
    feasibility_report,
    identity_e_tau,
    identity_nodes,
    lower_bound_e_tau,
    upper_bound_e_tau,
)
from .quadrature import QuadratureResult, improper_integral
from .transforms import (
    check_harmonic,
    eval_C,
    eval_H,
    eval_N,
    eval_W,
    transform,
)

__version__ = "0.1.0"
