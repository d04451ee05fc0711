"""Simulation and spectral classification of k-th order rational difference systems.

The central object is the recurrence ``v_n = B_n A v_{n-k}`` on the
nonnegative orthant, where ``A`` is a nonnegative kernel matrix and
``B_n`` collects the data-dependent rational denominators.  The package
simulates the system, builds seeds realizing periodic and unbounded
solutions, classifies the asymptotic regime from the spectrum of ``A``,
and verifies each prediction empirically.
"""

from .analysis import (
    CONVERGED_TO_ZERO,
    EVENTUALLY_PERIODIC,
    UNBOUNDED,
    UNDETERMINED,
    AnalysisReport,
    Tolerances,
    analyze,
    detect_period,
    detect_unbounded,
    detect_zero_limit,
    residual_linear,
    residual_shift,
)
from .classifier import (
    BoundaryAmbiguous,
    Classification,
    CONVERGES_TO_ZERO,
    PERIOD_2K,
    PERIOD_K,
    UNBOUNDED_EXISTS,
    PredictionCheck,
    VerificationReport,
    classify_tetrachotomy,
    classify_trichotomy,
    regime_from_spectrum,
    verify_classification,
)
from .config import ConfigError, RunConfig, load_config, resolve_init
from .constructors import (
    SeedConstructionError,
    construct_period2k_seed,
    construct_periodic_seed,
    construct_unbounded_seed,
)
from .linalg import (
    EIG_TOL,
    MAX_POWER_ITERS,
    RHO_TOL,
    EigenDecomposition,
    PowerIterationError,
    eig2,
    eig_symmetric,
    perron_pair,
)
from .model import (
    InitialConditions,
    SystemSpec,
    Trajectory,
    from_scalar_params,
    validate,
    validate_initial,
)
from .simulator import simulate, simulate_batch

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "BoundaryAmbiguous",
    "Classification",
    "ConfigError",
    "CONVERGED_TO_ZERO",
    "CONVERGES_TO_ZERO",
    "EIG_TOL",
    "EigenDecomposition",
    "EVENTUALLY_PERIODIC",
    "InitialConditions",
    "MAX_POWER_ITERS",
    "PERIOD_2K",
    "PERIOD_K",
    "PowerIterationError",
    "PredictionCheck",
    "RHO_TOL",
    "RunConfig",
    "SeedConstructionError",
    "SystemSpec",
    "Tolerances",
    "Trajectory",
    "UNBOUNDED",
    "UNBOUNDED_EXISTS",
    "UNDETERMINED",
    "VerificationReport",
    "analyze",
    "classify_tetrachotomy",
    "classify_trichotomy",
    "construct_period2k_seed",
    "construct_periodic_seed",
    "construct_unbounded_seed",
    "detect_period",
    "detect_unbounded",
    "detect_zero_limit",
    "eig2",
    "eig_symmetric",
    "from_scalar_params",
    "load_config",
    "perron_pair",
    "regime_from_spectrum",
    "residual_linear",
    "residual_shift",
    "resolve_init",
    "simulate",
    "simulate_batch",
    "validate",
    "validate_initial",
    "verify_classification",
]
