"""Monte Carlo engine and verification harness for dynamic risk measures
driven by backward stochastic differential equations."""

from .tsallis import DomainError, exp_q, ln_q
from .stochastic import (
    Claim,
    DiscountCurve,
    LsmcContext,
    PathEnsemble,
    RandomField,
    RegressionBasis,
    SingularRegression,
    TimeGrid,
    claim_from_label,
    simulate,
)
from .bsde import (
    BSDESolution,
    DomainGuardViolation,
    Driver,
    DriverFamily,
    NonFiniteError,
    backward,
    default_registry_labels,
    driver_from_label,
    family_from_label,
    q_entropic,
    shifted,
    solve,
)
from .riskmeasures import (
    CertaintyEquivalent,
    DiscountedMeasure,
    DriverMeasure,
    MeanMeasure,
    RiskMeasure,
    measure_from_label,
)
from .diagnostics import (
    DegenerateWeights,
    LongevityResult,
    PropertyReport,
    check_cash_additivity,
    check_cash_subadditivity,
    check_convexity,
    check_longevity,
    check_monotonicity,
    check_normalization,
    check_restriction,
    check_time_consistency,
    gamma,
    gamma_via_premium_measure,
    run_taxonomy,
    taxonomy_rows,
)

__version__ = "0.1.0"
