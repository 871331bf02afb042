"""Nearest-neighbor classification risk analysis in metric spaces.

Exact distribution-dependent quantities (probability radii, effective
interiors and boundaries, high-error sets, smoothness and margin
certificates), closed-form risk guarantees, and a seeded verification
harness for desk-scale experiments.
"""

from .boundary import (
    BOUNDARY,
    INTERIOR_MINUS,
    INTERIOR_PLUS,
    NOT_IN_SUPPORT,
    HighErrorVerdict,
    RegionVerdict,
    SmoothnessViolation,
    boundary_measure,
    high_error_classify,
    high_error_measure,
    margin_mass,
    region_classify,
    region_verdicts,
    smoothness_audit,
)
from .bounds import (
    ExponentialRegime,
    LowerBoundConstants,
    MarginRateResult,
    MarginSpec,
    SmoothnessSpec,
    UpperBoundParams,
    binomial_tail,
    concentration_bounds,
    expected_risk_bound,
    exponential_regime,
    holder_translate,
    lower_bound_constants,
    margin_rate,
    misclassification_upper_bound,
    normal_cdf,
    pointwise_risk_bound,
    slud_bound,
    smooth_thresholds,
    upper_bound_params,
    zero_bayes_params,
)
from .classifier import (
    RiskReport,
    TrainedModel,
    bayes_predict,
    conditional_risk,
    fit,
    fit_arrays,
    mistake_probability,
    predict,
    predict_batch,
)
from .distributions import (
    AugmentedSample,
    FiniteAtomic,
    MassQueryResult,
    PiecewiseUniform1D,
    PowerMargin1D,
    ball_mass,
    bayes_risk,
    eta_ball,
    eta_point,
    in_support,
    load_distribution,
    prob_radius,
    sample_labeled,
    support_mass,
)
from .errors import (
    DomainError,
    InapplicableError,
    InfeasibleParametersError,
    ResourceLimitError,
    UnsupportedMethodError,
    ZeroMassError,
)
from .harness import (
    ConsistencySweep,
    ExcessEstimate,
    KRule,
    LowerBoundCheck,
    RateSweep,
    SweepRow,
    TrialReport,
    consistency_sweep,
    estimate_expected_excess,
    exact_expected_mistake,
    mc_expected_mistake,
    rate_sweep,
    run_lower_bound_trials,
    run_upper_bound_trials,
    wilson_interval,
)
from .metric import FiniteMetric, IntervalMetric, MetricSpace, load_finite_metric

__version__ = "0.1.0"
