"""Risk assessment for large portfolios.

The package estimates the variance of a weighted portfolio under three
covariance estimators (sample; factor model with observed factors;
principal components with a thresholded remainder), attaches a
high-confidence upper bound on the estimation error of that risk, and
ships a calibrated simulation engine plus a rolling backtest for judging
when the crude worst-case bound is too pessimistic to be useful.
"""

from ._version import __version__
from .assessment import (
    CrudeBound,
    EstimatorSpec,
    HclubResult,
    LongRunVariance,
    autocov_factor,
    autocov_poet,
    autocov_sample,
    crude_bound,
    hclub,
    hclub_z,
    long_run_variances,
    normal_upper_quantile,
    re_ratios,
)
from .backtest import (
    BacktestConfig,
    BacktestReport,
    annualize_risk,
    run_empirical_study,
)
from .errors import DataError, NumericalError, PortriskError, UsageError
from .estimators import (
    CovarianceEstimate,
    FactorModelFit,
    ThresholdRule,
    apply_threshold,
    ensure_positive_definite,
    factor_covariance,
    ols_factor_fit,
    pca_factor_fit,
    poet_covariance,
    portfolio_variance,
    sample_covariance,
    select_num_factors,
)
from .panels import (
    FactorPanel,
    ParseConfig,
    RateSeries,
    ReturnsPanel,
    align_panels,
    compute_excess_returns,
    demean,
    load_factors_csv,
    load_rate_series,
    load_returns_csv,
)
from .portfolios import (
    Portfolio,
    SolverOptions,
    equal_weight,
    gross_exposure,
    min_variance,
    sample_random_portfolio,
    sample_random_weights,
)
from .rng import derive_key, derive_rng
from .simulation import (
    CalibrationParams,
    CellAggregate,
    ExperimentCell,
    ExperimentReport,
    GridConfig,
    ModelInstance,
    build_model_instance,
    default_calibration,
    diversified_calibration,
    generate_error_cov,
    generate_loadings,
    generate_var1_factors,
    parse_grid_config,
    run_experiment,
    run_replication,
    solve_lyapunov,
)

__all__ = [
    "__version__",
    # errors
    "PortriskError", "DataError", "NumericalError", "UsageError",
    # panels
    "ParseConfig", "ReturnsPanel", "FactorPanel", "RateSeries",
    "load_returns_csv", "load_factors_csv", "load_rate_series",
    "compute_excess_returns", "align_panels", "demean",
    # estimators
    "ThresholdRule", "CovarianceEstimate", "FactorModelFit",
    "apply_threshold", "sample_covariance", "ols_factor_fit",
    "factor_covariance", "pca_factor_fit", "poet_covariance",
    "select_num_factors", "portfolio_variance", "ensure_positive_definite",
    # assessment
    "EstimatorSpec", "LongRunVariance", "HclubResult", "CrudeBound",
    "normal_upper_quantile", "autocov_sample", "autocov_factor",
    "autocov_poet", "long_run_variances", "hclub", "hclub_z",
    "crude_bound", "re_ratios",
    # portfolios
    "Portfolio", "SolverOptions",
    "sample_random_portfolio", "sample_random_weights", "equal_weight",
    "gross_exposure", "min_variance",
    # simulation
    "CalibrationParams", "ModelInstance", "ExperimentCell",
    "CellAggregate", "ExperimentReport", "GridConfig",
    "default_calibration", "diversified_calibration", "solve_lyapunov",
    "generate_loadings",
    "generate_error_cov", "generate_var1_factors", "build_model_instance",
    "run_replication", "run_experiment", "parse_grid_config",
    # backtest
    "BacktestConfig", "BacktestReport", "run_empirical_study",
    "annualize_risk",
    # rng
    "derive_key", "derive_rng",
]
