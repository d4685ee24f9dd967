"""Risk assessment for large portfolios.

The package estimates the variance of a weighted portfolio under three
covariance estimators (sample; factor model with observed factors;
principal components with a thresholded remainder), attaches a
high-confidence upper bound on the estimation error of that risk, and
ships a calibrated simulation engine plus a rolling backtest for judging
when the crude worst-case bound is too pessimistic to be useful.

The namespace is lazy: ``import portrisk`` loads no submodule (and not
numpy), and a public name imports its module on first access.  Every
submodule is also reachable as an attribute (``portrisk.simulation``).
"""

from importlib import import_module

from ._version import __version__

# each public name once, under the module that defines it
_PUBLIC = {
    "errors": "PortriskError DataError NumericalError UsageError",
    "panels": """ParseConfig ReturnsPanel FactorPanel RateSeries load_returns_csv
        load_factors_csv load_rate_series compute_excess_returns align_panels demean""",
    "estimators": """ThresholdRule CovarianceEstimate FactorModelFit apply_threshold
        sample_covariance ols_factor_fit factor_covariance pca_factor_fit poet_covariance
        select_num_factors portfolio_variance ensure_positive_definite""",
    "assessment": """EstimatorSpec LongRunVariance HclubResult CrudeBound
        normal_upper_quantile autocov_sample autocov_factor autocov_poet
        long_run_variances hclub hclub_z crude_bound re_ratios""",
    "portfolios": """Portfolio SolverOptions sample_random_portfolio sample_random_weights
        equal_weight gross_exposure min_variance""",
    "simulation": """CalibrationParams ModelInstance ExperimentCell CellAggregate
        ExperimentReport GridConfig default_calibration diversified_calibration
        solve_lyapunov generate_loadings generate_error_cov generate_var1_factors
        build_model_instance run_replication run_experiment parse_grid_config""",
    "backtest": "BacktestConfig BacktestReport run_empirical_study annualize_risk",
    "rng": "derive_key derive_rng",
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names.split()}
_SUBMODULES = frozenset((*_PUBLIC, "blas", "cli", "reporting", "serialization"))

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
