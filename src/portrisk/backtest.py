"""Rolling risk-assessment backtest.

The study rolls a fixed-length estimation window over a returns panel,
rebuilds each covariance estimator on the window, forms equal-weight and
minimum-variance portfolios, and confronts the estimated risk (with its
high-confidence error bound) against the risk realized over the holding
period that follows.  The realized benchmark for a holding block is the
uncentered second-moment matrix of its returns: holding blocks are short,
so subtracting a noisy mean costs more than the bias it removes.

Windows advance by the holding length, so holding blocks tile the sample
back to back and nothing after the first estimation window is discarded.
Each estimator is the EstimatorSpec the config builds for it, with the
positive-definiteness repair on for the factor and POET estimates.  The
equal-weight book and every minimum-variance book that solved in a window
are assessed as one batch by FittedEstimator.assess, and their realized
variances come from one product with the holding block's moment matrix.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

# autocov_*, hclub and ensure_positive_definite are the one-portfolio forms
# of what EstimatorSpec and FittedEstimator.assess run here; they stay bound
# for code that wraps the module's names to profile it
from .assessment import (DEFAULT_LAGS, EstimatorSpec, _quad_forms, autocov_factor,
                         autocov_poet, autocov_sample, estimator_specs, hclub, hclub_z)
from .blas import single_thread
from .errors import DataError, NumericalError, PortriskError
from .estimators import ESTIMATOR_NAMES, ensure_positive_definite
from .panels import FactorPanel, ReturnsPanel, align_panels
from .portfolios import (DEFAULT_PERIODS_PER_YEAR, Portfolio, _check_periods_per_year,
                         _exposure_value, equal_weight, min_variance)

__all__ = [
    "BacktestConfig",
    "RebalanceRecord",
    "SkippedCase",
    "StrategyAggregate",
    "BacktestReport",
    "run_empirical_study",
    "annualize_risk",
]

log = logging.getLogger(__name__)


def annualize_risk(risk: float, periods_per_year: float) -> float:
    """Scale a per-period risk (standard deviation) to a yearly horizon."""
    _check_periods_per_year(periods_per_year)
    return risk * math.sqrt(periods_per_year)


def _minvar_label(c: float) -> str:
    return f"minvar_c{c:g}"


@dataclass(frozen=True)
class BacktestConfig:
    """Protocol settings for the rolling study.

    poet_K=None re-selects the factor count per window by the information
    criterion, up to poet_k_max.  A rule or C of None is EstimatorSpec's
    default; each EstimatorSpec is built here, so bad settings fail at once.
    """

    estimation_window: int = 252
    holding_window: int = 21
    exposures: tuple = (1.0, 1.6)
    estimators: tuple = ESTIMATOR_NAMES
    L: int = DEFAULT_LAGS
    tau: float = 0.01
    paper_z: bool = True
    factor_rule: str | None = None
    factor_C: float | None = None
    poet_K: int | None = EstimatorSpec.K
    poet_C: float | None = None
    poet_rule: str | None = None
    poet_k_max: int = EstimatorSpec.k_max
    periods_per_year: float = DEFAULT_PERIODS_PER_YEAR

    def __post_init__(self):
        if self.estimation_window < 2:
            raise DataError("estimation window must cover at least 2 periods")
        if self.holding_window < 1:
            raise DataError("holding window must cover at least 1 period")
        if not 0 < self.tau < 1:
            raise DataError(f"tau must lie in (0, 1), got {self.tau}")
        _check_periods_per_year(self.periods_per_year)
        for c in self.exposures:
            _exposure_value(c)
        labels = [_minvar_label(c) for c in self.exposures]
        if len(set(labels)) != len(labels):
            raise DataError(
                f"exposures {self.exposures} give the strategy labels {labels}; "
                "each exposure needs a label of its own"
            )
        if self.L < 0 or self.L >= self.estimation_window:
            raise DataError("lag truncation must satisfy 0 <= L < estimation window")
        object.__setattr__(self, "_specs", estimator_specs(self.estimators, {
            "factor": dict(rule=self.factor_rule, C=self.factor_C),
            "poet": dict(rule=self.poet_rule, C=self.poet_C, K=self.poet_K,
                         k_max=self.poet_k_max)}, ensure_pd=True))


@dataclass(frozen=True)
class RebalanceRecord:
    """One (window, strategy, estimator) assessment."""

    index: int
    hold_start: str
    strategy: str
    estimator: str
    gross: float
    variance_hat: float
    risk_hat: float
    sigma2_hat: float
    u_variance: float
    u_risk: float
    realized_variance: float
    realized_risk: float
    risk_error: float
    covered: bool
    clamped: bool


@dataclass(frozen=True)
class SkippedCase:
    """A (window, strategy, estimator) case that was not assessed: reason is
    the message of the error that stopped it, error its type name."""

    index: int
    strategy: str
    estimator: str
    reason: str
    error: str


@dataclass(frozen=True)
class StrategyAggregate:
    """Averages over windows for one (strategy, estimator) pair.

    Risk figures are annualized with config.periods_per_year and stay in
    the units of the input panel (percent in, percent out).
    """

    strategy: str
    estimator: str
    n_windows: int
    mean_risk_hat_annual: float
    mean_realized_risk_annual: float
    mean_estimated_error_annual: float
    mean_realized_error_annual: float
    coverage: float


# StrategyAggregate field: the RebalanceRecord risk it averages over windows
_ANNUAL_MEANS = {
    "mean_risk_hat_annual": "risk_hat",
    "mean_realized_risk_annual": "realized_risk",
    "mean_estimated_error_annual": "u_risk",
    "mean_realized_error_annual": "risk_error",
}


@dataclass(frozen=True)
class BacktestReport:
    config: BacktestConfig
    n_rebalances: int
    n_assets: int
    first_hold_date: str
    last_date: str
    records: tuple
    skipped: tuple
    aggregates: tuple

    def aggregate(self, strategy: str, estimator: str) -> StrategyAggregate:
        for agg in self.aggregates:
            if agg.strategy == strategy and agg.estimator == estimator:
                return agg
        raise KeyError(f"no aggregate for ({strategy}, {estimator})")


def run_empirical_study(
    returns: ReturnsPanel,
    factors: FactorPanel | None,
    config: BacktestConfig | None = None,
) -> BacktestReport:
    """Roll the assessment protocol over a returns panel.

    Each rebalance estimates on the trailing window, holds the weights
    for the following block, and compares sqrt(w' Sigma_hat w) with the
    realized holding risk.  A window where an estimator cannot deliver
    (singular matrix, failed solve) is recorded in `skipped` with the
    reason instead of aborting the study.  The study does not warn: a
    record's clamped flag marks a long-run variance clamped at zero, and
    the command line prints the counts of both kinds of case.  A fixed
    POET K that does not fit the estimation window raises DataError
    before the first window.
    The windows run with numpy's BLAS on one thread (see portrisk.blas);
    the caller's BLAS thread count is restored on return.
    """
    config = config or BacktestConfig()
    if "factor" in config.estimators:
        if factors is None:
            raise DataError("the factor estimator needs an observed-factor panel")
        returns, factors = align_panels(returns, factors)
    W, H = config.estimation_window, config.holding_window
    n_reb = (returns.T - W) // H
    if n_reb < 1:
        raise DataError(
            f"panel has {returns.T} rows; need at least {W + H} for one rebalance"
        )
    for spec in config._specs:
        spec.check_fits(returns.N, W)

    # (label, exposure); the equal-weight book has no exposure budget
    strategies = [("equal", None)] + [(_minvar_label(c), c) for c in config.exposures]
    equal = equal_weight(returns.N)
    z = hclub_z(config.tau, config.paper_z)
    records = []
    skipped = []

    def skip(r, strategy, name, exc):
        skipped.append(SkippedCase(r, strategy, name, str(exc), type(exc).__name__))

    with single_thread():
        for r in range(n_reb):
            lo, mid, hi = r * H, r * H + W, r * H + W + H
            window = returns.slice_rows(lo, mid)
            factor_window = factors.slice_rows(lo, mid) if factors is not None else None
            hold = returns.values[mid:hi]
            hold_block = hold.T @ hold / hold.shape[0]
            hold_start = returns.dates[mid]

            for spec in config._specs:
                try:
                    fitted = spec.fit(window, factor_window)
                except PortriskError as exc:
                    for strategy, _ in strategies:
                        skip(r, strategy, spec.name, exc)
                    continue
                books = []  # (strategy, its book or the error that stopped its solve)
                for strategy, c in strategies:
                    try:
                        book = equal if c is None else min_variance(fitted.estimate, c)
                    except PortriskError as exc:
                        book = exc
                    books.append((strategy, book))
                # the books that solved, assessed as one batch, with their realized
                # variances: one (vhat, sigma2, u_var, clamped, realized) per book
                weights = np.stack([pf.weights for _, pf in books if isinstance(pf, Portfolio)],
                                   axis=1)
                assessed = (*fitted.assess(weights, config.L, z), _quad_forms(hold_block, weights))
                figures = zip(*(values.tolist() for values in assessed))
                for strategy, pf in books:
                    if isinstance(pf, Portfolio):
                        vhat, sigma2, u_var, clamped, realized = next(figures)
                        if vhat > 0:
                            risk_hat, realized_risk = math.sqrt(vhat), math.sqrt(max(realized, 0.0))
                            records.append(RebalanceRecord(
                                index=r, hold_start=hold_start, strategy=strategy,
                                estimator=spec.name, gross=pf.gross_exposure,
                                variance_hat=vhat, risk_hat=risk_hat, sigma2_hat=sigma2,
                                u_variance=u_var, u_risk=u_var / math.sqrt(4.0 * vhat),
                                realized_variance=realized, realized_risk=realized_risk,
                                risk_error=abs(realized_risk - risk_hat),
                                covered=abs(realized - vhat) <= u_var, clamped=clamped))
                            continue
                        pf = NumericalError(f"estimated portfolio variance {vhat:.3e} "
                                            "is not positive")
                    skip(r, strategy, spec.name, pf)

    aggregates = []
    ppy = config.periods_per_year
    for strategy, _ in strategies:
        for name in config.estimators:
            rows = [x for x in records
                    if x.strategy == strategy and x.estimator == name]
            if not rows:
                continue
            means = {field: annualize_risk(float(np.mean([getattr(x, attr) for x in rows])), ppy)
                     for field, attr in _ANNUAL_MEANS.items()}
            aggregates.append(StrategyAggregate(
                strategy=strategy, estimator=name, n_windows=len(rows),
                coverage=float(np.mean([x.covered for x in rows])), **means))

    return BacktestReport(
        config=config,
        n_rebalances=n_reb,
        n_assets=returns.N,
        first_hold_date=returns.dates[W],
        last_date=returns.dates[W + n_reb * H - 1],
        records=tuple(records),
        skipped=tuple(skipped),
        aggregates=tuple(aggregates),
    )
