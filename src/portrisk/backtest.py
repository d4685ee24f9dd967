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
positive-definiteness repair on for the factor and POET estimates.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

# autocov_* and ensure_positive_definite run inside EstimatorSpec now; they
# stay bound in this module for code that wraps the module's names to
# profile it
from .assessment import autocov_factor, autocov_poet, autocov_sample, estimator_specs, hclub
from .errors import DataError, NumericalError, PortriskError
from .estimators import ESTIMATOR_NAMES, ensure_positive_definite, portfolio_variance
from .panels import FactorPanel, ReturnsPanel, align_panels
from .portfolios import _exposure_value, equal_weight, min_variance

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
    if periods_per_year <= 0:
        raise DataError("periods_per_year must be positive")
    return risk * math.sqrt(periods_per_year)


def _minvar_label(c: float) -> str:
    return f"minvar_c{c:g}"


@dataclass(frozen=True)
class BacktestConfig:
    """Protocol settings for the rolling study.

    poet_K=None re-selects the factor count per window by the information
    criterion with the given k_max; a fixed integer pins it.  factor_C=None
    uses 0.1 times the number of observed factors.  Construction builds
    each estimator's EstimatorSpec, so invalid settings fail at once.
    """

    estimation_window: int = 252
    holding_window: int = 21
    exposures: tuple = (1.0, 1.6)
    estimators: tuple = ESTIMATOR_NAMES
    L: int = 5
    tau: float = 0.01
    paper_z: bool = True
    factor_rule: str = "hard"
    factor_C: float | None = None
    poet_K: int | None = 3
    poet_C: float = 0.5
    poet_rule: str = "soft"
    poet_k_max: int = 8
    periods_per_year: float = 252.0

    def __post_init__(self):
        if self.estimation_window < 2:
            raise DataError("estimation window must cover at least 2 periods")
        if self.holding_window < 1:
            raise DataError("holding window must cover at least 1 period")
        if not 0 < self.tau < 1:
            raise DataError(f"tau must lie in (0, 1), got {self.tau}")
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
    index: int
    strategy: str
    estimator: str
    reason: str


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


def _assess(record_index, hold_start, strategy, estimator_name, fitted, pf,
            window, hold_block, config):
    est = fitted.estimate
    vhat = portfolio_variance(est, pf)
    if not vhat > 0:
        raise NumericalError(
            f"estimated portfolio variance {vhat:.3e} is not positive"
        )
    lrv = fitted.autocov(pf, L=config.L)
    bound = hclub(lrv, window.T, config.tau, vhat, est.kind, paper_z=config.paper_z)

    w = pf.weights
    realized_var = float(w @ hold_block @ w)
    realized_risk = math.sqrt(max(realized_var, 0.0))
    risk_hat = math.sqrt(vhat)
    return RebalanceRecord(
        index=record_index,
        hold_start=hold_start,
        strategy=strategy,
        estimator=estimator_name,
        gross=pf.gross_exposure,
        variance_hat=vhat,
        risk_hat=risk_hat,
        sigma2_hat=lrv.sigma2,
        u_variance=bound.u_variance,
        u_risk=bound.u_risk,
        realized_variance=realized_var,
        realized_risk=realized_risk,
        risk_error=abs(realized_risk - risk_hat),
        covered=abs(realized_var - vhat) <= bound.u_variance,
        clamped=lrv.clamped,
    )


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
    reason and raises a warning instead of aborting the study.
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

    # (label, exposure); the equal-weight book has no exposure budget
    strategies = [("equal", None)] + [(_minvar_label(c), c) for c in config.exposures]
    records = []
    skipped = []
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
                    skipped.append(SkippedCase(r, strategy, spec.name, str(exc)))
                warnings.warn(
                    f"window {r}: {spec.name} estimator failed ({exc}); skipped",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            for strategy, c in strategies:
                try:
                    if c is None:
                        pf = equal_weight(returns.N)
                    else:
                        pf = min_variance(fitted.estimate, c)
                    records.append(_assess(r, hold_start, strategy, spec.name, fitted,
                                           pf, window, hold_block, config))
                except PortriskError as exc:
                    skipped.append(SkippedCase(r, strategy, spec.name, str(exc)))
                    warnings.warn(
                        f"window {r}: {strategy}/{spec.name} skipped ({exc})",
                        RuntimeWarning,
                        stacklevel=2,
                    )

    aggregates = []
    ppy = config.periods_per_year
    for strategy, _ in strategies:
        for name in config.estimators:
            rows = [x for x in records
                    if x.strategy == strategy and x.estimator == name]
            if not rows:
                continue
            aggregates.append(StrategyAggregate(
                strategy=strategy,
                estimator=name,
                n_windows=len(rows),
                mean_risk_hat_annual=annualize_risk(
                    float(np.mean([x.risk_hat for x in rows])), ppy),
                mean_realized_risk_annual=annualize_risk(
                    float(np.mean([x.realized_risk for x in rows])), ppy),
                mean_estimated_error_annual=annualize_risk(
                    float(np.mean([x.u_risk for x in rows])), ppy),
                mean_realized_error_annual=annualize_risk(
                    float(np.mean([x.risk_error for x in rows])), ppy),
                coverage=float(np.mean([x.covered for x in rows])),
            ))

    return BacktestReport(
        config=config,
        n_rebalances=n_reb,
        n_assets=returns.N,
        first_hold_date=returns.dates[W] if returns.T > W else returns.dates[-1],
        last_date=returns.dates[W + n_reb * H - 1],
        records=tuple(records),
        skipped=tuple(skipped),
        aggregates=tuple(aggregates),
    )
