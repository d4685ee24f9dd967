"""Risk-error assessment: long-run variances, high-confidence upper
bounds, and the crude full-confidence bound.

The central object is the truncated long-run variance of the squared
portfolio return series,

    sigma2 = gamma(0) + 2 * sum_{h=1..L} gamma(h),
    gamma(h) = T^-1 sum_{t=1..T-h} (p_t^2 - center) (p_{t+h}^2 - center),

where p_t is the portfolio return under the relevant estimator (total
return, systematic return from observed factors, or systematic return
from PCA factors) and the centering constant is the matching estimate of
its variance.  The high-confidence upper bound on the variance
estimation error is then U(tau) = z_{tau/2} * sqrt(sigma2 / T), and the
risk-scale bound follows by the delta method as U(tau) / sqrt(4 w'Sw).

EstimatorSpec is the estimator -> fit -> series chain that the simulation
engine, the rolling backtest and the command line share, and
FittedEstimator.assess gives all three the estimated variances, long-run
variances and U(tau) of a batch of portfolios at once.  autocov_*,
portfolio_variance and hclub are the same figures for one portfolio.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, ClassVar

import numpy as np

# the spec calls the estimators through their module, so that a wrapper
# installed on portrisk.estimators (perfbench's tracer) sees every call
from . import estimators
from .errors import DataError
from .estimators import (
    ESTIMATOR_NAMES,
    CovarianceEstimate,
    FactorModelFit,
    ThresholdRule,
)
from .panels import FactorPanel, ReturnsPanel

__all__ = [
    "EstimatorSpec",
    "FittedEstimator",
    "estimator_specs",
    "LongRunVariance",
    "HclubResult",
    "CrudeBound",
    "normal_upper_quantile",
    "autocov_sample",
    "autocov_factor",
    "autocov_poet",
    "long_run_variances",
    "total_return_series",
    "systematic_return_series",
    "hclub",
    "hclub_z",
    "crude_bound",
    "re_ratios",
    "DEFAULT_LAGS",
]

log = logging.getLogger(__name__)

DEFAULT_LAGS = 5


def normal_upper_quantile(p: float) -> float:
    """The z with P(Z > z) = p for a standard normal, 0 < p < 0.5.

    statistics.NormalDist.inv_cdf computes it by Wichura's algorithm AS241
    (PPND16), accurate to about 1 part in 1e16.  statistics is imported
    here, on first use: its import is slow and the rounded paper z never
    needs it.
    """
    if not 0.0 < p < 0.5:
        raise DataError(f"upper-tail probability must lie in (0, 0.5), got {p}")
    from statistics import NormalDist

    return -NormalDist().inv_cdf(p)


@dataclass(frozen=True)
class LongRunVariance:
    """Truncated autocovariance estimate of the long-run variance.

    gammas holds gamma(0)..gamma(L) as computed; sigma2 is the truncated
    sum, clamped at zero (with clamped=True and a RuntimeWarning) when the
    plain truncation turns negative in a finite sample.
    """

    gammas: tuple
    L: int
    sigma2: float
    clamped: bool = False


def long_run_variances(series, centers, L: int):
    """Truncated long-run variances of P squared series at once.

    series is T x P with one return series per column and centers holds
    the P centering constants.  Returns (gammas, sigma2, clamped):
    gammas is (L+1) x P with gamma(h) in row h, sigma2 the P truncated
    sums clamped at zero, and clamped marks the clamped columns.  Each
    gamma(h) is one dot product per column, the BLAS call a lone series
    makes, and total_return_series and systematic_return_series give a
    portfolio the same series bits alone or in a batch (_per_row), so a
    portfolio's figures do not depend on the number of portfolios P, its
    position or the portfolios beside it.  It does not warn: the studies
    count the clamped columns in their reports, and of the package's
    functions only the one-portfolio autocov_* warn of a clamp.
    """
    series = np.asarray(series, dtype=float)
    T, P = series.shape
    if L >= T:
        raise DataError(f"lag truncation L={L} must be below T={T}")
    if L < 0:
        raise DataError("lag truncation L must be nonnegative")
    q = np.ascontiguousarray((series * series - centers).T)
    gammas = np.empty((L + 1, P))
    for h in range(L + 1):
        gammas[h] = np.matmul(q[:, None, : T - h], q[:, h:, None])[:, 0, 0] / T
    sigma2 = gammas[0] + 2.0 * sum(gammas[1:], np.zeros(P))
    clamped = sigma2 < 0.0
    return gammas, np.where(clamped, 0.0, sigma2), clamped


def _quad_forms(matrix: np.ndarray, W: np.ndarray) -> np.ndarray:
    """w'Mw for every column of W at once."""
    return np.einsum("ip,ip->p", W, matrix @ W)


# portfolios per matrix product in _per_row; every product has this width
_BLOCK = 16


def _per_row(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """matrix @ r for each of the P rows r, as the rows of a P x M array
    for an M x n matrix.

    The rows go through matrix @ B.T in C-ordered blocks B of _BLOCK rows,
    the last block padded with zero rows, so a lone row takes the same BLAS
    call of the same shape and layout as one in a batch.  A matrix product
    reads the matrix once per block where a matrix-vector call reads it
    once per row, and a row's result does not depend on how many rows
    there are, where it sits or which rows share its block.
    """
    rows = np.ascontiguousarray(rows, dtype=float)
    P, n = rows.shape
    out = np.empty((P, matrix.shape[0]))
    for start in range(0, P, _BLOCK):
        block = rows[start:start + _BLOCK]
        width = block.shape[0]
        if width < _BLOCK:
            block = np.zeros((_BLOCK, n))
            block[:width] = rows[start:]
        out[start:start + width] = (matrix @ block.T)[:, :width].T
    return out


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def total_return_series(panel: ReturnsPanel, W, demean: bool = True):
    """Series (T x P) and centers (P) of the total returns of the columns of W.

    Column j is p_t = w_j'r_t on (by default) demeaned rows, centered at
    w_j'Sw_j with S built from the same rows.
    """
    X = panel.demeaned_values if demean else panel.values
    p = _per_row(X, np.asarray(W).T)
    return p.T, _row_dots(p, p) / panel.T


def systematic_return_series(fit: FactorModelFit, W):
    """Series (T x P) and centers (P) of the systematic returns w_j'Bf_t.

    The center is w_j'B cov(f) B'w_j, which is w_j'BB'w_j for PCA factors:
    their covariance is the identity (multiplying by it is exact).
    """
    b = _per_row(fit.loadings.T, np.asarray(W).T)
    series = _per_row(fit.factors, b)
    return series.T, _row_dots(np.matmul(b[:, None, :], fit.factor_cov)[:, 0, :], b)


def _autocov(series, N: int, w, L: int) -> LongRunVariance:
    """Long-run variance of one portfolio w of N assets; series(W) gives
    the (series, centers) of the portfolios in the columns of W.  A clamped
    sigma2 raises one RuntimeWarning, attributed to the caller of the
    autocov_* function that called this one."""
    weights = np.asarray(getattr(w, "weights", w), dtype=float)
    if weights.shape != (N,):
        raise DataError(f"weight vector has shape {weights.shape}, expected ({N},)")
    gammas, sigma2, clamped = long_run_variances(*series(weights[:, None]), L)
    if clamped[0]:
        raw = gammas[0, 0] + 2.0 * gammas[1:, 0].sum()
        warnings.warn(f"truncated long-run variance was negative ({raw:.3e}); clamped to 0",
                      RuntimeWarning, stacklevel=3)
    return LongRunVariance(gammas=tuple(float(g) for g in gammas[:, 0]), L=L,
                           sigma2=float(sigma2[0]), clamped=bool(clamped[0]))


def autocov_sample(
    panel: ReturnsPanel, w, L: int = DEFAULT_LAGS, demean: bool = True
) -> LongRunVariance:
    """Long-run variance of the squared total portfolio return.

    The series is p_t = w'r_t on (by default) demeaned rows and the
    centering constant is w'Sw with S built from the same rows, so the
    lag-0 term is exactly the sample variance of p_t^2.
    """
    return _autocov(partial(total_return_series, panel, demean=demean), panel.N, w, L)


def autocov_factor(fit: FactorModelFit, w, L: int = DEFAULT_LAGS) -> LongRunVariance:
    """Long-run variance of the squared systematic return, observed factors.

    Series w'Bf_t, centered at w'B cov(f) B'w.
    """
    if fit.source != "observed":
        raise DataError("autocov_factor needs an observed-factor fit")
    return _autocov(partial(systematic_return_series, fit), fit.N, w, L)


def autocov_poet(fit: FactorModelFit, w, L: int = DEFAULT_LAGS) -> LongRunVariance:
    """Long-run variance of the squared systematic return, PCA factors.

    Series w'Bf_t, centered at w'BB'w (the factor covariance is the
    identity under the PCA normalization).
    """
    if fit.source != "pca":
        raise DataError("autocov_poet needs a PCA fit")
    return _autocov(partial(systematic_return_series, fit), fit.N, w, L)


@dataclass(frozen=True, eq=False)  # compared by identity: it holds arrays
class FittedEstimator:
    """An estimate with the factor fit and the series its bound needs.

    fit is the factor model behind the estimate (None for sample).
    series(W) gives the (series, centers) of the portfolios in the columns
    of W that long_run_variances takes: total returns for sample,
    systematic returns w'Bf_t for factor and poet.
    """

    estimate: CovarianceEstimate
    fit: FactorModelFit | None
    series: Callable

    def assess(self, W, L: int, z: float):
        """(variances, sigma2, u_variance, clamped) of the portfolios in the
        columns of W: each w'Sigma_hat w, long_run_variances' sigma2 and
        clamped at lag cut-off L, and the H-CLUB z sqrt(sigma2 / T).

        The sample variances are the series centers w'Sw = ||Xw||^2 / T;
        factor and poet take the quadratic forms of their matrix.  A
        portfolio's sigma2 and u_variance are the bits it gets alone.  A
        clamped sigma2 is marked in clamped, not warned of.
        """
        series, centers = self.series(W)
        variances = (centers if self.estimate.kind == "sample"
                     else _quad_forms(self.estimate.matrix, W))
        _, sigma2, clamped = long_run_variances(series, centers, L)
        return variances, sigma2, z * np.sqrt(sigma2 / len(series)), clamped


@dataclass(frozen=True)
class EstimatorSpec:
    """One covariance estimator and its settings, validated and hashable.

    name is sample, factor or poet.  A rule or C of None is resolved here to
    the default in RULES or C_DEFAULTS (factor's C, per observed factor, at
    fit time), so equal settings give equal specs.  K is the POET factor
    count; K=None selects it on each panel by the information criterion,
    over 1..k_max.  demean applies to sample and poet (the factor fit always
    demeans), and ensure_pd re-thresholds a factor or poet estimate until it
    is positive definite.  Settings the estimator does not use are ignored;
    the others raise DataError here, before any data is seen, if invalid.
    """

    RULES: ClassVar[dict] = {"factor": "hard", "poet": "soft"}
    C_DEFAULTS: ClassVar[dict] = {"factor": 0.1, "poet": 0.5}

    name: str
    rule: str | None = None
    C: float | None = None
    K: int | None = 3
    k_max: int = 8
    demean: bool = True
    ensure_pd: bool = False

    def __post_init__(self):
        if self.name not in ESTIMATOR_NAMES:
            raise DataError(f"unknown estimator name {self.name!r}; valid: {ESTIMATOR_NAMES}")
        if self.name == "sample":
            return
        if self.rule is None:
            object.__setattr__(self, "rule", self.RULES[self.name])
        ThresholdRule(self.rule)  # raises DataError for an unknown rule
        if self.name == "poet" and self.C is None:
            object.__setattr__(self, "C", self.C_DEFAULTS["poet"])
        if self.C is not None and not self.C >= 0:
            raise DataError(f"{self.name} threshold constant must be nonnegative, got C={self.C}")
        if self.name == "poet" and self.K is not None and not self.K >= 1:
            raise DataError(f"poet factor count must be at least 1, got K={self.K}")
        if self.name == "poet" and self.K is None and not self.k_max >= 1:
            raise DataError(f"poet k_max must be at least 1, got k_max={self.k_max}")

    def check_fits(self, N: int, T: int) -> None:
        """Raise DataError if the spec cannot be fitted on N assets over T
        periods: a fixed POET K must be at most min(N, T) - 1, the bound of
        poet_covariance."""
        if self.name == "poet" and self.K is not None and self.K > min(N, T) - 1:
            raise DataError(f"poet factor count must be in [1, {min(N, T) - 1}] for "
                            f"N={N} assets over T={T} periods, got K={self.K}")

    def fit(self, returns: ReturnsPanel, factors: FactorPanel | None = None) -> FittedEstimator:
        """Build the estimate on returns; factor also needs the observed factors."""
        if self.name == "sample":
            est = estimators.sample_covariance(returns, self.demean)
            return FittedEstimator(est, None,
                                   partial(total_return_series, returns, demean=self.demean))
        if self.name == "factor":
            if factors is None:
                raise DataError("the factor estimator needs an observed-factor panel")
            fit = estimators.ols_factor_fit(returns, factors)
            C = self.C_DEFAULTS["factor"] * factors.K if self.C is None else self.C
        else:
            self.check_fits(returns.N, returns.T)
            K = self.K
            if K is None:
                K = estimators.select_num_factors(
                    returns, min(self.k_max, min(returns.N, returns.T) - 1), demean=self.demean)
                log.info("information criterion selected K=%d", K)
            fit = estimators.pca_factor_fit(returns, K, demean=self.demean)
            C = self.C
        est = estimators.factor_covariance(fit, ThresholdRule(self.rule), C)
        if self.ensure_pd:
            # re-thresholding only touches the sparse remainder, so the fit
            # stays consistent with the estimate
            est = estimators.ensure_positive_definite(est)
        return FittedEstimator(est, fit, partial(systematic_return_series, fit))


def estimator_specs(names, settings: dict, **shared) -> tuple:
    """One EstimatorSpec per name, in order, each built with settings[name]
    (if any) and shared; an empty or repeating list raises DataError."""
    if not names:
        raise DataError("need at least one estimator")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise DataError(f"estimators {names} name an estimator twice ({repeated[0]!r})")
    return tuple(EstimatorSpec(name, **settings.get(name, {}), **shared) for name in names)


@dataclass(frozen=True)
class HclubResult:
    """High-confidence upper bound on the risk estimation error.

    u_variance bounds |w'(Sigma_hat - Sigma)w| at confidence 1 - tau;
    u_risk is the same bound mapped to the risk scale by the delta
    method, u_variance / sqrt(4 w' Sigma_hat w).
    """

    tau: float
    z: float
    u_variance: float
    u_risk: float
    estimator_kind: str


_PAPER_Z = {0.05: 2.0, 0.01: 2.58}


def hclub_z(tau: float, paper_z: bool = False) -> float:
    """Critical value z_{tau/2}.

    With paper_z=True the rounded conventions z=2 (tau=0.05) and
    z=2.58 (tau=0.01) apply where defined; any other tau falls back to
    the exact quantile.
    """
    if not 0.0 < tau < 1.0:
        raise DataError(f"tau must lie in (0, 1), got {tau}")
    z = _PAPER_Z.get(tau) if paper_z else None
    if z is None:
        z = normal_upper_quantile(tau / 2.0)
    return z


def hclub(
    lrv: LongRunVariance,
    T: int,
    tau: float,
    variance_estimate: float,
    kind: str,
    paper_z: bool = False,
) -> HclubResult:
    """U(tau) = z_{tau/2} sqrt(sigma2 / T) plus its risk-scale version.

    With paper_z=True the rounded conventions z=2 (tau=0.05) and
    z=2.58 (tau=0.01) replace the exact quantile.
    """
    if not variance_estimate > 0.0:
        raise DataError("variance estimate must be positive")
    if T < 1:
        raise DataError("T must be positive")
    z = hclub_z(tau, paper_z)
    u_variance = z * math.sqrt(lrv.sigma2 / T)
    u_risk = u_variance / math.sqrt(4.0 * variance_estimate)
    return HclubResult(
        tau=tau, z=z, u_variance=u_variance, u_risk=u_risk, estimator_kind=kind
    )


@dataclass(frozen=True)
class CrudeBound:
    """Full-confidence bound xi = ||w||_1^2 * ||Sigma_hat - Sigma||_max
    alongside the realized error delta = |w'(Sigma_hat - Sigma)w|.
    """

    xi: float
    delta: float


def _matrix_of(estimate) -> np.ndarray:
    return np.asarray(getattr(estimate, "matrix", estimate), dtype=float)


def crude_bound(w, estimate, truth) -> CrudeBound:
    """Compute xi and delta between an estimate and a reference matrix."""
    weights = np.asarray(getattr(w, "weights", w), dtype=float)
    err = _matrix_of(estimate) - _matrix_of(truth)
    if err.shape != (weights.shape[0], weights.shape[0]):
        raise DataError(
            f"dimension mismatch: weights {weights.shape}, matrices {err.shape}"
        )
    xi = float(np.abs(weights).sum() ** 2 * np.max(np.abs(err)))
    delta = float(abs(weights @ err @ weights))
    return CrudeBound(xi=xi, delta=delta)


def re_ratios(xi: float, u: HclubResult, true_variance: float):
    """RE1 = xi / U(tau) and RE2 = U(tau) / (4 w'Sigma w)."""
    if not u.u_variance > 0.0:
        raise DataError("H-CLUB bound is zero; RE1 is undefined")
    if not true_variance > 0.0:
        raise DataError("true variance must be positive")
    return xi / u.u_variance, u.u_variance / (4.0 * true_variance)
