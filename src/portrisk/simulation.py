"""Calibrated Monte Carlo engine.

Synthetic markets follow a three-factor model: loadings are drawn from a
trivariate Gaussian, factors follow a stationary VAR(1), and errors are
Gaussian with a sparse-by-construction covariance D * Sigma0 * D whose
correlation matrix is hard-thresholded at the smallest level that makes
it positive definite.  That level is found by bisection; a midpoint is
decided by factoring only the principal block of the rows that keep an
off-diagonal entry there (the thresholded matrix is the identity outside
them), or the full matrix when those rows are more than half of all rows.
The shipped loading and factor parameters are calibrated to daily data
in percent units (a value of 1.0 means 1% per period), so simulated
risks annualize to realistic equity magnitudes.

The replication protocol generates one market per (calibration, N, T,
replication), estimates the covariance three ways (sample; factor model
with the simulated factors observed; POET with re-extracted latent
factors), each through the EstimatorSpec a cell builds from its settings,
draws a batch of random exposure-c portfolios, and records the
realized estimation error Delta, the crude bound xi, the high-confidence
bound U(tau), the ratios RE1 and RE2, and the coverage indicator for
every portfolio and estimator.  Model streams are keyed by (base_seed, N,
T, replication) and portfolio streams additionally by c, so cells that
differ only in exposure see the same simulated markets (common random
numbers) while remaining fully deterministic for any worker count.

An experiment is scheduled market-major: one task per (market, block of
consecutive replications), where a market is the set of grid cells
sharing (calibration, N, T).  A task draws the loadings and error
covariances of its block, steps the VAR(1) factor chains of the whole
block together, and then takes one replication at a time: it draws that
market's errors, builds each distinct estimator spec once, and
evaluates every cell of the market with the batched portfolio sampler and
long-run-variance kernel.  Blocks are sized so that the error and true
covariances they hold, and their factor chains, each stay within a fixed
memory budget; from N = 182 on a block is a single replication.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

# autocov_* and sample_random_portfolio are the single-portfolio forms of
# the batched ops used here; they stay bound in this module for code that
# wraps the module's names to profile it
from .assessment import (
    EstimatorSpec,
    autocov_factor,
    autocov_poet,
    autocov_sample,
    estimator_specs,
    hclub_z,
    long_run_variances,
)
from .errors import DataError, NumericalError
from .estimators import ESTIMATOR_NAMES
from .panels import FactorPanel, ReturnsPanel
from .portfolios import _exposure_value, sample_random_portfolio, sample_random_weights
from .rng import derive_rng

__all__ = [
    "CalibrationParams",
    "ModelInstance",
    "ExperimentCell",
    "ReplicationRecord",
    "CellAggregate",
    "ExperimentReport",
    "default_calibration",
    "diversified_calibration",
    "solve_lyapunov",
    "generate_loadings",
    "generate_error_cov",
    "generate_var1_factors",
    "build_model_instance",
    "run_replication",
    "run_experiment",
    "default_workers",
    "GridConfig",
    "parse_grid_config",
    "VAR_BURN_IN",
]

log = logging.getLogger(__name__)

VAR_BURN_IN = 500


def _frozen_array(values, shape) -> np.ndarray:
    arr = np.asarray(values, dtype=float).reshape(shape)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class CalibrationParams:
    """Parameters of the synthetic market generator.

    mu_B / Sigma_B drive the loading draws, mu_f / Phi / cov_f the VAR(1)
    factor dynamics, and the remaining scalars the error covariance: sds
    come from a Gamma(gamma_shape, gamma_rate) restricted to [sd_min,
    sd_max], off-diagonal correlations from a Gaussian(corr_mean,
    corr_sd) capped at +-corr_cap.
    """

    mu_B: np.ndarray
    Sigma_B: np.ndarray
    mu_f: np.ndarray
    Phi: np.ndarray
    cov_f: np.ndarray
    gamma_shape: float = 4.0
    gamma_rate: float = 2.5
    corr_mean: float = 0.2
    corr_sd: float = 0.2
    sd_min: float = 0.5
    sd_max: float = 2.0
    corr_cap: float = 0.95

    def __post_init__(self):
        object.__setattr__(self, "mu_B", _frozen_array(self.mu_B, (3,)))
        object.__setattr__(self, "Sigma_B", _frozen_array(self.Sigma_B, (3, 3)))
        object.__setattr__(self, "mu_f", _frozen_array(self.mu_f, (3,)))
        object.__setattr__(self, "Phi", _frozen_array(self.Phi, (3, 3)))
        object.__setattr__(self, "cov_f", _frozen_array(self.cov_f, (3, 3)))
        for name in ("Sigma_B", "cov_f"):
            m = getattr(self, name)
            if np.max(np.abs(m - m.T)) > 1e-12:
                raise DataError(f"{name} must be symmetric")
            if np.linalg.eigvalsh(m)[0] <= 0:
                raise DataError(f"{name} must be positive definite")
        radius = float(np.max(np.abs(np.linalg.eigvals(self.Phi))))
        if radius >= 1.0:
            raise DataError(f"Phi spectral radius {radius:.4f} is not below 1")
        if not (self.gamma_shape > 0 and self.gamma_rate > 0):
            raise DataError("Gamma parameters must be positive")
        if not 0 < self.sd_min <= self.sd_max:
            raise DataError("need 0 < sd_min <= sd_max")
        if not 0 < self.corr_cap < 1:
            raise DataError("corr_cap must lie in (0, 1)")
        if not math.isfinite(self.corr_mean):
            raise DataError(f"corr_mean must be finite, got {self.corr_mean}")
        if not (math.isfinite(self.corr_sd) and self.corr_sd >= 0):
            raise DataError(f"corr_sd must be finite and non-negative, got {self.corr_sd}")
        parts = []
        for name in ("mu_B", "Sigma_B", "mu_f", "Phi", "cov_f"):
            parts.extend(repr(float(v)) for v in getattr(self, name).ravel())
        for name in (
            "gamma_shape", "gamma_rate", "corr_mean", "corr_sd",
            "sd_min", "sd_max", "corr_cap",
        ):
            parts.append(repr(float(getattr(self, name))))
        # every field is immutable, so the digest is taken once, here
        object.__setattr__(self, "_fingerprint",
                           hashlib.sha256("|".join(parts).encode()).hexdigest()[:16])

    def fingerprint(self) -> str:
        """16 hex digits of a SHA-256 over every parameter value."""
        return self._fingerprint


def default_calibration() -> CalibrationParams:
    """Loading and factor parameters calibrated to daily three-factor data.

    Values are in daily percent units.  The error-covariance parameters
    (Gamma sds, correlation mean/sd) are artifact defaults: residual
    volatilities land around 1.3% per day, which keeps total asset risk
    at realistic equity levels and the worst-case bound ratios in the
    ranges the replication protocol expects.
    """
    return CalibrationParams(
        mu_B=(0.9833, -0.1233, 0.0839),
        Sigma_B=(
            (0.0921, -0.0178, 0.0436),
            (-0.0178, 0.0862, -0.0211),
            (0.0436, -0.0211, 0.7624),
        ),
        mu_f=(0.0260, 0.0211, -0.0043),
        Phi=(
            (-0.1006, 0.2803, -0.0365),
            (-0.0191, -0.0944, 0.0186),
            (0.0116, -0.0272, 0.0272),
        ),
        cov_f=(
            (3.2351, 0.1783, 0.7783),
            (0.1783, 0.5069, 0.0102),
            (0.7783, 0.0102, 0.6586),
        ),
    )


@cache
def _default_calibration() -> CalibrationParams:
    """The calibration of cells that name none, built once: it is immutable."""
    return default_calibration()


def diversified_calibration() -> CalibrationParams:
    """Variant for panels whose assets are themselves broad portfolios.

    Index and industry portfolios follow the same factor autoregression
    as default_calibration but in a calmer regime (half the factor
    volatility) and sit much closer together: loadings are tightly
    dispersed around the mean and residual volatilities are a few tenths
    of a percent per day, so no admissible weight vector can cancel the
    common factor exposure.  Used for synthetic stand-ins for
    portfolio-sorted datasets in the rolling study.
    """
    base = default_calibration()
    return CalibrationParams(
        mu_B=base.mu_B,
        Sigma_B=np.asarray(base.Sigma_B) / 16.0,
        mu_f=base.mu_f,
        Phi=base.Phi,
        cov_f=np.asarray(base.cov_f) / 4.0,
        gamma_shape=4.0,
        gamma_rate=10.0,
        sd_min=0.2,
        sd_max=0.6,
        corr_mean=0.2,
        corr_sd=0.2,
    )


def solve_lyapunov(Phi, cov_f) -> np.ndarray:
    """Innovation covariance of a VAR(1) with the given stationary cov.

    Rearranges cov_f = Phi cov_f Phi' + Sigma_eps; the result is
    symmetrized and must be PSD within a -1e-8 eigenvalue tolerance.
    """
    Phi = np.asarray(Phi, dtype=float)
    cov_f = np.asarray(cov_f, dtype=float)
    sig = cov_f - Phi @ cov_f @ Phi.T
    sig = (sig + sig.T) / 2.0
    evals = np.linalg.eigvalsh(sig)
    if evals[0] < -1e-8:
        raise NumericalError(
            f"derived innovation covariance has eigenvalue {evals[0]:.3e} < -1e-8"
        )
    return sig


def _psd_root(matrix: np.ndarray, label: str = "matrix") -> np.ndarray:
    """A factor A with A A' = matrix, clipping tiny negative eigenvalues."""
    evals, evecs = np.linalg.eigh(matrix)
    if evals[0] < 0:
        log.debug("clipped negative eigenvalue %.3e while factoring %s", evals[0], label)
    return evecs * np.sqrt(np.clip(evals, 0.0, None))


def generate_loadings(params: CalibrationParams, N: int, rng) -> np.ndarray:
    """N i.i.d. loading rows from N3(mu_B, Sigma_B)."""
    if N < 1:
        raise DataError("N must be at least 1")
    root = _psd_root(params.Sigma_B, "Sigma_B")
    return rng.standard_normal((N, 3)) @ root.T + params.mu_B


def _draw_error_sds(params: CalibrationParams, N: int, rng) -> np.ndarray:
    out = np.empty(0)
    attempts = 0
    while out.size < N:
        batch = rng.gamma(params.gamma_shape, 1.0 / params.gamma_rate,
                          size=max(2 * (N - out.size), 16))
        attempts += batch.size
        if attempts > 100_000:
            raise DataError(
                "error-sd rejection sampling exceeded 1e5 attempts; "
                "the Gamma parameters put almost no mass in [sd_min, sd_max]"
            )
        keep = batch[(batch >= params.sd_min) & (batch <= params.sd_max)]
        out = np.concatenate([out, keep])
    return out[:N]


def _hard_threshold_corr(corr: np.ndarray, level: float) -> np.ndarray:
    out = np.where(np.abs(corr) <= level, 0.0, corr)
    np.fill_diagonal(out, 1.0)
    return out


def _is_pd(matrix: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(matrix)
        return True
    except np.linalg.LinAlgError:
        return False


def _surviving_block(corr: np.ndarray, magnitudes: np.ndarray, iu, level: float) -> np.ndarray:
    """corr, or its principal block on the rows hard thresholding at level keeps.

    magnitudes holds |corr| at the upper-triangle positions iu.  The
    thresholded matrix is the identity outside the rows that keep an
    off-diagonal entry, so it is PD exactly when their block is.  The
    full matrix is returned when those rows are more than half of all rows:
    there, copying the block costs more than the factorization it saves.
    """
    kept = np.flatnonzero(magnitudes > level)
    touched = np.zeros(corr.shape[0], dtype=bool)
    touched[iu[0][kept]] = True
    touched[iu[1][kept]] = True
    rows = np.flatnonzero(touched)
    if 2 * rows.size > corr.shape[0]:
        return corr
    return corr[np.ix_(rows, rows)]


def _error_cov_detail(params: CalibrationParams, N: int, rng):
    """Error covariance plus the correlation matrix and threshold used."""
    if N < 1:
        raise DataError("N must be at least 1")
    sds = _draw_error_sds(params, N, rng)
    corr = np.eye(N)
    draws = np.empty(0)
    if N > 1:
        iu = np.triu_indices(N, k=1)
        draws = rng.normal(params.corr_mean, params.corr_sd, size=iu[0].size)
        draws = np.clip(draws, -params.corr_cap, params.corr_cap)
        corr[iu] = draws
        corr[(iu[1], iu[0])] = draws

    if _is_pd(corr):
        threshold = 0.0
    else:
        # smallest hard-threshold level restoring positive definiteness,
        # found by bisection and biased to the PD side of the bracket.
        # The matrix at lo is never PD and the one at hi always is; when no
        # |corr| lies in (lo, mid] or in (mid, hi], the matrix at mid is the
        # one at lo or at hi, so its status is known without a factorization.
        # Otherwise only the rows that keep an off-diagonal entry at mid are
        # factored (see _surviving_block).
        np.abs(draws, out=draws)
        levels = np.sort(draws)
        lo, hi = 0.0, float(levels[-1])
        while hi - lo > 1e-6:
            mid = (lo + hi) / 2.0
            n_lo, n_mid, n_hi = np.searchsorted(levels, (lo, mid, hi), side="right")
            if n_mid == n_lo:
                lo = mid
            elif n_hi == n_mid or _is_pd(
                    _hard_threshold_corr(_surviving_block(corr, draws, iu, mid), mid)):
                hi = mid
            else:
                lo = mid
        threshold = hi
        corr = _hard_threshold_corr(corr, threshold)
    sigma_u = corr * np.outer(sds, sds)
    return sigma_u, corr, threshold


def generate_error_cov(params: CalibrationParams, N: int, rng) -> np.ndarray:
    """Sparse-by-construction PD error covariance D * Sigma0 * D."""
    return _error_cov_detail(params, N, rng)[0]


def stationary_mean(params: CalibrationParams) -> np.ndarray:
    return np.linalg.solve(np.eye(3) - params.Phi, params.mu_f)


def generate_var1_factors(params: CalibrationParams, T: int, rng) -> np.ndarray:
    """T rows of the stationary VAR(1) f_t = mu + Phi f_{t-1} + eps_t.

    The chain starts at its stationary mean and discards VAR_BURN_IN
    steps, which drives initial transients far below double precision for
    any spectral radius this package accepts.

    rng may also be a sequence of R generators, one per chain.  Each
    draws its chain's innovations in turn, all chains step together, and
    the result is R x T x 3.  A chain's product Phi f_{t-1} is one slice
    of a stacked np.matmul, the same BLAS gemv call a lone chain makes, so
    every path is bit-identical to the one its generator gives alone.
    """
    if T < 1:
        raise DataError("T must be at least 1")
    single = hasattr(rng, "standard_normal")
    rngs = (rng,) if single else tuple(rng)
    root = _psd_root(solve_lyapunov(params.Phi, params.cov_f), "Sigma_eps")
    steps, R = VAR_BURN_IN + T, len(rngs)
    # time-major column vectors; row t holds every chain's innovation at
    # step t until the recursion overwrites it with the chains' state
    paths = np.empty((steps, R, 3, 1))
    for r, g in enumerate(rngs):
        paths[:, r, :, 0] = g.standard_normal((steps, 3)) @ root.T
    # mu at full shape: a broadcasting add costs about twice as much per step
    mu = np.empty((R, 3, 1))
    mu[...] = params.mu_f[:, None]
    x = np.empty((R, 3, 1))
    x[...] = stationary_mean(params)[:, None]
    Phi, add, matmul = params.Phi, np.add, np.matmul
    for eps in paths:
        y = matmul(Phi, x)
        add(mu, y, y)
        add(y, eps, eps)
        x = eps
    out = paths[VAR_BURN_IN:, :, :, 0].transpose(1, 0, 2).copy()
    return out[0] if single else out


@dataclass
class ModelInstance:
    """One synthetic market: loadings, error covariance, true covariance."""

    B: np.ndarray
    Sigma_u: np.ndarray
    Sigma_true: np.ndarray
    Sigma_eps: np.ndarray

    def __post_init__(self):
        for name in ("B", "Sigma_u", "Sigma_true", "Sigma_eps"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            setattr(self, name, arr)

    @property
    def N(self) -> int:
        return self.B.shape[0]


def build_model_instance(params: CalibrationParams, N: int, rng) -> ModelInstance:
    """Draw loadings and error covariance; assemble the true covariance.

    The generator is consumed in a fixed order: loadings first, then
    error sds, then error correlations.
    """
    B = generate_loadings(params, N, rng)
    Sigma_u = generate_error_cov(params, N, rng)
    Sigma_true = B @ params.cov_f @ B.T + Sigma_u
    Sigma_eps = solve_lyapunov(params.Phi, params.cov_f)
    return ModelInstance(B=B, Sigma_u=Sigma_u, Sigma_true=Sigma_true, Sigma_eps=Sigma_eps)


@dataclass(frozen=True)
class ExperimentCell:
    """One grid point of the replication protocol.

    Construction builds each estimator's EstimatorSpec (factor_C=None is
    0.1 * K), so invalid settings fail before any market is simulated.
    """

    N: int
    T: int
    c: float
    estimators: tuple = ESTIMATOR_NAMES
    L: int = 5
    tau: float = 0.05
    portfolios_per_rep: int = 200
    paper_z: bool = True
    factor_rule: str = "hard"
    factor_C: float | None = None  # None: 0.1 * K, the protocol's cut-off
    poet_K: int = 3
    poet_C: float = 0.5
    poet_rule: str = "soft"
    calibration: CalibrationParams | None = None

    def __post_init__(self):
        if self.N < 1 or self.T < 2:
            raise DataError(f"cell needs N >= 1 and T >= 2, got N={self.N}, T={self.T}")
        _exposure_value(self.c)
        if not 0 <= self.L < self.T:
            raise DataError(f"lag truncation must satisfy 0 <= L < T, got L={self.L}, T={self.T}")
        if not 0 < self.tau < 1:
            raise DataError(f"tau must lie in (0, 1), got {self.tau}")
        if self.portfolios_per_rep < 1:
            raise DataError("portfolios_per_rep must be at least 1")
        object.__setattr__(self, "_specs", estimator_specs(self.estimators, {
            "factor": dict(rule=self.factor_rule, C=self.factor_C),
            "poet": dict(rule=self.poet_rule, C=self.poet_C, K=self.poet_K)}))


@dataclass
class ReplicationRecord:
    """Per-portfolio results of one replication of one cell."""

    cell: ExperimentCell
    rep: int
    true_variance: np.ndarray            # (P,)
    per_estimator: dict                  # name -> dict of (P,) arrays


def _calibration(cell: ExperimentCell) -> CalibrationParams:
    return cell.calibration or _default_calibration()


def _generate_markets(params: CalibrationParams, N: int, T: int, base_seed: int, reps):
    """Instance, returns panel and factor panel of each (N, T, rep) market.

    Yields one market per replication of reps, in order.  Each is a
    deterministic function of its own arguments: the model stream is keyed
    by (base_seed, N, T, rep) and consumed in the order loadings, error
    covariance, VAR(1) innovations, errors.  The instances and factor paths
    of all of reps are drawn up front, the factor chains in one stacked
    recursion; the errors and panels of a market are drawn when it is
    asked for.
    """
    rngs = [derive_rng(base_seed, "model", N, T, rep) for rep in reps]
    instances = [build_model_instance(params, N, rng) for rng in rngs]
    factors = generate_var1_factors(params, T, rngs)
    dates = tuple(f"t{t:06d}" for t in range(T))
    assets = tuple(f"a{i:04d}" for i in range(N))
    for instance, F, rng in zip(instances, factors, rngs):
        U = rng.standard_normal((T, N)) @ np.linalg.cholesky(instance.Sigma_u).T
        market = (instance, ReturnsPanel(dates, assets, F @ instance.B.T + U),
                  FactorPanel(dates, ("f1", "f2", "f3"), F))
        # the frame stays suspended while the caller uses the market: drop U
        del U
        yield market


def _generate_market(params: CalibrationParams, N: int, T: int, base_seed: int, rep: int):
    """Instance, returns panel and factor panel of one (N, T, rep) market."""
    [market] = _generate_markets(params, N, T, base_seed, (rep,))
    return market


def _market_key(cell: ExperimentCell) -> tuple:
    return _calibration(cell).fingerprint(), cell.N, cell.T


class _Market:
    """One simulated market and the estimates built on it.

    Every cell of the market shares the simulated data; a spec's estimate
    is built on first request and reused by each later cell with an equal
    spec.
    """

    def __init__(self, cell: ExperimentCell, base_seed: int, rep: int, simulated=None):
        """simulated: this market's (instance, panel, fpanel) if already drawn."""
        self.key = _market_key(cell) + (int(base_seed), rep)
        if simulated is None:
            simulated = _generate_market(_calibration(cell), cell.N, cell.T, base_seed, rep)
        self.instance, self.panel, self.fpanel = simulated
        self._estimates = {}

    def estimate(self, spec: EstimatorSpec) -> tuple:
        """(fitted estimator, max |Sigma_hat - Sigma|) of spec on this market.

        The factor estimator treats the simulated factors as observed.
        """
        if spec not in self._estimates:
            fitted = spec.fit(self.panel, self.fpanel)
            max_err = float(np.max(np.abs(fitted.estimate.matrix - self.instance.Sigma_true)))
            self._estimates[spec] = (fitted, max_err)
        return self._estimates[spec]


def _quad_forms(matrix: np.ndarray, W: np.ndarray) -> np.ndarray:
    """w'Mw for every column of W at once."""
    return np.einsum("ip,ip->p", W, matrix @ W)


def run_replication(cell: ExperimentCell, base_seed: int, rep: int,
                    market: _Market | None = None) -> ReplicationRecord:
    """One full pass of the protocol for one cell.

    Simulates the market (or takes the one given, which must be this
    cell's market for base_seed and rep), builds every requested
    estimator, draws the cell's portfolios, and records Delta, xi,
    U(tau), RE1, RE2 and the coverage indicator per portfolio and
    estimator.
    """
    if market is None:
        market = _Market(cell, base_seed, rep)
    elif market.key != _market_key(cell) + (int(base_seed), rep):
        raise DataError("the market given was not simulated for this cell and replication")
    N, T, P = cell.N, cell.T, cell.portfolios_per_rep

    rng_pf = derive_rng(base_seed, "portfolios", N, T, float(cell.c), rep)
    W = sample_random_weights(N, cell.c, rng_pf, P)
    gross_sq = np.abs(W).sum(axis=0) ** 2

    true_var = _quad_forms(market.instance.Sigma_true, W)
    z = hclub_z(cell.tau, paper_z=cell.paper_z)

    per_estimator = {}
    for spec in cell._specs:
        fitted, max_err = market.estimate(spec)
        vhat = _quad_forms(fitted.estimate.matrix, W)
        delta = np.abs(vhat - true_var)
        xi = gross_sq * max_err
        _, sigma2, clamped = long_run_variances(*fitted.series(W), cell.L)

        u_var = z * np.sqrt(sigma2 / T)
        covered = delta <= u_var
        with np.errstate(divide="ignore", invalid="ignore"):
            re1 = np.where(u_var > 0, xi / u_var, np.nan)
        re2 = u_var / (4.0 * true_var)

        per_estimator[spec.name] = {
            "variance_hat": vhat,
            "delta": delta,
            "xi": xi,
            "sigma2": sigma2,
            "u_variance": u_var,
            "re1": re1,
            "re2": re2,
            "covered": covered,
            "clamped": clamped,
        }

    return ReplicationRecord(cell=cell, rep=rep, true_variance=true_var,
                             per_estimator=per_estimator)


@dataclass(frozen=True)
class CellAggregate:
    """Summary of one (cell, estimator) pair across all replications."""

    estimator: str
    N: int
    T: int
    c: float
    L: int
    tau: float
    replications: int
    n_records: int
    mean_delta: float
    sd_delta: float
    mean_xi: float
    sd_xi: float
    mean_u: float
    sd_u: float
    mean_re1: float
    sd_re1: float
    mean_re2: float
    sd_re2: float
    mean_true_risk: float
    sd_true_risk: float
    coverage: float
    clamped_count: int


@dataclass(frozen=True)
class ExperimentReport:
    """All cell aggregates of one experiment, in grid order."""

    cells: tuple
    replications: int
    base_seed: int

    def by_estimator(self, name: str):
        return [agg for agg in self.cells if agg.estimator == name]


def _sd(values: np.ndarray) -> float:
    values = values[np.isfinite(values)]
    if values.size < 2:
        return float("nan")
    return float(np.std(values, ddof=1))


def _aggregate(cell: ExperimentCell, records: list) -> list:
    out = []
    reps = len(records)
    for name in cell.estimators:
        delta = np.concatenate([r.per_estimator[name]["delta"] for r in records])
        xi = np.concatenate([r.per_estimator[name]["xi"] for r in records])
        u = np.concatenate([r.per_estimator[name]["u_variance"] for r in records])
        re1 = np.concatenate([r.per_estimator[name]["re1"] for r in records])
        re2 = np.concatenate([r.per_estimator[name]["re2"] for r in records])
        covered = np.concatenate([r.per_estimator[name]["covered"] for r in records])
        clamped = np.concatenate([r.per_estimator[name]["clamped"] for r in records])
        true_risk = np.sqrt(np.concatenate([r.true_variance for r in records]))
        finite_re1 = re1[np.isfinite(re1)]
        out.append(CellAggregate(
            estimator=name, N=cell.N, T=cell.T, c=cell.c, L=cell.L, tau=cell.tau,
            replications=reps, n_records=delta.size,
            mean_delta=float(delta.mean()), sd_delta=_sd(delta),
            mean_xi=float(xi.mean()), sd_xi=_sd(xi),
            mean_u=float(u.mean()), sd_u=_sd(u),
            mean_re1=float(finite_re1.mean()) if finite_re1.size else float("nan"),
            sd_re1=_sd(re1),
            mean_re2=float(re2.mean()), sd_re2=_sd(re2),
            mean_true_risk=float(true_risk.mean()), sd_true_risk=_sd(true_risk),
            coverage=float(covered.mean()),
            clamped_count=int(clamped.sum()),
        ))
    return out


def default_workers() -> int:
    """Worker count: PRL_THREADS if set, else min(8, usable CPUs).

    Usable CPUs are the ones this process may run on (its affinity set)
    where the platform reports it, else the host's CPU count.
    """
    env = os.environ.get("PRL_THREADS")
    if env is not None:
        try:
            n = int(env)
        except ValueError:
            raise DataError(f"PRL_THREADS must be an integer, got {env!r}") from None
        if n < 1:
            raise DataError(f"PRL_THREADS must be positive, got {n}")
        return n
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(8, cpus)


# bytes a task may hold in each kind of per-replication array: every
# replication of a block keeps its Sigma_u and Sigma_true (16 N^2 bytes)
# until its turn, and its factor chain (under 48 (VAR_BURN_IN + T) bytes)
_BLOCK_BUDGET = 1 << 20


def _block_size(N: int, T: int) -> int:
    """Replications per task for markets of N assets and T periods."""
    return max(1, _BLOCK_BUDGET // max(16 * N * N, 48 * (VAR_BURN_IN + T)))


def _run_task(grid: tuple, markets: tuple, base_seed: int, task: tuple) -> list:
    """Run every cell of one market for a block of replications.

    The block's markets are drawn together; each replication then runs
    its cells before the next one's errors and panels are drawn.
    """
    market_index, reps = task
    cells = markets[market_index]
    lead = grid[cells[0]]
    simulated = _generate_markets(_calibration(lead), lead.N, lead.T, base_seed, reps)
    out = []
    for rep, data in zip(reps, simulated):
        market = _Market(lead, base_seed, rep, data)
        out.extend((ci, rep, run_replication(grid[ci], base_seed, rep, market)) for ci in cells)
        # free this market and its estimates before the next one is drawn
        del market, data
    return out


def run_experiment(grid, replications: int, workers: int | None = None,
                   base_seed: int = 0) -> ExperimentReport:
    """Run every cell for the given number of replications.

    Results are deterministic in (grid, replications, base_seed) and do
    not depend on the worker count: every replication derives its own
    generators, and aggregation follows grid order, then replication
    order.  Cells sharing (calibration, N, T) form one market, in order
    of first appearance in the grid; a task is one market and a block of
    consecutive replications of it, and simulates each of them once for
    all of the market's cells.  Each finished task logs one INFO line.
    """
    grid = tuple(grid)
    if not grid:
        raise DataError("experiment grid is empty")
    if replications < 1:
        raise DataError("replications must be at least 1")
    if workers is None or workers == 0:
        workers = default_workers()
    if workers < 1:
        raise DataError(f"workers must be positive, got {workers}")

    by_key: dict = {}
    for ci, cell in enumerate(grid):
        by_key.setdefault(_market_key(cell), []).append(ci)
    markets = tuple(tuple(cells) for cells in by_key.values())
    tasks = []
    for mi, cells in enumerate(markets):
        size = _block_size(grid[cells[0]].N, grid[cells[0]].T)
        tasks.extend((mi, range(start, min(start + size, replications)))
                     for start in range(0, replications, size))
    # replication-major, so a pool's chunks mix the markets
    tasks.sort(key=lambda task: task[1].start)

    def logged(batches):
        for done, ((mi, reps), batch) in enumerate(zip(tasks, batches), start=1):
            lead = grid[markets[mi][0]]
            log.info("market %d/%d (N=%d, T=%d): replications %d-%d finished; %d/%d tasks done",
                     mi + 1, len(markets), lead.N, lead.T, reps.start, reps.stop - 1,
                     done, len(tasks))
            yield batch

    fn = partial(_run_task, grid, markets, base_seed)
    if workers == 1 or len(tasks) == 1:
        results = list(logged(map(fn, tasks)))
    else:
        chunk = max(1, len(tasks) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(logged(pool.map(fn, tasks, chunksize=chunk)))

    by_cell: dict = {ci: {} for ci in range(len(grid))}
    for batch in results:
        for cell_index, rep, record in batch:
            by_cell[cell_index][rep] = record

    aggregates = []
    for ci, cell in enumerate(grid):
        ordered = [by_cell[ci][rep] for rep in range(replications)]
        aggregates.extend(_aggregate(cell, ordered))
    return ExperimentReport(cells=tuple(aggregates), replications=replications,
                            base_seed=int(base_seed))


@dataclass(frozen=True)
class GridConfig:
    """Parsed experiment configuration: the cell grid plus run settings."""

    cells: tuple
    replications: int = 100
    base_seed: int = 0
    periods_per_year: float = 252.0


def _parse_bool(raw: str, key: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise DataError(f"config key {key}: expected a boolean, got {raw!r}")


def _parse_list(raw: str, cast, key: str) -> tuple:
    items = [x.strip() for x in raw.split(",") if x.strip()]
    if not items:
        raise DataError(f"config key {key}: empty list")
    try:
        values = tuple(cast(x) for x in items)
    except ValueError:
        raise DataError(f"config key {key}: cannot parse {raw!r}") from None
    if len(set(values)) != len(values):
        raise DataError(f"config key {key}: a value is listed twice in {raw!r}")
    return values


# parser of each optional key; a key left out takes the default of the
# ExperimentCell or GridConfig field of the same name
_CELL_KEYS = {
    "estimators": partial(_parse_list, cast=str, key="estimators"), "L": int, "tau": float,
    "portfolios_per_rep": int, "paper_z": partial(_parse_bool, key="paper_z"),
    "factor_rule": str, "factor_C": float, "poet_K": int, "poet_C": float, "poet_rule": str,
}
_RUN_KEYS = {"replications": int, "base_seed": int, "periods_per_year": float}
_GRID_KEYS = {"Ns", "Ts", "cs", *_CELL_KEYS, *_RUN_KEYS}


def parse_grid_config(text: str) -> GridConfig:
    """Parse 'key = value' experiment settings into a cell grid.

    Recognized keys: Ns, Ts, cs (comma lists), estimators, L, tau,
    portfolios_per_rep, replications, base_seed, paper_z, factor_rule,
    factor_C, poet_K, poet_C, poet_rule, periods_per_year.  Cells are
    generated N-major, then T, then c.  Unknown or repeated keys, and a
    value listed twice under Ns, Ts, cs or estimators, fail with the
    offending name, not a silent default.
    """
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise DataError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = body.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _GRID_KEYS:
            raise DataError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise DataError(f"config line {lineno}: key {key!r} appears twice")
        values[key] = raw

    for required in ("Ns", "Ts", "cs"):
        if required not in values:
            raise DataError(f"config is missing required key {required!r}")

    def parsed(parsers):
        out = {}
        for key, parse in parsers.items():
            if key not in values:
                continue
            try:
                out[key] = parse(values[key])
            except DataError:
                raise
            except ValueError:
                raise DataError(f"config key {key}: cannot parse {values[key]!r}") from None
        return out

    Ns = _parse_list(values["Ns"], int, "Ns")
    Ts = _parse_list(values["Ts"], int, "Ts")
    cs = _parse_list(values["cs"], float, "cs")
    cell_kwargs = parsed(_CELL_KEYS)
    cells = tuple(
        ExperimentCell(N=N, T=T, c=c, **cell_kwargs)
        for N in Ns for T in Ts for c in cs
    )
    return GridConfig(cells=cells, **parsed(_RUN_KEYS))
