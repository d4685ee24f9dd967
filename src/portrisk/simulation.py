"""Calibrated Monte Carlo engine.

Synthetic markets follow a three-factor model: loadings are drawn from a
trivariate Gaussian, factors follow a stationary VAR(1), and errors are
Gaussian with a sparse-by-construction covariance D * Sigma0 * D whose
correlation matrix is hard-thresholded at the smallest level that makes
it positive definite.  That level is found by bisection; a midpoint is
decided on the principal block of the rows that keep an off-diagonal entry
there (the thresholded matrix is the identity outside them), factoring
leading blocks of those rows at growing sizes and stopping at the first
that fails.  The calibrated error covariance keeps few such rows, so the
errors take a Cholesky product only on the coupled rows and the true
portfolio variances are assembled from the loadings, the error variances
and that block, without an N x N product.
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
long-run-variance kernel.  A market keeps its error covariance in parts
(the error variances and the block of the coupled rows) and never forms
the true covariance.  Blocks are sized so that the coupled blocks they
hold, at most N x N each, and their factor chains each stay within a fixed
memory budget; from N = 257 on a block is a single replication.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
import warnings
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

# autocov_* and sample_random_portfolio are the single-portfolio forms of
# the batched ops used here; they stay bound in this module for code that
# wraps the module's names to profile it
from .assessment import (
    _CLAMPED_WARNING,
    DEFAULT_LAGS,
    EstimatorSpec,
    _quad_forms,
    autocov_factor,
    autocov_poet,
    autocov_sample,
    estimator_specs,
    hclub_z,
)
from .blas import pin_single_thread, single_thread
from .errors import DataError, NumericalError
from .estimators import ESTIMATOR_NAMES
from .panels import FactorPanel, ReturnsPanel
from .portfolios import (
    DEFAULT_PERIODS_PER_YEAR,
    _check_periods_per_year,
    _exposure_value,
    sample_random_portfolio,
    sample_random_weights,
)
from .rng import derive_rng
from .serialization import default_asset_labels

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
        # every field is immutable, so the digest and the innovation
        # covariance are computed once, here
        object.__setattr__(self, "_fingerprint",
                           hashlib.sha256("|".join(parts).encode()).hexdigest()[:16])
        try:
            sigma_eps = solve_lyapunov(self.Phi, self.cov_f)
        except NumericalError as exc:
            raise DataError(f"Phi and cov_f admit no VAR(1) innovation covariance: {exc}") from None
        sigma_eps.setflags(write=False)
        object.__setattr__(self, "_Sigma_eps", sigma_eps)

    def fingerprint(self) -> str:
        """16 hex digits of a SHA-256 over every parameter value."""
        return self._fingerprint

    @property
    def Sigma_eps(self) -> np.ndarray:
        """Innovation covariance of the VAR(1), solve_lyapunov(Phi, cov_f)."""
        return self._Sigma_eps


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


# sizes of the leading blocks a PD decision factors before the whole block
_LEADING_BLOCKS = (32, 128, 512)


def _rows_of(i: np.ndarray, j: np.ndarray, N: int) -> np.ndarray:
    """The sorted rows that the entries at positions (i, j) touch."""
    touched = np.zeros(N, dtype=bool)
    touched[i] = True
    touched[j] = True
    return np.flatnonzero(touched)


def _thresholded_is_pd(corr: np.ndarray, rows: np.ndarray, level: float) -> bool:
    """Whether corr hard-thresholded at level is positive definite.

    rows are sorted and hold every row that keeps an off-diagonal entry
    at level; the thresholded matrix is the identity outside them, so it
    is PD exactly when their principal block is.  Leading blocks of rows
    are factored first, at the sizes of _LEADING_BLOCKS: a principal
    submatrix of a PD matrix is PD, so the first block that fails decides,
    and only a block that passes moves on to the next size and finally to
    all of rows.  Each block is copied and thresholded on its own.
    """
    def block_is_pd(block):
        return _is_pd(_hard_threshold_corr(corr[np.ix_(block, block)], level))

    for size in _LEADING_BLOCKS:
        if size >= rows.size:
            break
        if not block_is_pd(rows[:size]):
            return False
    return block_is_pd(rows)


def _error_corr(params: CalibrationParams, N: int, rng):
    """Error sds, the thresholded correlation matrix and its level."""
    if N < 1:
        raise DataError("N must be at least 1")
    sds = _draw_error_sds(params, N, rng)
    corr = np.eye(N)
    i, j = np.triu_indices(N, k=1)
    draws = rng.normal(params.corr_mean, params.corr_sd, size=i.size)
    np.clip(draws, -params.corr_cap, params.corr_cap, out=draws)
    corr[i, j] = draws
    corr[j, i] = draws

    # the candidates, entries that may survive a level, and their positions
    mags = np.abs(draws, out=draws)
    if _thresholded_is_pd(corr, np.arange(N), 0.0):
        threshold = 0.0
    else:
        # smallest hard-threshold level restoring positive definiteness,
        # found by bisection and biased to the PD side of the bracket.
        # The matrix at lo is never PD and the one at hi always is; when no
        # |corr| lies in (lo, mid] or in (mid, hi], the matrix at mid is the
        # one at lo or at hi, so its status is known without a factorization.
        # Each rise of lo drops the candidates at or below it, so a midpoint
        # scans only the entries above lo (every entry, while lo is 0).
        lo, hi = 0.0, float(mags.max())
        n_hi = 0  # entries above hi
        while hi - lo > 1e-6:
            mid = (lo + hi) / 2.0
            above = np.flatnonzero(mags > mid)
            if above.size == mags.size:
                lo = mid
            elif above.size == n_hi or _thresholded_is_pd(
                    corr, _rows_of(i[above], j[above], N), mid):
                hi, n_hi = mid, above.size
            else:
                lo = mid
                i, j, mags = i[above], j[above], mags[above]
        threshold = hi
        # the thresholded matrix, scattered from the surviving entries into
        # the memory of the raw one
        keep = np.flatnonzero(mags > threshold)
        i, j = i[keep], j[keep]
        values = corr[i, j]
        corr.fill(0.0)
        np.fill_diagonal(corr, 1.0)
        corr[i, j] = values
        corr[j, i] = values
    return sds, corr, threshold


def _error_cov_detail(params: CalibrationParams, N: int, rng):
    """Error covariance plus the correlation matrix and threshold used."""
    sds, corr, threshold = _error_corr(params, N, rng)
    return corr * np.outer(sds, sds), corr, threshold


def _coupled_rows(matrix: np.ndarray) -> np.ndarray:
    """The rows of a square matrix that keep a nonzero off-diagonal entry."""
    return np.flatnonzero(np.count_nonzero(matrix, axis=1) > (np.diagonal(matrix) != 0))


def generate_error_cov(params: CalibrationParams, N: int, rng):
    """Sparse-by-construction PD error covariance Sigma_u = D * Sigma0 * D,
    in the parts a ModelInstance keeps, without forming the N x N matrix.

    Returns (error_var, coupled, coupled_block): the error variances (the
    diagonal of Sigma_u), the sorted rows b that keep an off-diagonal
    entry, and the block Sigma_u[b, b], each entry the product the dense
    matrix _error_cov_detail returns holds.
    """
    sds, corr, _ = _error_corr(params, N, rng)
    b = _coupled_rows(corr)
    return sds * sds, b, corr[np.ix_(b, b)] * np.outer(sds[b], sds[b])


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
    root = _psd_root(params.Sigma_eps, "Sigma_eps")
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
    """One synthetic market's covariance, kept in parts.

    The true covariance is Sigma_true = B cov_f B' + Sigma_u, and Sigma_u
    is diagonal outside its coupled rows b (the rows that keep an
    off-diagonal entry).  An instance keeps the loadings B, the factor
    covariance cov_f, the error variances error_var (the diagonal of
    Sigma_u), the sorted rows coupled = b and the block coupled_block =
    Sigma_u[b, b]: O(N + |b|^2) numbers.  Sigma_u and Sigma_true are built
    on each access, a new read-only N x N array (8 N^2 bytes) every time,
    with the bits the dense construction gives; the simulation reads only
    the parts, through true_variances and max_abs_deviation.
    """

    B: np.ndarray
    cov_f: np.ndarray
    error_var: np.ndarray
    coupled: np.ndarray
    coupled_block: np.ndarray

    def __post_init__(self):
        for name in ("B", "cov_f", "error_var", "coupled", "coupled_block"):
            arr = np.asarray(getattr(self, name), dtype=np.intp if name == "coupled" else float)
            arr.setflags(write=False)
            setattr(self, name, arr)
        # the error variances outside b, zero on b, where the block has them
        self._uncoupled_var = self.error_var.copy()
        self._uncoupled_var[self.coupled] = 0.0

    @property
    def N(self) -> int:
        return self.B.shape[0]

    @property
    def Sigma_u(self) -> np.ndarray:
        """The N x N error covariance, built on each access."""
        out = np.diag(self.error_var)
        out[np.ix_(self.coupled, self.coupled)] = self.coupled_block
        out.setflags(write=False)
        return out

    @property
    def Sigma_true(self) -> np.ndarray:
        """The N x N true covariance B cov_f B' + Sigma_u, built on each access."""
        out = self.B @ self.cov_f @ self.B.T + self.Sigma_u
        out.setflags(write=False)
        return out

    def true_variances(self, W: np.ndarray) -> np.ndarray:
        """w'Sigma_true w for every column w of W.

        Each variance is (B'w)'cov_f(B'w) plus Sigma_u[i, i] w_i^2 summed
        off b plus w_b'Sigma_u[b, b]w_b: O(N) work per portfolio on top of
        the block, not an N x N product.
        """
        BW = self.B.T @ W
        return (np.einsum("kp,kp->p", BW, self.cov_f @ BW)
                + self._uncoupled_var @ (W * W)
                + _quad_forms(self.coupled_block, W[self.coupled]))

    def max_abs_deviation(self, M: np.ndarray) -> float:
        """max |M - Sigma_true| over all entries, with one N x N temporary.

        B cov_f B' is formed by the product Sigma_true takes, so it has
        the same bits; the error variances and the coupled block are added
        into it, and the difference and its magnitude are taken in place.
        Row blocks of that product would hold less, but BLAS chooses its
        kernel by the shape of a product, and on a block it may round
        entries differently from the whole.
        """
        out = self.B @ self.cov_f @ self.B.T
        out.reshape(-1)[::self.N + 1] += self._uncoupled_var
        out[np.ix_(self.coupled, self.coupled)] += self.coupled_block
        np.subtract(M, out, out=out)
        return float(np.max(np.abs(out, out=out)))


def build_model_instance(params: CalibrationParams, N: int, rng) -> ModelInstance:
    """Draw the loadings and the error covariance of one market.

    The generator is consumed in a fixed order: loadings first, then
    error sds, then error correlations.  The error covariance is kept in
    parts (see ModelInstance), and the true covariance is not formed.
    """
    B = generate_loadings(params, N, rng)
    error_var, coupled, coupled_block = generate_error_cov(params, N, rng)
    return ModelInstance(B=B, cov_f=params.cov_f, error_var=error_var,
                         coupled=coupled, coupled_block=coupled_block)


@dataclass(frozen=True)
class ExperimentCell:
    """One grid point of the replication protocol.

    Construction builds each estimator's EstimatorSpec (a rule or C of None
    is the spec's default), so invalid settings fail before any market is simulated.
    """

    N: int
    T: int
    c: float
    estimators: tuple = ESTIMATOR_NAMES
    L: int = DEFAULT_LAGS
    tau: float = 0.05
    portfolios_per_rep: int = 200
    paper_z: bool = True
    factor_rule: str | None = None
    factor_C: float | None = None
    poet_K: int = EstimatorSpec.K
    poet_C: float | None = None
    poet_rule: str | None = None
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


def _correlated_errors(Z: np.ndarray, instance: ModelInstance) -> np.ndarray:
    """Z chol(Sigma_u)', written over Z, for the instance's Sigma_u.

    Sigma_u is diagonal off its coupled rows b, so its Cholesky factor is
    the sds there and the factor of the (b, b) block on b: the other
    columns of Z are scaled, and only the columns b take a product.
    """
    b = instance.coupled
    Zb = Z[:, b]
    Z *= np.sqrt(instance.error_var)
    Z[:, b] = Zb @ np.linalg.cholesky(instance.coupled_block).T
    return Z


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
    assets = default_asset_labels(N)
    for instance, F, rng in zip(instances, factors, rngs):
        U = _correlated_errors(rng.standard_normal((T, N)), instance)
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
            max_err = self.instance.max_abs_deviation(fitted.estimate.matrix)
            self._estimates[spec] = (fitted, max_err)
        return self._estimates[spec]


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

    true_var = market.instance.true_variances(W)
    z = hclub_z(cell.tau, paper_z=cell.paper_z)

    per_estimator = {}
    for spec in cell._specs:
        fitted, max_err = market.estimate(spec)
        vhat, sigma2, u_var, clamped = fitted.assess(W, cell.L, z)
        delta = np.abs(vhat - true_var)
        xi = gross_sq * max_err
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


# x of each CellAggregate mean_x / sd_x pair: the per-portfolio key it
# summarizes, None for the true risk
_CELL_STATS = {"delta": "delta", "xi": "xi", "u": "u_variance", "re1": "re1", "re2": "re2",
               "true_risk": None}


def _aggregate(cell: ExperimentCell, records: list) -> list:
    """Each estimator's CellAggregate over records; every mean and sd is
    taken over the finite values (only RE1 can be NaN, where U is 0)."""
    out = []
    true_risk = np.sqrt(np.concatenate([r.true_variance for r in records]))
    for name in cell.estimators:
        def stacked(key):
            return np.concatenate([r.per_estimator[name][key] for r in records])

        stats = {}
        for x, key in _CELL_STATS.items():
            values = true_risk if key is None else stacked(key)
            values = values[np.isfinite(values)]
            stats[f"mean_{x}"] = float(values.mean()) if values.size else float("nan")
            stats[f"sd_{x}"] = float(np.std(values, ddof=1)) if values.size > 1 else float("nan")
        out.append(CellAggregate(
            estimator=name, N=cell.N, T=cell.T, c=cell.c, L=cell.L, tau=cell.tau,
            replications=len(records), n_records=true_risk.size,
            coverage=float(stacked("covered").mean()),
            clamped_count=int(stacked("clamped").sum()), **stats))
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
# replication of a block keeps its model instance until its turn, whose
# coupled block of Sigma_u takes at most 8 N^2 bytes (the rest is O(N)),
# and its factor chain (under 48 (VAR_BURN_IN + T) bytes)
_BLOCK_BUDGET = 1 << 20


def _block_size(N: int, T: int) -> int:
    """Replications per task for markets of N assets and T periods."""
    return max(1, _BLOCK_BUDGET // max(8 * N * N, 48 * (VAR_BURN_IN + T)))


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
    with warnings.catch_warnings():
        # run_experiment reports the clamped total of the whole run once
        warnings.filterwarnings("ignore", _CLAMPED_WARNING, RuntimeWarning)
        for rep, data in zip(reps, simulated):
            market = _Market(lead, base_seed, rep, data)
            out.extend((ci, rep, run_replication(grid[ci], base_seed, rep, market))
                       for ci in cells)
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
    all of the market's cells.  Each finished task logs one INFO line;
    long-run variances clamped at zero anywhere in the run raise one
    RuntimeWarning with their total.  Every task runs with numpy's BLAS
    on one thread, serially and in the pool workers alike (see
    portrisk.blas); the caller's BLAS thread count is restored on return.
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
    with single_thread():
        if workers == 1 or len(tasks) == 1:
            results = list(logged(map(fn, tasks)))
        else:
            from concurrent.futures import ProcessPoolExecutor

            chunk = max(1, len(tasks) // (workers * 4))
            with ProcessPoolExecutor(max_workers=workers,
                                     initializer=pin_single_thread) as pool:
                results = list(logged(pool.map(fn, tasks, chunksize=chunk)))

    by_cell: dict = {ci: {} for ci in range(len(grid))}
    for batch in results:
        for cell_index, rep, record in batch:
            by_cell[cell_index][rep] = record

    aggregates = []
    for ci, cell in enumerate(grid):
        ordered = [by_cell[ci][rep] for rep in range(replications)]
        aggregates.extend(_aggregate(cell, ordered))
    clamped = sum(agg.clamped_count for agg in aggregates)
    if clamped:
        warnings.warn(f"{_CLAMPED_WARNING} for {clamped} of "
                      f"{sum(agg.n_records for agg in aggregates)} portfolio assessments; "
                      "clamped to 0", RuntimeWarning, stacklevel=2)
    return ExperimentReport(cells=tuple(aggregates), replications=replications,
                            base_seed=int(base_seed))


@dataclass(frozen=True)
class GridConfig:
    """Parsed experiment configuration: the cell grid plus run settings."""

    cells: tuple
    replications: int = 100
    base_seed: int = 0
    periods_per_year: float = DEFAULT_PERIODS_PER_YEAR

    def __post_init__(self):
        _check_periods_per_year(self.periods_per_year)


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
