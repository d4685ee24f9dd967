"""Calibrated Monte Carlo engine.

Synthetic markets follow a three-factor model: loadings are drawn from a
trivariate Gaussian, factors follow a stationary VAR(1), and errors are
Gaussian with a sparse-by-construction covariance D * Sigma0 * D whose
correlation matrix is hard-thresholded at the smallest level that makes
it positive definite.  The correlations are held as the flat upper
triangle they are drawn in, never as an N x N matrix.  The level is found
by bisection; a midpoint is decided on the principal block of the rows that
keep an off-diagonal entry there (the thresholded matrix is the identity
outside them), gathered from the triangle, factoring leading blocks of
those rows at growing sizes and stopping at the first that fails.  The
calibrated error covariance keeps few such rows, so the errors take a
Cholesky product only on the coupled rows and the true portfolio variances
are assembled from the loadings, the error variances and that block,
without an N x N product.
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
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

# autocov_* and sample_random_portfolio are the single-portfolio forms of
# the batched ops used here; they stay bound in this module for code that
# wraps the module's names to profile it
from .assessment import (
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


def _is_pd(matrix: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(matrix)
        return True
    except np.linalg.LinAlgError:
        return False


# sizes of the leading blocks a PD decision factors before the whole block
_LEADING_BLOCKS = (32, 128, 512)


class _Triangle:
    """The off-diagonal entries of a unit-diagonal correlation matrix as its
    flat upper triangle, row by row: entry (i, j), i < j, sits at position
    starts[i] + j - i - 1.  The magnitudes and the sign bits are kept apart,
    so comparing the entries with a level is one pass over the magnitudes."""

    def __init__(self, draws: np.ndarray, N: int):
        """draws: the N(N-1)/2 entries, overwritten with their magnitudes."""
        self.negative = np.signbit(draws)
        self.mags = np.abs(draws, out=draws)
        rows = np.arange(N)
        self.starts = rows * (2 * N - rows - 1) // 2

    def rows_of(self, at: np.ndarray) -> np.ndarray:
        """The sorted rows that the entries at positions at touch."""
        i = np.searchsorted(self.starts, at, side="right") - 1
        touched = np.zeros(self.starts.size, dtype=bool)
        touched[i] = touched[at - self.starts[i] + i + 1] = True
        return np.flatnonzero(touched)

    def block(self, rows: np.ndarray, level: float) -> np.ndarray:
        """The principal block on the sorted rows of the matrix hard-thresholded
        at level (an entry of magnitude at most level becomes 0), gathered
        from the triangle."""
        m = rows.size
        upper = rows[:, None] < rows
        at = ((self.starts[rows] - rows - 1)[:, None] + rows)[upper]
        kept = self.mags[at] > level
        upper[upper] = kept
        at = at[kept]
        out = np.zeros((m, m))
        out[upper] = np.where(self.negative[at], -self.mags[at], self.mags[at])
        out += out.T
        out.flat[::m + 1] = 1.0
        return out

    def is_pd(self, rows: np.ndarray, level: float) -> bool:
        """Whether the matrix hard-thresholded at level is positive definite.

        rows are sorted and hold every row that keeps an off-diagonal entry
        at level, so the matrix is PD exactly when their principal block is.
        Leading blocks of rows are factored first, at the sizes of
        _LEADING_BLOCKS: a principal submatrix of a PD matrix is PD, so the
        first block that fails decides, and only a block that passes moves on.
        """
        for size in _LEADING_BLOCKS:
            if size >= rows.size:
                break
            if not _is_pd(self.block(rows[:size], level)):
                return False
        return _is_pd(self.block(rows, level))


def _error_corr(params: CalibrationParams, N: int, rng):
    """Error sds, the coupled rows b, the thresholded correlation block on b
    and the threshold level."""
    if N < 1:
        raise DataError("N must be at least 1")
    sds = _draw_error_sds(params, N, rng)
    draws = rng.normal(params.corr_mean, params.corr_sd, size=N * (N - 1) // 2)
    np.clip(draws, -params.corr_cap, params.corr_cap, out=draws)
    tri = _Triangle(draws, N)
    mags = tri.mags
    if tri.is_pd(np.arange(N), 0.0):
        hi, kept = 0.0, np.flatnonzero(mags)
    else:
        # smallest hard-threshold level restoring positive definiteness,
        # found by bisection and biased to the PD side of the bracket.
        # The matrix at lo is never PD and the one at hi always is; when no
        # |corr| lies in (lo, mid] or in (mid, hi], the matrix at mid is the
        # one at lo or at hi, so its status is known without a factorization.
        # kept holds the positions of the entries above hi, and a midpoint
        # scans every entry until a factorization raises lo, then only the
        # positions at of the entries above lo.
        lo, hi, kept = 0.0, float(mags.max()), np.empty(0, dtype=np.intp)
        at, count = None, mags.size
        while hi - lo > 1e-6:
            mid = (lo + hi) / 2.0
            above = np.flatnonzero(mags > mid) if at is None else at[mags[at] > mid]
            if above.size == count:
                lo = mid
            elif above.size == kept.size or tri.is_pd(tri.rows_of(above), mid):
                hi, kept = mid, above
            else:
                lo, at, count = mid, above, above.size
    b = tri.rows_of(kept)
    return sds, b, tri.block(b, hi), hi


def generate_error_cov(params: CalibrationParams, N: int, rng):
    """Sparse-by-construction PD error covariance Sigma_u = D * Sigma0 * D,
    in the parts a ModelInstance keeps, without forming the N x N matrix.

    Returns (error_var, coupled, coupled_block): the error variances (the
    diagonal of Sigma_u), the sorted rows b that keep an off-diagonal
    entry, and the block Sigma_u[b, b], each entry the product
    Sigma0[i, j] * (sd_i * sd_j) of the dense matrix.
    """
    sds, b, corr_b, _ = _error_corr(params, N, rng)
    return sds * sds, b, corr_b * np.outer(sds[b], sds[b])


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
    is the spec's default) and checks that it fits N assets over T periods,
    so invalid settings fail before any market is simulated.  It also
    resolves the calibration (None is the shared default_calibration) and
    the cell's market, (calibration fingerprint, N, T), once.
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
        _exposure_value(self.c, self.N)
        if not 0 <= self.L < self.T:
            raise DataError(f"lag truncation must satisfy 0 <= L < T, got L={self.L}, T={self.T}")
        if not 0 < self.tau < 1:
            raise DataError(f"tau must lie in (0, 1), got {self.tau}")
        if self.portfolios_per_rep < 1:
            raise DataError("portfolios_per_rep must be at least 1")
        object.__setattr__(self, "_specs", estimator_specs(self.estimators, {
            "factor": dict(rule=self.factor_rule, C=self.factor_C),
            "poet": dict(rule=self.poet_rule, C=self.poet_C, K=self.poet_K)}))
        for spec in self._specs:
            spec.check_fits(self.N, self.T)
        params = self.calibration or _default_calibration()
        object.__setattr__(self, "_params", params)
        object.__setattr__(self, "_market_key", (params.fingerprint(), self.N, self.T))


@dataclass
class ReplicationRecord:
    """Per-portfolio results of one replication of one cell."""

    cell: ExperimentCell
    rep: int
    true_variance: np.ndarray            # (P,)
    per_estimator: dict                  # name -> dict of (P,) arrays


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


class _Market:
    """One simulated market and the estimates built on it.

    key is (calibration fingerprint, N, T, base_seed, rep).  Every cell of
    the market shares the simulated data; a spec's estimate is built on
    first request and reused by each later cell with an equal spec.
    """

    def __init__(self, key: tuple, instance: ModelInstance, panel: ReturnsPanel,
                 fpanel: FactorPanel):
        self.key, self.instance, self.panel, self.fpanel = key, instance, panel, fpanel
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


def _generate_markets(params: CalibrationParams, N: int, T: int, base_seed: int, reps):
    """The _Market of each (N, T, rep) market, for every rep of reps in order.

    This is the one place a market is simulated.  Each is a deterministic
    function of its own arguments: the model stream is keyed by (base_seed,
    N, T, rep) and consumed in the order loadings, error covariance, VAR(1)
    innovations, errors.  The instances and factor paths of all of reps are
    drawn up front, the factor chains in one stacked recursion; the errors
    and panels of a market are drawn when it is asked for.
    """
    key = (params.fingerprint(), N, T, int(base_seed))
    rngs = [derive_rng(base_seed, "model", N, T, rep) for rep in reps]
    instances = [build_model_instance(params, N, rng) for rng in rngs]
    factors = generate_var1_factors(params, T, rngs)
    dates = tuple(f"t{t:06d}" for t in range(T))
    assets = default_asset_labels(N)
    for rep, instance, F, rng in zip(reps, instances, factors, rngs):
        U = _correlated_errors(rng.standard_normal((T, N)), instance)
        panel = ReturnsPanel(dates, assets, F @ instance.B.T + U)
        # the frame stays suspended while the caller uses the market: drop U,
        # and keep no reference to the market or the estimates it collects
        del U
        yield _Market(key + (rep,), instance, panel, FactorPanel(dates, ("f1", "f2", "f3"), F))


def run_replication(cell: ExperimentCell, base_seed: int, rep: int,
                    market: _Market | None = None) -> ReplicationRecord:
    """One full pass of the protocol for one cell.

    Simulates the market through _generate_markets (or takes the one
    given, whose key must be this cell's market for base_seed and rep),
    builds every requested estimator, draws the cell's portfolios, and
    records Delta, xi, U(tau), RE1, RE2 and the coverage indicator per
    portfolio and estimator.
    """
    if market is None:
        [market] = _generate_markets(cell._params, cell.N, cell.T, base_seed, (rep,))
    elif market.key != cell._market_key + (int(base_seed), rep):
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
    """Summary of one (cell, estimator) pair across all replications: means
    and sds pooled from per-replication moments in replication order."""

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


def _summarize(record: ReplicationRecord) -> dict:
    """Estimator name -> (moments, covered count, clamped count) of record;
    moments is len(_CELL_STATS) x 3: the count, mean (0 if none) and sum of squared
    deviations of each statistic's finite values (only RE1 can be NaN, where U is 0)."""
    true_risk = np.sqrt(record.true_variance)
    # estimators x statistics x portfolios, reduced along the portfolios
    X = np.array([[true_risk if key is None else d[key] for key in _CELL_STATS.values()]
                  for d in record.per_estimator.values()])
    finite = np.isfinite(X)
    n = finite.sum(axis=2)
    mean = np.where(finite, X, 0.0).sum(axis=2) / np.maximum(n, 1)
    dev = np.where(finite, X - mean[..., None], 0.0)
    moments = np.stack([n, mean, (dev * dev).sum(axis=2)], axis=2)
    return {name: (m, int(d["covered"].sum()), int(d["clamped"].sum()))
            for (name, d), m in zip(record.per_estimator.items(), moments)}


def _aggregate(cell: ExperimentCell, summaries: list) -> list:
    """Each estimator's CellAggregate over its replications' _summarize results
    in replication order: mean = sum(n m) / sum(n), NaN where n = 0, and sd =
    sqrt(M2 / (n - 1)), NaN where n <= 1, with M2 = sum(M2) + sum(n (m - mean)^2)."""
    out = []
    n_records = len(summaries) * cell.portfolios_per_rep
    for name in cell.estimators:
        n, m, m2 = np.stack([s[name][0] for s in summaries]).transpose(2, 0, 1)
        count = n.sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = (n * m).sum(axis=0) / count
            m2 = m2.sum(axis=0) + (n * (m - mean) ** 2).sum(axis=0)
            sd = np.where(count > 1, np.sqrt(m2 / (count - 1)), np.nan)
        stats = {f"{kind}_{x}": float(v) for kind, values in (("mean", mean), ("sd", sd))
                 for x, v in zip(_CELL_STATS, values)}
        out.append(CellAggregate(
            estimator=name, N=cell.N, T=cell.T, c=cell.c, L=cell.L, tau=cell.tau,
            replications=len(summaries), n_records=n_records,
            coverage=sum(s[name][1] for s in summaries) / n_records,
            clamped_count=sum(s[name][2] for s in summaries), **stats))
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
    its cells before the next one's errors and panels are drawn.  Each
    record is reduced to its _summarize result as soon as it is made.
    """
    market_index, reps = task
    cells = markets[market_index]
    lead = grid[cells[0]]
    out = []
    # not zipped with reps: zip's reused result tuple would keep the last
    # market and its estimates alive while the next one is drawn
    for market in _generate_markets(lead._params, lead.N, lead.T, base_seed, reps):
        rep = market.key[-1]
        out.extend((ci, rep, _summarize(run_replication(grid[ci], base_seed, rep, market)))
                   for ci in cells)
        # free this market and its estimates before the next one is drawn
        del market
    return out


def run_experiment(grid, replications: int, workers: int | None = None,
                   base_seed: int = 0) -> ExperimentReport:
    """Run every cell for the given number of replications.

    Results are deterministic in (grid, replications, base_seed) and do
    not depend on the worker count or the block size: every replication
    derives its own generators, each record is reduced to per-replication
    moments where it is made (so no per-portfolio array is held), and
    _aggregate pools them in grid order, then replication order.  Cells
    sharing (calibration, N, T) form one market, in order of first
    appearance in the grid; a task is one market and a block of consecutive
    replications of it, and simulates each of them once for all of the
    market's cells.  Each finished task logs one INFO line.
    The run does not warn: each aggregate's clamped_count counts its
    long-run variances clamped at zero, and the command line prints their
    total.  A pool forks all its workers at once, so it gets at most one
    per task.  Every task runs with numpy's BLAS on one thread, serially
    and in the pool workers alike (see portrisk.blas); the caller's BLAS
    thread count is restored on return.
    """
    grid = tuple(grid)
    if not grid:
        raise DataError("experiment grid is empty")
    if replications < 1:
        raise DataError("replications must be at least 1")
    if workers is None:
        workers = default_workers()
    if workers < 1:
        raise DataError(f"workers must be positive, got {workers}")

    by_key: dict = {}
    for ci, cell in enumerate(grid):
        by_key.setdefault(cell._market_key, []).append(ci)
    markets = tuple(tuple(cells) for cells in by_key.values())
    tasks = []
    for mi, cells in enumerate(markets):
        size = _block_size(grid[cells[0]].N, grid[cells[0]].T)
        tasks.extend((mi, range(start, min(start + size, replications)))
                     for start in range(0, replications, size))
    # replication-major, so a pool's chunks mix the markets
    tasks.sort(key=lambda task: task[1].start)

    summaries = [[None] * replications for _ in grid]

    def collect(batches):
        for done, ((mi, reps), batch) in enumerate(zip(tasks, batches), start=1):
            lead = grid[markets[mi][0]]
            log.info("market %d/%d (N=%d, T=%d): replications %d-%d finished; %d/%d tasks done",
                     mi + 1, len(markets), lead.N, lead.T, reps.start, reps.stop - 1,
                     done, len(tasks))
            for ci, rep, summary in batch:
                summaries[ci][rep] = summary

    workers = min(workers, len(tasks))
    fn = partial(_run_task, grid, markets, base_seed)
    with single_thread():
        if workers == 1:
            collect(map(fn, tasks))
        else:
            from concurrent.futures import ProcessPoolExecutor

            chunk = max(1, len(tasks) // (workers * 4))
            with ProcessPoolExecutor(max_workers=workers,
                                     initializer=pin_single_thread) as pool:
                collect(pool.map(fn, tasks, chunksize=chunk))

    aggregates = [agg for cell, cell_summaries in zip(grid, summaries)
                  for agg in _aggregate(cell, cell_summaries)]
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
