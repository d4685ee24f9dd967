"""Covariance estimators for large return panels.

Three estimators are provided:

* the plain sample covariance ``S = T^-1 sum_t r_t r_t'`` (optionally on
  demeaned rows),
* a factor-model estimator for observed factors: fit loadings by least
  squares, keep the systematic part ``B cov(f) B'`` exactly, and apply an
  adaptive entrywise threshold to the off-diagonals of the residual
  covariance,
* a principal-orthogonal-complement (POET) estimator for latent factors:
  keep the leading K eigencomponents of S and threshold the off-diagonals
  of what remains.

All estimators demean by default; the flag exists so exact-theory tests
can work with raw second moments.  Thresholding never touches diagonals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DataError, NumericalError
from .panels import ReturnsPanel, FactorPanel

__all__ = [
    "ThresholdRule",
    "CovarianceEstimate",
    "FactorModelFit",
    "sample_covariance",
    "apply_threshold",
    "ols_factor_fit",
    "factor_covariance",
    "pca_factor_fit",
    "poet_covariance",
    "select_num_factors",
    "portfolio_variance",
    "ensure_positive_definite",
    "ESTIMATOR_NAMES",
]

ESTIMATOR_NAMES = ("sample", "factor", "poet")


@dataclass(frozen=True)
class ThresholdRule:
    """Entrywise thresholding rule: hard, soft, or scad.

    The scad rule is the standard three-piece variant with parameter
    ``scad_a`` (default 3.7): soft up to 2*tau, a linear blend up to
    scad_a*tau, identity beyond.  Every rule satisfies s(z) = 0 for
    |z| <= tau and |s(z) - z| <= tau.
    """

    kind: str = "soft"
    scad_a: float = 3.7

    def __post_init__(self):
        if self.kind not in ("hard", "soft", "scad"):
            raise DataError(f"unknown threshold rule {self.kind!r}")
        if self.kind == "scad" and not self.scad_a > 2.0:
            raise DataError("scad_a must exceed 2")


def _threshold_values(z: np.ndarray, tau, rule: ThresholdRule) -> np.ndarray:
    absz = np.abs(z)
    if rule.kind == "hard":
        return np.where(absz <= tau, 0.0, z)
    soft = np.sign(z) * np.maximum(absz - tau, 0.0)
    if rule.kind == "soft":
        return soft
    a = rule.scad_a
    blend = ((a - 1.0) * z - np.sign(z) * a * tau) / (a - 2.0)
    return np.where(absz <= 2.0 * tau, soft, np.where(absz <= a * tau, blend, z))


def apply_threshold(value: float, tau: float, rule: ThresholdRule) -> float:
    """Apply the rule to one entry.  Requires tau >= 0."""
    if tau < 0:
        raise DataError("threshold tau must be nonnegative")
    return float(_threshold_values(np.float64(value), float(tau), rule))


def _threshold_offdiag(matrix: np.ndarray, tau: np.ndarray, rule: ThresholdRule) -> np.ndarray:
    """Threshold every off-diagonal entry, keep the diagonal bit-exact."""
    out = _threshold_values(matrix, tau, rule)
    np.fill_diagonal(out, np.diag(matrix))
    return out


@dataclass
class CovarianceEstimate:
    """An N x N covariance estimate with its provenance.

    tuning records the threshold constant C, the rule kind, and the factor
    count K where applicable.  min_eigenvalue is computed lazily and
    cached; construction symmetrizes the matrix after checking that any
    asymmetry is at the floating-point noise level.
    """

    matrix: np.ndarray
    kind: str
    tuning: dict = field(default_factory=dict)
    _eig_range: tuple | None = field(default=None, repr=False, compare=False)
    _rebuild: Callable | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ESTIMATOR_NAMES:
            raise DataError(f"estimator kind must be one of {ESTIMATOR_NAMES}, got {self.kind!r}")
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DataError(f"covariance matrix must be square, got shape {m.shape}")
        scale = np.max(np.abs(m)) if m.size else 0.0
        if scale > 0 and np.max(np.abs(m - m.T)) > 1e-10 * scale:
            raise NumericalError("matrix is not symmetric within tolerance")
        m = (m + m.T) / 2.0
        if np.any(np.diag(m) <= 0):
            i = int(np.argmin(np.diag(m)))
            raise NumericalError(f"non-positive variance on the diagonal (index {i})")
        m.setflags(write=False)
        self.matrix = m

    @property
    def N(self) -> int:
        return self.matrix.shape[0]

    def _eigs(self) -> tuple:
        if self._eig_range is None:
            vals = np.linalg.eigvalsh(self.matrix)
            self._eig_range = (float(vals[0]), float(vals[-1]))
        return self._eig_range

    @property
    def min_eigenvalue(self) -> float:
        return self._eigs()[0]

    @property
    def max_eigenvalue(self) -> float:
        return self._eigs()[1]


@dataclass
class FactorModelFit:
    """Loadings, factor series, and residuals of a fitted factor model.

    For an observed-factor fit, factors are the demeaned observations and
    factor_cov is their sample covariance (dividing by T).  For a PCA fit
    the factors are normalized so that (1/T) F'F = I_K and factor_cov is
    the identity.
    """

    loadings: np.ndarray   # N x K
    factors: np.ndarray    # T x K
    residuals: np.ndarray  # T x N
    factor_cov: np.ndarray  # K x K
    source: str            # "observed" or "pca"

    def __post_init__(self):
        if self.source not in ("observed", "pca"):
            raise DataError(f"fit source must be 'observed' or 'pca', got {self.source!r}")
        for name in ("loadings", "factors", "residuals", "factor_cov"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            setattr(self, name, arr)

    @property
    def N(self) -> int:
        return self.loadings.shape[0]

    @property
    def K(self) -> int:
        return self.loadings.shape[1]

    @property
    def T(self) -> int:
        return self.factors.shape[0]


def sample_covariance(panel: ReturnsPanel, demean_flag: bool = True) -> CovarianceEstimate:
    """S = T^-1 X'X on the panel's (optionally demeaned) rows."""
    X = panel.demeaned_values if demean_flag else panel.values
    S = X.T @ X / panel.T
    return CovarianceEstimate(S, "sample", {"demeaned": demean_flag})


def ols_factor_fit(returns: ReturnsPanel, factors: FactorPanel) -> FactorModelFit:
    """Regress every asset on the observed factors.

    Both sides are demeaned, which absorbs the intercept; the stored
    factors and residuals refer to the demeaned data.  Requires aligned
    panels (identical dates) and a nonsingular factor Gram matrix.
    """
    if returns.dates != factors.dates:
        raise DataError("panels are not aligned; run align_panels first")
    T, K = factors.T, factors.K
    if T <= K:
        raise DataError(f"need more observations than factors (T={T}, K={K})")
    Xr = returns.demeaned_values
    Xf = factors.values - factors.values.mean(axis=0)
    gram = Xf.T @ Xf
    gvals = np.linalg.eigvalsh(gram)
    if gvals[0] <= 1e-13 * max(gvals[-1], 1e-300):
        raise NumericalError("singular factor Gram matrix")
    coef = np.linalg.solve(gram, Xf.T @ Xr)  # K x N
    residuals = Xr - Xf @ coef
    return FactorModelFit(
        loadings=coef.T,
        factors=Xf,
        residuals=residuals,
        factor_cov=gram / T,
        source="observed",
    )


def factor_covariance(fit: FactorModelFit, rule: ThresholdRule, C: float) -> CovarianceEstimate:
    """Systematic part plus adaptively thresholded residual covariance.

    The residual covariance S_u = T^-1 sum_t u_t u_t' keeps its diagonal
    exactly; off-diagonal entries pass through the rule at the adaptive
    cut-off C * sqrt(S_u,ii * S_u,jj) * sqrt(log N / T), which equals
    thresholding the residual correlation matrix at C * sqrt(log N / T).
    """
    if fit.source != "observed":
        raise DataError("factor_covariance needs an observed-factor fit")
    if C < 0:
        raise DataError("threshold constant C must be nonnegative")
    T, N = fit.residuals.shape
    S_u = fit.residuals.T @ fit.residuals / T
    d = np.diag(S_u)
    if np.any(d <= 0):
        i = int(np.argmin(d))
        raise NumericalError(f"non-positive residual variance for asset index {i}")
    tau = C * np.sqrt(np.outer(d, d)) * math.sqrt(math.log(N) / T)
    Sigma_u = _threshold_offdiag(S_u, tau, rule)
    M = fit.loadings @ fit.factor_cov @ fit.loadings.T + Sigma_u
    est = CovarianceEstimate(M, "factor", {"C": C, "rule": rule.kind, "K": fit.K})
    est._rebuild = lambda C2: factor_covariance(fit, rule, C2)
    return est


def _fix_signs(loadings: np.ndarray, factors: np.ndarray) -> None:
    """Make each loading column's largest-magnitude entry positive.

    Ties go to the lowest index (np.argmax's convention), so the output is
    reproducible across linear-algebra backends up to eigenvector noise.
    """
    for j in range(loadings.shape[1]):
        col = loadings[:, j]
        idx = int(np.argmax(np.abs(col)))
        if col[idx] < 0:
            loadings[:, j] = -col
            factors[:, j] *= -1.0


def _pca_components(X: np.ndarray, K: int):
    """Top-K principal components of the second-moment matrix X'X / T.

    Returns (loadings, factors) normalized so that (1/T) F'F = I_K and
    loadings'loadings = diag of the leading eigenvalues.  Works on the
    smaller of the N x N and T x T Gram matrices.
    """
    T, N = X.shape
    if N <= T:
        evals, evecs = np.linalg.eigh(X.T @ X)
        d = evals[::-1][:K]
        xi = evecs[:, ::-1][:, :K]
        tol = max(float(d[0]), 0.0) * 1e-14
        safe = np.where(d > tol, d, np.inf)
        loadings = xi * np.sqrt(np.clip(d, 0.0, None) / T)
        factors = X @ (xi * np.sqrt(T / safe))
    else:
        evals, evecs = np.linalg.eigh(X @ X.T)
        v = evecs[:, ::-1][:, :K]
        factors = math.sqrt(T) * v
        loadings = X.T @ v / math.sqrt(T)
    _fix_signs(loadings, factors)
    return loadings, factors


def pca_factor_fit(returns: ReturnsPanel, K: int, demean: bool = True) -> FactorModelFit:
    """Extract K latent factors by principal components.

    Identification: factors satisfy (1/T) F'F = I_K and the loading Gram
    matrix is diagonal; factor_cov is the identity.  The panel is demeaned
    first unless demean=False.
    """
    T, N = returns.T, returns.N
    if not 1 <= K <= min(N, T):
        raise DataError(f"K must be in [1, {min(N, T)}], got {K}")
    X = returns.demeaned_values if demean else returns.values
    loadings, factors = _pca_components(X, K)
    residuals = X - factors @ loadings.T
    return FactorModelFit(
        loadings=loadings,
        factors=factors,
        residuals=residuals,
        factor_cov=np.eye(K),
        source="pca",
    )


def poet_covariance(
    returns: ReturnsPanel,
    K: int,
    rule: ThresholdRule,
    C: float,
    demean: bool = True,
    fit: FactorModelFit | None = None,
) -> CovarianceEstimate:
    """Principal orthogonal complements with thresholding.

    Keep the K leading eigencomponents of the sample covariance; the
    orthogonal complement keeps its diagonal and has off-diagonals passed
    through the rule at C * sqrt(Omega_ii * Omega_jj) * (sqrt(log N / T)
    + 1/sqrt(N)).  With C=0 the estimator reproduces S exactly.

    Pass fit to reuse a PCA decomposition already extracted from the same
    panel with the same K and demeaning; anything else silently corrupts
    the estimate, so the shapes and source are checked.
    """
    T, N = returns.T, returns.N
    if not 1 <= K < min(N, T):
        raise DataError(f"K must be in [1, {min(N, T) - 1}], got {K}")
    if C < 0:
        raise DataError("threshold constant C must be nonnegative")
    if fit is None:
        fit = pca_factor_fit(returns, K, demean=demean)
    elif fit.source != "pca" or fit.K != K or fit.N != N or fit.T != T:
        raise DataError(
            "supplied fit does not match the panel: need a PCA fit with "
            f"K={K}, N={N}, T={T}"
        )
    S = sample_covariance(returns, demean).matrix
    lowrank = fit.loadings @ fit.loadings.T
    omega = S - lowrank
    d = np.clip(np.diag(omega), 0.0, None)
    tau = C * np.sqrt(np.outer(d, d)) * (math.sqrt(math.log(N) / T) + 1.0 / math.sqrt(N))
    omega_t = _threshold_offdiag(omega, tau, rule)
    est = CovarianceEstimate(lowrank + omega_t, "poet", {"C": C, "rule": rule.kind, "K": K})
    est._rebuild = lambda C2: poet_covariance(returns, K, rule, C2, demean=demean, fit=fit)
    return est


def select_num_factors(returns: ReturnsPanel, k_max: int, demean: bool = True) -> int:
    """Pick the factor count by the information criterion

        IC(k) = log V(k) + k * ((N+T)/(N*T)) * log(N*T/(N+T)),

    where V(k) is the mean squared PCA residual at k factors.  Returns the
    minimizing k in 1..k_max (smallest k on ties).
    """
    T, N = returns.T, returns.N
    if not 1 <= k_max < min(N, T):
        raise DataError(f"k_max must be in [1, {min(N, T) - 1}], got {k_max}")
    X = returns.demeaned_values if demean else returns.values
    gram = X.T @ X if N <= T else X @ X.T
    evals = np.linalg.eigvalsh(gram)[::-1]
    evals = np.clip(evals, 0.0, None)
    total = evals.sum()
    ks = np.arange(1, k_max + 1)
    V = (total - np.cumsum(evals[:k_max])) / (N * T)
    # a residual that is zero up to rounding would send log V to -inf and
    # let eigenvalue noise pick the winner; flooring V keeps the argmin at
    # the smallest k that already explains everything
    V = np.maximum(V, total / (N * T) * 1e-14)
    penalty = ks * ((N + T) / (N * T)) * math.log(N * T / (N + T))
    with np.errstate(divide="ignore"):
        ic = np.log(V) + penalty
    return int(ks[np.argmin(ic)])


def portfolio_variance(estimate: CovarianceEstimate, w) -> float:
    """w' Sigma w for a portfolio or a plain weight vector."""
    weights = np.asarray(getattr(w, "weights", w), dtype=float)
    if weights.shape != (estimate.N,):
        raise DataError(
            f"weight vector has shape {weights.shape}, expected ({estimate.N},)"
        )
    return float(weights @ estimate.matrix @ weights)


def ensure_positive_definite(estimate: CovarianceEstimate) -> CovarianceEstimate:
    """Re-threshold with doubled C until the estimate is positive definite.

    Returns the input unchanged when its smallest eigenvalue already
    exceeds 1e-8.  Otherwise it keeps the estimate's own rule (scad_a
    included) and rebuilds at 2 * C0, 4 * C0, ... (at most 20 rebuilds;
    C0 itself is never tried), where C0 is the estimate's own C (or 0.05
    when that C is zero), and returns the first positive-definite
    estimate, with the C actually used recorded in tuning.
    """
    if estimate.kind not in ("factor", "poet"):
        raise DataError("only factor and poet estimates can be re-thresholded")
    if estimate.min_eigenvalue > 1e-8:
        return estimate
    if estimate._rebuild is None:
        raise NumericalError("estimate carries no re-threshold recipe")
    recorded = float(estimate.tuning.get("C", 0.0))
    C = recorded if recorded > 0 else 0.05
    for _ in range(20):
        C *= 2.0
        candidate = estimate._rebuild(C)
        if candidate.min_eigenvalue > 1e-8:
            return candidate
    raise NumericalError(f"still not positive definite after 20 doublings (C={C:g})")
