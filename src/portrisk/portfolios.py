"""Portfolio construction: random exposure-constrained portfolios,
equal weights, and minimum-variance allocation under a gross-exposure
budget.

Weights always sum to one; the gross exposure c = sum_i |w_i| measures
total long plus short positions, so c = 1 is a long-only book and
c = 1.6 is the classic 130/30 strategy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .estimators import CovarianceEstimate

__all__ = [
    "Portfolio",
    "ExposureSpec",
    "SolverOptions",
    "sample_random_portfolio",
    "sample_random_weights",
    "equal_weight",
    "min_variance",
    "gross_exposure",
]


@dataclass(frozen=True)
class Portfolio:
    """An N-vector of portfolio weights summing to one."""

    weights: np.ndarray
    gross_exposure: float = 0.0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.size < 1:
            raise DataError("a portfolio needs at least one weight")
        if not np.all(np.isfinite(w)):
            raise DataError("portfolio weights must be finite")
        total = float(w.sum())
        if abs(total - 1.0) > 1e-9:
            raise DataError(f"portfolio weights sum to {total!r}, not 1")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "gross_exposure", float(np.abs(w).sum()))

    @property
    def N(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class ExposureSpec:
    """A target gross exposure; c < 1 is infeasible when weights sum to 1."""

    c: float

    def __post_init__(self):
        if not self.c >= 1.0:
            raise DataError(f"gross exposure must be at least 1, got {self.c}")


def _exposure_value(c) -> float:
    value = float(getattr(c, "c", c))
    if not value >= 1.0:
        raise DataError(f"gross exposure must be at least 1, got {value}")
    return value


def sample_random_weights(N: int, c, rng: np.random.Generator, P: int = 1) -> np.ndarray:
    """Draw P representative weight vectors with sum 1 and gross exposure c.

    Returns an N x P array, one portfolio per column.  The number of long
    positions is binomial with success probability (c+1)/(2c); long
    weights are normalized standard exponentials scaled to sum (c+1)/2,
    short weights likewise scaled to -(c-1)/2, and the combined vector is
    randomly permuted so every index is equally likely to be long.  Draws
    leaving one side empty when c > 1 are redrawn, at most 100 times.

    Each column consumes the generator in a fixed order (count, long
    exponentials, short exponentials, permutation), so column j equals the
    j-th of P successive sample_random_portfolio calls on the same stream.
    """
    if N < 1:
        raise DataError("N must be at least 1")
    if P < 1:
        raise DataError("P must be at least 1")
    c = _exposure_value(c)
    p_long = (c + 1.0) / (2.0 * c)
    W = np.empty((N, P))
    for j in range(P):
        k = -1
        for _ in range(100):
            k = int(rng.binomial(N, p_long))
            if c == 1.0 or 0 < k < N:
                break
        else:
            raise DataError(
                f"could not draw a portfolio with both sides populated (N={N}, c={c})"
            )
        # the long and the short exponentials are one contiguous run of
        # the stream, so a single draw splits into both sides
        raw = rng.standard_exponential(N)
        long_raw, short_raw = raw[:k], raw[k:]
        if k:
            raw[:k] = (c + 1.0) / 2.0 * long_raw / long_raw.sum()
        if N - k:
            raw[k:] = -(c - 1.0) / 2.0 * short_raw / short_raw.sum()
        W[:, j] = raw[rng.permutation(N)]
    if not np.all(np.isfinite(W)):
        raise DataError("portfolio weights must be finite")
    totals = W.sum(axis=0)
    off = np.abs(totals - 1.0) > 1e-9
    if np.any(off):
        raise DataError(f"portfolio weights sum to {float(totals[off][0])!r}, not 1")
    return W


def sample_random_portfolio(N: int, c, rng: np.random.Generator) -> Portfolio:
    """One draw of sample_random_weights, as a Portfolio."""
    return Portfolio(sample_random_weights(N, c, rng)[:, 0])


def equal_weight(N: int) -> Portfolio:
    if N < 1:
        raise DataError("N must be at least 1")
    return Portfolio(np.full(N, 1.0 / N))


def gross_exposure(w: Portfolio) -> float:
    """Sum of absolute weights."""
    return float(np.abs(np.asarray(getattr(w, "weights", w), dtype=float)).sum())


@dataclass(frozen=True)
class SolverOptions:
    """Tuning for the minimum-variance solver.

    tol is the relative objective tolerance; max_iter caps the number of
    accelerated projected-gradient iterations.
    """

    tol: float = 1e-8
    max_iter: int = 50_000


def _project_simplex(v: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x = total}."""
    if total <= 0.0:
        return np.zeros_like(v)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - total
    ks = np.arange(1, v.size + 1)
    rho = np.nonzero(u * ks > css)[0][-1]
    return np.maximum(v - css[rho] / (rho + 1), 0.0)


def _certify_kkt(M: np.ndarray, w: np.ndarray, c: float, support_cut: float):
    """Solve the equality-constrained problem on the detected support and
    check the full KKT system for min w'Mw s.t. sum w = 1, ||w||_1 <= c.

    Returns the certified optimal weights, or None when the candidate
    support does not produce a consistent multiplier pair.  For c = 1 the
    exposure constraint coincides with the budget constraint on the
    simplex, so only the single equality multiplier is solved for.
    """
    scale = float(np.max(np.abs(w)))
    support = np.abs(w) > support_cut * scale
    m = int(support.sum())
    if m < 1:
        return None
    long_only = c == 1.0
    s = np.ones(m) if long_only else np.sign(w[support])
    n_con = 1 if long_only else 2
    sub = M[np.ix_(support, support)]
    kkt = np.zeros((m + n_con, m + n_con))
    kkt[:m, :m] = 2.0 * sub
    kkt[:m, m] = 1.0
    kkt[m, :m] = 1.0
    rhs = np.zeros(m + n_con)
    rhs[m] = 1.0
    if not long_only:
        kkt[:m, m + 1] = s
        kkt[m + 1, :m] = s
        rhs[m + 1] = c
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        return None
    w_s, lam = sol[:m], sol[m]
    mu = 0.0 if long_only else sol[m + 1]
    gtol = 1e-8 * (1.0 + abs(lam) + abs(mu))
    if mu < -gtol or np.any(w_s * s < -1e-10):
        return None
    full = np.zeros_like(w)
    full[support] = w_s
    grad = 2.0 * (M @ full) + lam
    off = ~support
    if long_only:
        # at zero weights the gradient must point into the simplex
        if np.any(grad[off] < -gtol):
            return None
    elif np.any(np.abs(grad[off]) > mu + gtol):
        return None
    return full


def min_variance(estimate: CovarianceEstimate, c, opts: SolverOptions | None = None) -> Portfolio:
    """Minimize w'Sigma w subject to sum w = 1 and ||w||_1 <= c.

    The gross-exposure budget is the convex relaxation of an exact
    exposure target; whenever shorting pays, the budget binds and the
    solution has ||w||_1 = c.  If the unconstrained minimum-variance
    portfolio already fits the budget it is returned directly.  Otherwise
    the problem is split as w = p - n with p on a simplex of mass
    (c+1)/2 and n on a simplex of mass (c-1)/2 and solved by accelerated
    projected gradient with adaptive restarts; an active-set refinement
    runs periodically and returns early with a KKT-certified exact
    solution when the support has settled.
    """
    opts = opts or SolverOptions()
    c = _exposure_value(c)
    M = estimate.matrix
    N = estimate.N
    if estimate.min_eigenvalue <= 1e-10:
        raise NumericalError(
            f"covariance is not positive definite (min eigenvalue "
            f"{estimate.min_eigenvalue:.3e}); re-threshold before optimizing"
        )
    ones = np.ones(N)
    gmv = np.linalg.solve(M, ones)
    gmv /= gmv.sum()
    if np.abs(gmv).sum() <= c * (1.0 + 1e-12) + 1e-12:
        return Portfolio(gmv)

    mass_p = (c + 1.0) / 2.0
    mass_n = (c - 1.0) / 2.0
    step = 1.0 / (4.0 * estimate.max_eigenvalue)

    p = _project_simplex(np.full(N, 1.0 / N), mass_p)
    n = _project_simplex(np.zeros(N), mass_n)
    yp, yn = p.copy(), n.copy()
    t = 1.0

    def objective(dp, dn):
        d = dp - dn
        return float(d @ M @ d)

    fx = objective(p, n)
    f_window = fx
    stalled = False
    for it in range(1, opts.max_iter + 1):
        g = 2.0 * (M @ (yp - yn))
        p_new = _project_simplex(yp - step * g, mass_p)
        n_new = _project_simplex(yn + step * g, mass_n)
        f_new = objective(p_new, n_new)
        if f_new > fx:
            # momentum overshoot: restart from the last accepted point
            g = 2.0 * (M @ (p - n))
            p_new = _project_simplex(p - step * g, mass_p)
            n_new = _project_simplex(n + step * g, mass_n)
            f_new = objective(p_new, n_new)
            t = 1.0
        t_new = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        beta = (t - 1.0) / t_new
        yp = p_new + beta * (p_new - p)
        yn = n_new + beta * (n_new - n)
        p, n, fx, t = p_new, n_new, f_new, t_new

        if it % 100 == 0:
            for cut in (1e-6, 1e-4, 1e-8):
                refined = _certify_kkt(M, p - n, c, cut)
                if refined is not None:
                    return Portfolio(refined)
            if f_window - fx <= opts.tol * max(fx, 1e-300):
                if stalled:
                    break
                stalled = True
            else:
                stalled = False
            f_window = fx
    else:
        if not stalled:
            raise NumericalError(
                f"minimum-variance solver did not converge in {opts.max_iter} iterations"
            )
    return Portfolio(p - n)
