"""Portfolio construction: random exposure-constrained portfolios,
equal weights, and minimum-variance allocation under a gross-exposure
budget.

Weights always sum to one; the gross exposure c = sum_i |w_i| measures
total long plus short positions, so c = 1 is a long-only book and
c = 1.6 is the classic 130/30 strategy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .estimators import CovarianceEstimate

__all__ = [
    "Portfolio",
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


def _exposure_value(c) -> float:
    """c as a float; anything but a finite number at least 1 is a DataError."""
    value = float(c)
    if not 1.0 <= value < math.inf:
        raise DataError(f"gross exposure must be a finite number at least 1, got c={value}")
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


# Accelerated projected-gradient iterations whose signs start the
# active-set finish, and the cap on that finish's steps.  On N=300
# backtest windows the finish settles in 3-6 steps from 25 iterations.
_WARM_UP = 25
_ACTIVE_SET_STEPS = 20


def _sign_pattern(w: np.ndarray, c: float, support_cut: float) -> np.ndarray:
    """Signs of the entries of w larger than support_cut times its largest
    magnitude, and zero elsewhere.  For c = 1 every support sign is +1."""
    support = np.abs(w) > support_cut * float(np.max(np.abs(w)))
    return np.where(support, 1.0 if c == 1.0 else np.sign(w), 0.0)


def _kkt_solve(M: np.ndarray, pattern: np.ndarray, c: float):
    """Solve the equality-constrained problem on a signed support and take
    one primal-dual active-set step from its solution.

    On the support of `pattern` with signs s, min w'Mw s.t. sum w = 1 and
    s'w = c is solved through its KKT system; for c = 1 the exposure
    constraint coincides with the budget constraint on the simplex, so only
    the single equality multiplier is solved for.  Returns (w, next, mu_ok),
    or None when the support is empty or the system singular.  `next`
    drops the support entries whose weight has the wrong sign and adds the
    off-support entries whose gradient breaks the KKT condition of
    min w'Mw s.t. sum w = 1, ||w||_1 <= c, each with the sign that lowers
    the objective.  w is the certified optimum exactly when `next` equals
    `pattern` and mu_ok (the exposure multiplier is not negative).
    """
    support = pattern != 0.0
    m = int(support.sum())
    if m < 1:
        return None
    long_only = c == 1.0
    s = pattern[support]
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
    full = np.zeros(pattern.size)
    full[support] = w_s
    grad = 2.0 * (M @ full) + lam
    nxt = pattern.copy()
    nxt[support] = np.where(w_s * s < -1e-10, 0.0, s)
    off = ~support
    if long_only:
        # at zero weights the gradient must point into the simplex
        nxt[off & (grad < -gtol)] = 1.0
    else:
        add = off & (np.abs(grad) > mu + gtol)
        nxt[add] = -np.sign(grad[add])
    return full, nxt, mu >= -gtol


def _certify_kkt(M: np.ndarray, pattern: np.ndarray, c: float):
    """The optimal weights if the solution on the signed support `pattern`
    satisfies the full KKT system, else None."""
    step = _kkt_solve(M, pattern, c)
    if step is None:
        return None
    w, nxt, mu_ok = step
    return w if mu_ok and np.array_equal(nxt, pattern) else None


def _active_set_step(M: np.ndarray, pattern: np.ndarray, c: float):
    """The signed support after one active-set step, or None."""
    step = _kkt_solve(M, pattern, c)
    return None if step is None else step[1]


def _active_set(M: np.ndarray, pattern: np.ndarray, c: float):
    """Primal-dual active-set method (Hintermueller, Ito & Kunisch 2003)
    from a signed support.

    Steps the support until it stops changing and returns the _certify_kkt
    result on it; returns None when a system is singular or the support
    has not settled within _ACTIVE_SET_STEPS steps.
    """
    for _ in range(_ACTIVE_SET_STEPS):
        nxt = _active_set_step(M, pattern, c)
        if nxt is None:
            return None
        if np.array_equal(nxt, pattern):
            return _certify_kkt(M, pattern, c)
        pattern = nxt
    return None


def min_variance(estimate: CovarianceEstimate, c, opts: SolverOptions | None = None) -> Portfolio:
    """Minimize w'Sigma w subject to sum w = 1 and ||w||_1 <= c.

    The gross-exposure budget is the convex relaxation of an exact
    exposure target; whenever shorting pays, the budget binds and the
    solution has ||w||_1 = c.  If the unconstrained minimum-variance
    portfolio already fits the budget it is returned directly.  Otherwise
    the problem is split as w = p - n with p on a simplex of mass
    (c+1)/2 and n on a simplex of mass (c-1)/2 and solved by accelerated
    projected gradient (APG) with adaptive restarts:

    - After a warm-up of _WARM_UP iterations, a primal-dual active-set
      loop starts from the signs of the iterate.  It solves the KKT system
      on the signed support, drops entries of the wrong sign and adds
      entries that break the KKT condition, until the support settles.  A
      settled support that passes the KKT check is the exact optimum, and
      it is returned.
    - If the loop fails (a singular system, no settled support within
      _ACTIVE_SET_STEPS steps, or a failed check), APG goes on, and every
      100 iterations the KKT check runs on the iterate's support at three
      cut-offs; the first certified result is returned.
    - APG stops as "stalled" when the objective moved by at most opts.tol
      (relative) over two successive 100-iteration windows.  It then
      returns its last, uncertified iterate and emits a RuntimeWarning
      with the iteration count and the last relative objective change.
      Reaching opts.max_iter without stalling raises NumericalError.

    A certified result depends only on the support and its signs, so when
    the active-set finish settles on the support APG would certify later,
    it returns the same weights, bit for bit.
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

        if it == _WARM_UP:
            finished = _active_set(M, _sign_pattern(p - n, c, 1e-6), c)
            if finished is not None:
                return Portfolio(finished)
        if it % 100 == 0:
            for cut in (1e-6, 1e-4, 1e-8):
                refined = _certify_kkt(M, _sign_pattern(p - n, c, cut), c)
                if refined is not None:
                    return Portfolio(refined)
            change = f_window - fx
            if change <= opts.tol * max(fx, 1e-300):
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
    warnings.warn(
        f"minimum-variance solver stalled after {it} iterations without a KKT "
        f"certificate (relative objective change {change / max(fx, 1e-300):.3e} "
        f"over the last 100); returning the uncertified iterate",
        RuntimeWarning,
        stacklevel=2,
    )
    return Portfolio(p - n)
