"""Portfolio construction: random exposure-constrained portfolios,
equal weights, and minimum-variance allocation under a gross-exposure
budget.

Weights always sum to one; the gross exposure c = sum_i |w_i| measures
total long plus short positions, so c = 1 is a long-only book and
c = 1.6 is the classic 130/30 strategy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericalError
from .estimators import CovarianceEstimate

__all__ = [
    "DEFAULT_PERIODS_PER_YEAR",
    "Portfolio",
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
    gross_exposure: float = field(init=False)

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


def _exposure_value(c, N: int | None = None) -> float:
    """c as a float; anything but a finite number at least 1 is a DataError,
    and so is c > 1 for a book drawn on N = 1 asset, which has no short side."""
    value = float(c)
    if not 1.0 <= value < math.inf:
        raise DataError(f"gross exposure must be a finite number at least 1, got c={value}")
    if N == 1 and value > 1.0:
        raise DataError(f"one asset cannot hold a short side, so N=1 needs c=1, got c={value}")
    return value


# daily data: the default of every periods_per_year setting
DEFAULT_PERIODS_PER_YEAR = 252.0


def _check_periods_per_year(periods_per_year: float) -> None:
    """Reject a periods_per_year that is not a finite positive number."""
    if not (math.isfinite(periods_per_year) and periods_per_year > 0):
        raise DataError(f"periods_per_year must be a finite positive number, "
                        f"got {periods_per_year}")


def _conditioned_long_count(N: int, p: float, u: float) -> int:
    """The k in 1..N-1 at which the cdf of Binomial(N, p) conditioned on
    0 < k < N first exceeds u in [0, 1).  The weights C(N, k) p^k (1-p)^(N-k)
    are formed in log space and scaled by their largest before they are
    summed, so at large N neither C(N, k) overflows nor a weight underflows."""
    k = np.arange(1, N)
    log_w = np.cumsum(np.log((N - k + 1) / k)) + k * math.log(p) + (N - k) * math.log1p(-p)
    cdf = np.cumsum(np.exp(log_w - log_w.max()))
    return 1 + min(int(np.searchsorted(cdf, u * cdf[-1], side="right")), N - 2)


def sample_random_weights(N: int, c, rng: np.random.Generator, P: int = 1) -> np.ndarray:
    """Draw P representative weight vectors with sum 1 and gross exposure c.

    Returns an N x P array, one portfolio per column.  The number of long
    positions is binomial with success probability (c+1)/(2c); long
    weights are normalized standard exponentials scaled to sum (c+1)/2,
    short weights likewise scaled to -(c-1)/2, and the combined vector is
    randomly permuted so every index is equally likely to be long.  When
    c > 1 a count leaving one side empty is redrawn; after 100 such draws
    the count comes from the binomial conditioned on 0 < count < N, by
    inversion at one rng.random(), so no draw fails by chance.  Either
    way the count follows that conditioned binomial.

    Each column consumes the generator in a fixed order (count, long
    exponentials, short exponentials, permutation), so column j equals the
    j-th of P successive sample_random_portfolio calls on the same stream.
    A column is built in one reused N-vector: the exponentials are drawn
    into it, each side is scaled in place, and it is shuffled in place
    before it is copied into W.  Shuffling makes the swaps that
    rng.permutation(N) makes on arange(N), so the column equals the
    gather raw[rng.permutation(N)] value for value.
    """
    if N < 1:
        raise DataError("N must be at least 1")
    if P < 1:
        raise DataError("P must be at least 1")
    c = _exposure_value(c, N)
    p_long = (c + 1.0) / (2.0 * c)
    W = np.empty((N, P))
    raw = np.empty(N)
    for j in range(P):
        for _ in range(100):
            k = int(rng.binomial(N, p_long))
            if c == 1.0 or 0 < k < N:
                break
        else:
            k = _conditioned_long_count(N, p_long, rng.random())
        # the long and the short exponentials are one contiguous run of
        # the stream, so a single draw splits into both sides
        rng.standard_exponential(out=raw)
        # each side becomes scale * side / side.sum(), in place and in that
        # order, so the same bits
        if k:
            side = raw[:k]
            total = side.sum()
            side *= (c + 1.0) / 2.0
            side /= total
        if N - k:
            side = raw[k:]
            total = side.sum()
            side *= -(c - 1.0) / 2.0
            side /= total
        rng.shuffle(raw)
        W[:, j] = raw
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


def _project_simplex(v: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x = total}."""
    if total <= 0.0:
        return np.zeros_like(v)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - total
    ks = np.arange(1, v.size + 1)
    rho = np.nonzero(u * ks > css)[0][-1]
    return np.maximum(v - css[rho] / (rho + 1), 0.0)


# the cap on the steps of one active-set run; on N=300 backtest windows
# the run from the projected GMV signs settles in a few steps
_ACTIVE_SET_STEPS = 1000


def _sign_pattern(w: np.ndarray, c: float) -> np.ndarray:
    """Signs of the entries of w larger than 1e-6 times its largest
    magnitude, and zero elsewhere.  For c = 1 every support sign is +1."""
    support = np.abs(w) > 1e-6 * float(np.max(np.abs(w)))
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


def _active_set(M: np.ndarray, pattern: np.ndarray, c: float):
    """Primal-dual active-set method (Hintermueller, Ito & Kunisch 2003)
    from a signed support, with the backup rule of block principal
    pivoting (Judice & Pires 1994; Kim & Park 2011).

    Each step solves the KKT system of the support and proposes the
    support `_kkt_solve` returns.  The whole proposal is taken while the
    number of indices it changes reaches a new low, and on up to 3 steps
    after the last new low; after those, a step changes only the largest
    index the proposal would change (Murty's single pivot) until a new low
    comes.  The settled step is the full KKT check of that support, so its
    weights, the exact optimum, are returned without solving again if the
    exposure multiplier is admissible.

    At c = 1 the steps are block principal pivoting on LCP(2M, -2 * 1),
    whose matrix is a P-matrix, with w = x / sum(x), so the run ends after
    finitely many steps.  For c > 1 that is measured, not proven: on 30,000
    random problems (N from 3 to 40, c up to 4, Wishart matrices with N+1
    to N+4 degrees of freedom among them) every run settled within 20
    solves.  Returns None when a system is singular, the multiplier is
    negative or the support has not settled within _ACTIVE_SET_STEPS steps.
    """
    fewest, spare = pattern.size + 1, 3
    for _ in range(_ACTIVE_SET_STEPS):
        step = _kkt_solve(M, pattern, c)
        if step is None:
            return None
        w, proposal, mu_ok = step
        changed = np.flatnonzero(proposal != pattern)
        if changed.size == 0:
            return w if mu_ok else None
        if changed.size < fewest:
            fewest, spare = changed.size, 3
        elif spare:
            spare -= 1
        else:
            changed = changed[-1:]  # Murty's single pivot
        pattern = pattern.copy()
        pattern[changed] = proposal[changed]
    return None


def min_variance(estimate: CovarianceEstimate, c) -> Portfolio:
    """Minimize w'Sigma w subject to sum w = 1 and ||w||_1 <= c.

    The gross-exposure budget is the convex relaxation of an exact
    exposure target; whenever shorting pays, the budget binds and the
    solution has ||w||_1 = c.  If the unconstrained minimum-variance
    portfolio already fits the budget it is returned directly.  Otherwise
    the problem is split as w = p - n with p on a simplex of mass
    (c+1)/2 and n on a simplex of mass (c-1)/2, and the active-set method
    of `_active_set` starts from the signs of the unconstrained weights
    projected onto the two simplices.  It solves the KKT system on the
    signed support, drops entries of the wrong sign and adds entries that
    break the KKT condition until the support settles; a settled support
    is the exact optimum.  It ends after finitely many steps at c = 1;
    for c > 1 it settled on every problem measured.  A singular system,
    a negative exposure multiplier at the settled support, or no settled
    support within _ACTIVE_SET_STEPS steps raises NumericalError, which
    the empirical study records as a skipped case.

    A certified result depends only on the support and its signs, so it
    is the same, bit for bit, from whichever start the method settled.

    An estimate whose smallest eigenvalue is not above 1e-10 raises
    NumericalError: the test is one Cholesky factorization of
    M - 1e-10 * I, and no eigenvalues are computed.  Its verdict is cached
    on the estimate, as are the unconstrained weights, so the exposures of
    one estimate share them, and an estimate that ensure_positive_definite
    kept at 1e-8 is not factored again.
    """
    c = _exposure_value(c)
    if not estimate._min_eigenvalue_above(1e-10):
        raise NumericalError("covariance is not positive definite (Cholesky factorization "
                             "failed); re-threshold before optimizing")
    gmv = estimate._gmv_weights()
    if np.abs(gmv).sum() <= c * (1.0 + 1e-12) + 1e-12:
        return Portfolio(gmv)

    start = _project_simplex(gmv, (c + 1.0) / 2.0) - _project_simplex(-gmv, (c - 1.0) / 2.0)
    finished = _active_set(estimate.matrix, _sign_pattern(start, c), c)
    if finished is None:
        raise NumericalError(
            f"minimum-variance active-set method did not settle at c={c} (a singular "
            f"KKT system, a negative exposure multiplier, or {_ACTIVE_SET_STEPS} steps)"
        )
    return Portfolio(finished)
