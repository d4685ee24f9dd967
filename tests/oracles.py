"""Independent reference implementations used to cross-check the package.

Everything here is written from the defining formulas, deliberately in
the plainest possible style (scalar loops, closed forms, exhaustive
enumeration) and without importing anything from portrisk, so agreement
between the two codebases is meaningful evidence rather than a tautology.
scipy is a test-only dependency and supplies the high-precision special
functions.

There are two exceptions.  min_variance_apg is a verbatim copy of the
package's accelerated projected-gradient solver (with its simplex
projection and KKT check) from before the active-set finish, kept as the
reference the current solver must reproduce; it uses the package's
Portfolio and input validation, and keeps the package's former defaults
of a 1e-8 relative objective tolerance and 50,000 iterations.
ensure_positive_definite_eigvalsh is the package's PD repair from before
it let a failed Cholesky factorization reject a matrix: every verdict
comes from the smallest eigenvalue.  It re-thresholds through the
estimate's own recipe.
The dense error-covariance helpers replay the package's model stream:
raw_error_corr draws the error sds through the package's sampler and then
the correlations, and dense_error_cov thresholds the N x N correlation
matrix by a plain bisection that factors the whole matrix at every
midpoint.  dense_model_instance is the package's market assembly from
before a model instance kept its error covariance in parts: it draws
through the package's loading generator and dense_error_cov and forms the
N x N true covariance.
"""

import itertools
import math

import numpy as np
from scipy import special, stats

from portrisk.errors import DataError, NumericalError
from portrisk.estimators import CovarianceEstimate
from portrisk.portfolios import Portfolio, _exposure_value
from portrisk.simulation import _draw_error_sds, generate_loadings, solve_lyapunov


def quantile_oracle(p: float) -> float:
    """Upper-tail standard normal quantile via the inverse error function."""
    return math.sqrt(2.0) * float(special.erfinv(1.0 - 2.0 * p))


def chi2_critical(quantile: float, dof: int) -> float:
    return float(stats.chi2.ppf(quantile, dof))


# ---------------------------------------------------- random-portfolio law

def long_count_pmf(N: int, c: float) -> np.ndarray:
    """P(K = k) for k = 0..N, K the number of long positions of a random
    portfolio of N assets at gross exposure c: Binomial(N, (c+1)/(2c)),
    conditioned on 0 < K < N when c > 1 (both sides populated).  At c = 1
    every position is long; with c > 1 one asset has no such count, a
    DataError."""
    pmf = np.zeros(N + 1)
    if c == 1.0:
        pmf[N] = 1.0
        return pmf
    if N < 2:
        raise DataError(f"no long count populates both sides of N={N} asset")
    p = (c + 1.0) / (2.0 * c)
    logs = {k: (math.lgamma(N + 1) - math.lgamma(k + 1) - math.lgamma(N - k + 1)
                + k * math.log(p) + (N - k) * math.log(1.0 - p)) for k in range(1, N)}
    top = max(logs.values())
    for k, value in logs.items():
        pmf[k] = math.exp(value - top)
    return pmf / pmf.sum()


def weight_moments(N: int, c: float):
    """(a, b) = (E[w_i^2], E[w_i w_j] for i != j) of a random portfolio,
    N >= 2.  Given K = k longs, each side is its scale s_L = (c+1)/2 or
    s_S = (c-1)/2 times a flat Dirichlet, whose coordinates have
    E[x^2] = 2 / (m (m+1)) on m positions, and a position is long with
    probability k/N; b follows from (sum_i w_i)^2 = 1."""
    s_long, s_short = (c + 1.0) / 2.0, (c - 1.0) / 2.0
    a = 0.0
    for k, prob in enumerate(long_count_pmf(N, c)):
        long_part = s_long ** 2 / (k + 1) if k > 0 else 0.0
        short_part = s_short ** 2 / (N - k + 1) if k < N else 0.0
        a += prob * (2.0 / N) * (long_part + short_part)
    return a, (1.0 - N * a) / (N * (N - 1))


def mean_portfolio_variance(Sigma: np.ndarray, c: float) -> float:
    """E[w' Sigma w] over random portfolios at gross exposure c:
    a tr(Sigma) + b (1' Sigma 1 - tr(Sigma))."""
    a, b = weight_moments(Sigma.shape[0], c)
    trace = float(np.trace(Sigma))
    return a * trace + b * (float(Sigma.sum()) - trace)


def brute_force_gammas(series, center: float, L: int):
    """Truncated autocovariances of the squared series, by double loop.

    gamma(h) = (1/T) * sum_{t=0}^{T-h-1} (s_t^2 - center)(s_{t+h}^2 - center)
    """
    s = [float(x) for x in series]
    T = len(s)
    gammas = []
    for h in range(L + 1):
        acc = 0.0
        for t in range(T - h):
            acc += (s[t] * s[t] - center) * (s[t + h] * s[t + h] - center)
        gammas.append(acc / T)
    return gammas


def brute_force_sigma2(series, center: float, L: int) -> float:
    """Unclamped long-run variance: gamma(0) + 2 * sum_{h=1}^{L} gamma(h)."""
    g = brute_force_gammas(series, center, L)
    return g[0] + 2.0 * sum(g[1:])


def sample_cov_oracle(X: np.ndarray, demean: bool) -> np.ndarray:
    """(1/T) sum of outer products, entry by entry."""
    X = np.asarray(X, dtype=float)
    T, N = X.shape
    if demean:
        X = X - X.mean(axis=0)
    S = np.empty((N, N))
    for i in range(N):
        for j in range(N):
            S[i, j] = sum(X[t, i] * X[t, j] for t in range(T)) / T
    return S


def hard_ref(z: float, tau: float) -> float:
    return 0.0 if abs(z) <= tau else z


def soft_ref(z: float, tau: float) -> float:
    if abs(z) <= tau:
        return 0.0
    return math.copysign(abs(z) - tau, z)


def scad_ref(z: float, tau: float, a: float = 3.7) -> float:
    az = abs(z)
    if az <= tau:
        return 0.0
    if az <= 2.0 * tau:
        return math.copysign(az - tau, z)
    if az <= a * tau:
        return ((a - 1.0) * z - math.copysign(a * tau, z)) / (a - 2.0)
    return z


def gmv_weights(Sigma: np.ndarray) -> np.ndarray:
    """Unconstrained global minimum variance: Sigma^-1 1 / (1' Sigma^-1 1)."""
    ones = np.ones(Sigma.shape[0])
    x = np.linalg.solve(Sigma, ones)
    return x / x.sum()


def min_variance_brute_force(Sigma: np.ndarray, c: float):
    """Exact solution of min w'Sw s.t. sum w = 1, ||w||_1 <= c, small N only.

    Enumerates every sign pattern in {-1, 0, +1}^N.  Zeros pin weights at
    zero; the nonzero block is solved in closed form twice, once with the
    exposure constraint binding (sum s_i w_i = c) and once slack (budget
    constraint only).  A candidate counts when its weights match the
    postulated signs and it is feasible; the optimum of the convex
    problem has to show up among these KKT systems.
    """
    Sigma = np.asarray(Sigma, dtype=float)
    N = Sigma.shape[0]
    best_obj, best_w = math.inf, None
    for pattern in itertools.product((-1.0, 0.0, 1.0), repeat=N):
        s = np.array(pattern)
        support = s != 0.0
        m = int(support.sum())
        if m == 0:
            continue
        sub = Sigma[np.ix_(support, support)]
        ssub = s[support]
        candidates = []
        # exposure constraint slack: plain budget-constrained minimum
        kkt = np.zeros((m + 1, m + 1))
        kkt[:m, :m] = 2.0 * sub
        kkt[:m, m] = 1.0
        kkt[m, :m] = 1.0
        rhs = np.zeros(m + 1)
        rhs[m] = 1.0
        try:
            sol = np.linalg.solve(kkt, rhs)
            candidates.append(sol[:m])
        except np.linalg.LinAlgError:
            pass
        # exposure constraint binding (skip when it duplicates the budget)
        if abs(ssub.sum() - m) > 1e-12 or c != 1.0:
            kkt2 = np.zeros((m + 2, m + 2))
            kkt2[:m, :m] = 2.0 * sub
            kkt2[:m, m] = 1.0
            kkt2[m, :m] = 1.0
            kkt2[:m, m + 1] = ssub
            kkt2[m + 1, :m] = ssub
            rhs2 = np.zeros(m + 2)
            rhs2[m] = 1.0
            rhs2[m + 1] = c
            try:
                sol2 = np.linalg.solve(kkt2, rhs2)
                candidates.append(sol2[:m])
            except np.linalg.LinAlgError:
                pass
        for w_sub in candidates:
            if np.any(w_sub * ssub < -1e-10):
                continue
            w = np.zeros(N)
            w[support] = w_sub
            if abs(w.sum() - 1.0) > 1e-8 or np.abs(w).sum() > c + 1e-8:
                continue
            obj = float(w @ Sigma @ w)
            if obj < best_obj:
                best_obj, best_w = obj, w
    return best_w, best_obj


def max_abs_entry_diff(A: np.ndarray, B: np.ndarray) -> float:
    """Entrywise sup-norm distance, by explicit loop."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    worst = 0.0
    for i in range(A.shape[0]):
        for j in range(A.shape[1]):
            worst = max(worst, abs(A[i, j] - B[i, j]))
    return worst


# ------------------------------------------- pre-active-set solver (copy)

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


def min_variance_apg(estimate: CovarianceEstimate, c) -> Portfolio:
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
    tol, max_iter = 1e-8, 50_000
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
    for it in range(1, max_iter + 1):
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
            if f_window - fx <= tol * max(fx, 1e-300):
                if stalled:
                    break
                stalled = True
            else:
                stalled = False
            f_window = fx
    else:
        if not stalled:
            raise NumericalError(
                f"minimum-variance solver did not converge in {max_iter} iterations"
            )
    return Portfolio(p - n)


def ensure_positive_definite_eigvalsh(estimate: CovarianceEstimate) -> CovarianceEstimate:
    """Re-threshold with doubled C until the smallest eigenvalue exceeds
    1e-8: at most 20 rebuilds at 2 * C0, 4 * C0, ..., with C0 the
    estimate's C (0.05 when that is zero)."""
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


# ------------------------------------------------ dense error covariance

def raw_error_corr(params, N: int, rng):
    """Error sds and the unthresholded correlation matrix, in draw order:
    the sds, then the correlations of the upper triangle row by row."""
    sds = _draw_error_sds(params, N, rng)
    corr = np.eye(N)
    iu = np.triu_indices(N, k=1)
    draws = np.clip(rng.normal(params.corr_mean, params.corr_sd, size=iu[0].size),
                    -params.corr_cap, params.corr_cap)
    corr[iu] = draws
    corr[(iu[1], iu[0])] = draws
    return sds, corr


def hard_threshold_corr(corr: np.ndarray, level: float) -> np.ndarray:
    """corr with every off-diagonal entry of magnitude at most level set to 0."""
    out = np.where(np.abs(corr) <= level, 0.0, corr)
    np.fill_diagonal(out, 1.0)
    return out


def is_pd(matrix: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(matrix)
        return True
    except np.linalg.LinAlgError:
        return False


def coupled_rows(matrix: np.ndarray) -> np.ndarray:
    """The rows of a square matrix that keep a nonzero off-diagonal entry."""
    return np.flatnonzero(np.count_nonzero(matrix, axis=1) > (np.diagonal(matrix) != 0))


def dense_error_cov(params, N: int, rng):
    """(Sigma_u, corr, threshold): the dense error covariance, the
    thresholded correlation matrix and its level.  The level is the
    bisection's upper end, 0 when the raw matrix is PD: it halves
    [0, max |corr|] until it is 1e-6 wide, factoring the whole thresholded
    matrix at every midpoint."""
    sds, corr = raw_error_corr(params, N, rng)
    threshold = 0.0
    if not is_pd(corr):
        lo, hi = 0.0, float(np.max(np.abs(corr - np.eye(N))))
        while hi - lo > 1e-6:
            mid = (lo + hi) / 2.0
            if is_pd(hard_threshold_corr(corr, mid)):
                hi = mid
            else:
                lo = mid
        threshold = hi
        corr = hard_threshold_corr(corr, threshold)
    return corr * np.outer(sds, sds), corr, threshold


def dense_model_instance(params, N: int, rng):
    """(B, Sigma_u, Sigma_true, Sigma_eps) of one market, every matrix dense."""
    B = generate_loadings(params, N, rng)
    Sigma_u = dense_error_cov(params, N, rng)[0]
    Sigma_true = B @ params.cov_f @ B.T + Sigma_u
    Sigma_eps = solve_lyapunov(params.Phi, params.cov_f)
    return B, Sigma_u, Sigma_true, Sigma_eps
