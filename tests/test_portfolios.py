"""Random portfolio sampler and the constrained minimum-variance solver."""

import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import portrisk as pr
import portrisk.portfolios as pf
import oracles
from portrisk.simulation import generate_var1_factors


def test_equal_weight():
    assert np.array_equal(pr.equal_weight(1).weights, np.array([1.0]))
    w = pr.equal_weight(3)
    assert np.allclose(w.weights, 1.0 / 3.0)
    with pytest.raises(pr.DataError):
        pr.equal_weight(0)


def test_portfolio_gross_exposure_is_computed_not_passed():
    assert pr.Portfolio(np.array([1.3, -0.3])).gross_exposure == pytest.approx(1.6)
    with pytest.raises(TypeError):
        pr.Portfolio(np.array([1.3, -0.3]), gross_exposure=5.0)


def test_gross_exposure_values():
    assert pr.gross_exposure(pr.Portfolio(np.array([1 / 3, 1 / 3, 1 / 3]))) == pytest.approx(1.0)
    assert pr.gross_exposure(pr.Portfolio(np.array([1.3, -0.3]))) == pytest.approx(1.6)
    assert pr.gross_exposure(np.array([0.5, 0.5, 0.0])) == pytest.approx(1.0)


# ------------------------------------------------------------------ sampler

def test_sampler_long_only_at_unit_exposure():
    rng = pr.derive_rng(101, "longonly")
    for _ in range(200):
        w = pr.sample_random_portfolio(7, 1.0, rng).weights
        assert (w >= 0).all()
        assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_sampler_side_sums():
    rng = pr.derive_rng(103, "sides")
    for _ in range(200):
        w = pr.sample_random_portfolio(12, 3.0, rng).weights
        assert w[w > 0].sum() == pytest.approx(2.0, abs=1e-12)
        assert w[w < 0].sum() == pytest.approx(-1.0, abs=1e-12)


def test_sampler_identities():
    rng = pr.derive_rng(105, "ident")
    for _ in range(2000):
        N = int(rng.integers(2, 40))
        c = float(rng.uniform(1.0, 4.0))
        w = pr.sample_random_portfolio(N, c, rng).weights
        assert abs(w.sum() - 1.0) <= 1e-12
        assert abs(np.abs(w).sum() - c) <= 1e-12 * c


def test_sampler_single_asset():
    rng = pr.derive_rng(105, "one")
    assert np.array_equal(pr.sample_random_portfolio(1, 1.0, rng).weights,
                          np.array([1.0]))
    # one asset cannot populate both sides of a long-short book
    with pytest.raises(pr.DataError):
        pr.sample_random_portfolio(1, 2.0, rng)


def test_sampler_long_count_mean():
    # k ~ Bin(N, (c+1)/(2c)); at N=1000, c=2 the conditioning on both
    # sides being populated is negligible and the mean long count is 750
    rng = pr.derive_rng(47, "bin")
    counts = [float((pr.sample_random_portfolio(1000, 2.0, rng).weights > 0).sum())
              for _ in range(20_000)]
    assert np.mean(counts) == pytest.approx(750.0, abs=0.5)


def test_sampler_positions_exchangeable():
    # With N=10 and c=2 a notable share of binomial draws puts every
    # index long; those are redrawn, so the marginal long probability is
    # the binomial mean conditioned on both sides being nonempty.  The
    # permutation step must spread that probability evenly, which a
    # chi-square statistic over position counts checks at the 0.1% level.
    n_draws = 100_000
    rng = pr.derive_rng(53, "chi")
    pos = np.zeros(10)
    for _ in range(n_draws):
        pos += pr.sample_random_portfolio(10, 2.0, rng).weights > 0
    p10 = 0.75 ** 10
    p0 = 0.25 ** 10
    p_cond = (7.5 - 10.0 * p10) / (1.0 - p0 - p10) / 10.0
    cell_var = n_draws * p_cond * (1.0 - p_cond)
    chi2 = float(((pos - n_draws * p_cond) ** 2 / cell_var).sum())
    assert chi2 < oracles.chi2_critical(0.999, 9)
    assert pos.mean() / n_draws == pytest.approx(p_cond, abs=5 * np.sqrt(
        p_cond * (1 - p_cond) / (10 * n_draws)))


def test_sampler_deterministic_given_stream_state():
    a = pr.sample_random_portfolio(15, 1.7, pr.derive_rng(107, "det"))
    b = pr.sample_random_portfolio(15, 1.7, pr.derive_rng(107, "det"))
    assert np.array_equal(a.weights, b.weights)


def test_sampler_small_N_shorting_still_works():
    # N=2, c=3: binomial often lands on 0 or 2 longs, exercising the
    # redraw path; every returned portfolio still satisfies both sums
    rng = pr.derive_rng(109, "redraw")
    for _ in range(500):
        w = pr.sample_random_portfolio(2, 3.0, rng).weights
        assert abs(w.sum() - 1.0) <= 1e-12
        assert abs(np.abs(w).sum() - 3.0) <= 1e-12


def test_sampler_validation():
    rng = pr.derive_rng(111, "bad")
    with pytest.raises(pr.DataError):
        pr.sample_random_portfolio(0, 1.5, rng)
    with pytest.raises(pr.DataError):
        pr.sample_random_portfolio(5, 0.8, rng)

def _reference_portfolio(N, c, rng):
    """One draw the long way: separate long and short exponential draws,
    and after 100 one-sided counts a count found by scanning the
    conditioned binomial's cdf up to one uniform draw."""
    p_long = (c + 1.0) / (2.0 * c)
    for _ in range(100):
        k = int(rng.binomial(N, p_long))
        if c == 1.0 or 0 < k < N:
            break
    else:
        pmf = oracles.long_count_pmf(N, c)
        u = rng.random()
        k, cdf = 1, pmf[1]
        while cdf <= u and k < N - 1:
            k += 1
            cdf += pmf[k]
    long_raw = rng.standard_exponential(k)
    longs = (c + 1.0) / 2.0 * long_raw / long_raw.sum() if k else np.empty(0)
    shorts = np.empty(0)
    if N - k:
        short_raw = rng.standard_exponential(N - k)
        shorts = -(c - 1.0) / 2.0 * short_raw / short_raw.sum()
    return np.concatenate([longs, shorts])[rng.permutation(N)]


@pytest.mark.parametrize("N", [1, 2, 7, 100, 600])
@pytest.mark.parametrize("c", [1.0, 1.6, 2.0, 4.0])
def test_batched_sampler_equals_sequential_draws(N, c):
    P = 25
    rngs = [pr.derive_rng(113, "batch", N, c) for _ in range(3)]
    draws = [lambda: _reference_portfolio(N, c, rngs[0]),
             lambda: pr.sample_random_portfolio(N, c, rngs[1]).weights]
    if N == 1 and c > 1.0:
        # no single-asset long-short book: every form gives up alike
        for draw in draws:
            with pytest.raises(pr.DataError):
                draw()
        with pytest.raises(pr.DataError):
            pr.sample_random_weights(N, c, rngs[2], P)
        return
    want = [np.column_stack([draw() for _ in range(P)]) for draw in draws]
    got = pr.sample_random_weights(N, c, rngs[2], P)
    assert got.shape == (N, P)
    assert np.array_equal(got, want[0]) and np.array_equal(got, want[1])
    # every stream stands at the same state afterwards
    assert len({rng.random() for rng in rngs}) == 1


class _Recording:
    """A generator that records the names of the methods called on it."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.rng, name)


@pytest.mark.parametrize("N, c", [(2, 1.01), (3, 1.01), (4, 1.002)])
def test_batched_sampler_equals_sequential_draws_through_the_fallback(N, c):
    # both sides are populated with probability 0.01-0.03 per binomial
    # draw, so some of the 25 columns give up on the redraws and take the
    # conditioned count
    P = 25
    rngs = [pr.derive_rng(119, "fallback", N, c) for _ in range(3)]
    recorded = _Recording(rngs[2])
    got = pr.sample_random_weights(N, c, recorded, P)
    assert "random" in recorded.calls
    want = [np.column_stack([draw() for _ in range(P)]) for draw in (
        lambda: _reference_portfolio(N, c, rngs[0]),
        lambda: pr.sample_random_portfolio(N, c, rngs[1]).weights)]
    assert np.array_equal(got, want[0]) and np.array_equal(got, want[1])
    assert len({rng.random() for rng in rngs}) == 1


def test_sampler_never_fails_by_chance():
    # N=2, c=1.01: a binomial count has both sides with probability 0.01,
    # so 100 redraws all fail for 37% of portfolios; 76 of these 200
    # seeds used to raise
    for seed in range(200):
        w = pr.sample_random_weights(2, 1.01, pr.derive_rng(seed, "x"))[:, 0]
        assert abs(w.sum() - 1.0) <= 1e-12
        assert abs(np.abs(w).sum() - 1.01) <= 1e-12


def test_conditioned_long_count_inverts_the_cdf_without_underflow():
    # each u gets the k with P(K < k) <= u < P(K <= k), up to rounding; at
    # N=5000, c=3 and k near the mode, C(N, k) overflows and
    # p^k (1-p)^(N-k) underflows in double precision
    for N, c in [(3, 1.01), (40, 1.3), (5000, 1.001), (5000, 3.0)]:
        cdf = np.cumsum(oracles.long_count_pmf(N, c))
        for u in (0.0, 0.1, 0.5, 0.9, 1.0 - 1e-12):
            k = pf._conditioned_long_count(N, (c + 1.0) / (2.0 * c), u)
            assert 1 <= k <= N - 1
            assert cdf[k - 1] <= u * (1 + 1e-12) and cdf[k] >= u * (1 - 1e-12)


def _chi2_against(counts, pmf):
    """(statistic, degrees of freedom) of observed counts against the pmf,
    the cells with an expected count below 5 pooled into one."""
    expected = counts.sum() * pmf
    big = expected >= 5.0
    obs, exp = list(counts[big]), list(expected[big])
    if expected[~big].sum() > 0:
        obs.append(counts[~big].sum())
        exp.append(expected[~big].sum())
    obs, exp = np.array(obs, dtype=float), np.array(exp)
    return float(((obs - exp) ** 2 / exp).sum()), len(exp) - 1


@pytest.mark.parametrize("N, c, n", [(10, 1.0, 2000), (10, 2.0, 20_000), (25, 1.2, 20_000),
                                     (3, 1.01, 10_000)])
def test_sampler_long_count_follows_the_conditioned_binomial(N, c, n):
    # (3, 1.01): both sides only 1.5% of binomial draws, so the redraws
    # give up on 23% of portfolios and the conditioned count takes over
    W = pr.sample_random_weights(N, c, pr.derive_rng(121, "pmf", N, c), n)
    counts = np.bincount((W > 0).sum(axis=0), minlength=N + 1)
    pmf = oracles.long_count_pmf(N, c)
    assert counts[pmf == 0.0].sum() == 0
    chi2, dof = _chi2_against(counts, pmf)
    if c == 1.0:
        assert (dof, chi2) == (0, 0.0)  # every position is long
    else:
        assert chi2 < oracles.chi2_critical(0.999, dof)


def _z(samples, mean):
    return (samples.mean() - mean) / (samples.std(ddof=1) / np.sqrt(samples.size))


@pytest.mark.parametrize("N, c", [(5, 1.0), (5, 1.6), (30, 1.2), (3, 1.01)])
def test_sampler_second_moments_match_the_closed_form(N, c):
    # a = E[w_i^2] per index and over all indices, b = E[w_i w_j], each
    # within 4 standard errors
    a, b = oracles.weight_moments(N, c)
    W = pr.sample_random_weights(N, c, pr.derive_rng(123, "moments", N, c), 20_000)
    for samples, want in ((W[0] ** 2, a), ((W ** 2).mean(axis=0), a), (W[-1] ** 2, a),
                          (W[0] * W[1], b), (W[1] * W[-1], b)):
        assert abs(_z(samples, want)) < 4.0


@pytest.mark.parametrize("c", [1.0, 1.6])
def test_mean_true_variance_matches_the_closed_form(c):
    # on one market, E[w' Sigma w] = a tr(Sigma) + b (1' Sigma 1 - tr(Sigma))
    # exactly; the mean over 20,000 portfolios sits within 4 standard errors
    rng = pr.derive_rng(125, "truevar", c)
    inst = pr.build_model_instance(pr.default_calibration(), 40, rng)
    variances = inst.true_variances(pr.sample_random_weights(40, c, rng, 20_000))
    assert abs(_z(variances, oracles.mean_portfolio_variance(inst.Sigma_true, c))) < 4.0


def test_batched_sampler_validation():
    rng = pr.derive_rng(115, "bad")
    with pytest.raises(pr.DataError):
        pr.sample_random_weights(5, 1.5, rng, 0)
    with pytest.raises(pr.DataError):
        pr.sample_random_weights(0, 1.5, rng, 3)
    with pytest.raises(pr.DataError):
        pr.sample_random_weights(5, 0.8, rng, 3)


def test_sampler_rejects_a_short_side_on_one_asset_before_any_draw():
    # it used to make 100 binomial draws before it gave up on populating
    # both sides
    class NoDraws:
        def __getattr__(self, name):
            raise AssertionError(f"the generator's {name} was used")

    for draw in (lambda: pr.sample_random_weights(1, 1.5, NoDraws(), 3),
                 lambda: pr.sample_random_portfolio(1, 1.0 + 1e-12, NoDraws())):
        with pytest.raises(pr.DataError, match="one asset cannot hold a short side"):
            draw()


@pytest.mark.parametrize("c", [float("inf"), float("nan"), 0.8])
def test_sampler_rejects_exposure_outside_finite_range(c):
    # c=inf used to reach numpy's binomial as p=nan and raise its ValueError
    with pytest.raises(pr.DataError, match=f"c={c}"):
        pr.sample_random_weights(5, c, pr.derive_rng(117, "bad"))


# ------------------------------------------------------------- min variance

def _estimate(Sigma):
    return pr.CovarianceEstimate(np.asarray(Sigma, dtype=float), "sample")


def test_min_variance_gmv_on_diagonal_matrix():
    Sigma = np.diag([1.0, 2.0, 4.0, 8.0])
    got = pr.min_variance(_estimate(Sigma), c=3.0)
    want = oracles.gmv_weights(Sigma)
    assert np.max(np.abs(got.weights - want)) <= 1e-8


def test_min_variance_identity_gives_equal_weights():
    got = pr.min_variance(_estimate(np.eye(6)), c=1.0)
    assert np.max(np.abs(got.weights - 1.0 / 6.0)) <= 1e-8


def test_min_variance_matches_sign_support_enumeration():
    rng = np.random.default_rng(61)
    A = rng.standard_normal((8, 8))
    Sigma = A @ A.T + 8 * np.eye(8)
    d = np.sqrt(rng.uniform(0.5, 2.0, 8))
    Sigma = Sigma * np.outer(d, d)
    w_ref, obj_ref = oracles.min_variance_brute_force(Sigma, 1.2)
    got = pr.min_variance(_estimate(Sigma), c=1.2)
    obj = float(got.weights @ Sigma @ got.weights)
    assert obj <= obj_ref + 1e-6 * abs(obj_ref)
    assert abs(got.weights.sum() - 1.0) <= 1e-10
    assert np.abs(got.weights).sum() <= 1.2 + 1e-8


def test_min_variance_constraint_binds_under_short_incentive():
    # strong positive correlation with unequal variances rewards a short
    # position, so the exposure constraint is active at the optimum
    Sigma = np.array([[1.0, 0.95 * 3.0], [0.95 * 3.0, 9.0]])
    got = pr.min_variance(_estimate(Sigma), c=1.4)
    assert np.abs(got.weights).sum() == pytest.approx(1.4, abs=1e-6)
    assert got.weights[1] < 0


def test_min_variance_objective_monotone_in_c():
    rng = np.random.default_rng(63)
    A = rng.standard_normal((20, 20))
    est = _estimate(A @ A.T + 20 * np.eye(20))
    objs = [pr.portfolio_variance(est, pr.min_variance(est, c))
            for c in (1.0, 1.2, 1.4, 1.6, 1.8, 2.0)]
    for lo, hi in zip(objs[1:], objs[:-1]):
        assert lo <= hi + 1e-10


def test_min_variance_dominates_random_feasible_portfolios():
    rng = pr.derive_rng(65, "feas")
    A = rng.standard_normal((20, 20))
    est = _estimate(A @ A.T + 20 * np.eye(20))
    obj = pr.portfolio_variance(est, pr.min_variance(est, c=1.5))
    for _ in range(1000):
        w = pr.sample_random_portfolio(20, 1.5, rng)
        assert obj <= pr.portfolio_variance(est, w) + 1e-10


def test_min_variance_rejects_bad_inputs():
    with pytest.raises(pr.DataError):
        pr.min_variance(_estimate(np.eye(4)), c=0.5)
    rank1 = np.outer(np.ones(3), np.ones(3)) + 1e-14 * np.eye(3)
    with pytest.raises(pr.NumericalError):
        pr.min_variance(_estimate(rank1), c=1.5)


# ------------------------------------- active-set finish against plain APG

def _oracle_solve(est, c):
    """The pre-active-set solver's weights, and whether it certified them
    (the unconstrained optimum counts as certified)."""
    results = []
    real = oracles._certify_kkt

    def certify(*args):
        results.append(real(*args))
        return results[-1]

    with mock.patch.object(oracles, "_certify_kkt", certify):
        w = oracles.min_variance_apg(est, c).weights
    return w, not results or results[-1] is not None


def _factor_matrix(N, K, seed, scale=1.0):
    """Factor-plus-diagonal covariance with market-like positive betas,
    times scale."""
    rng = np.random.default_rng(seed)
    B = rng.normal(1.0, 0.7, size=(N, K))
    A = rng.standard_normal((K, K))
    cov_f = A @ A.T / K + 0.1 * np.eye(K)
    return scale * (B @ cov_f @ B.T + np.diag(rng.uniform(0.1, 2.0, size=N)))


@settings(max_examples=400, deadline=None)
@given(N=st.integers(2, 40), K=st.integers(1, 3),
       c=st.sampled_from([1.0, 1.2, 1.6, 2.0]), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1.0, 1e-2]))
# the active-set finish certifies a wrong support on this problem if the
# KKT gradient tolerance of _kkt_solve is loosened from 1e-8 to 1e-3
@example(N=13, K=2, c=1.2, seed=1026255426, scale=1.0)
def test_min_variance_matches_apg_oracle(N, K, c, seed, scale):
    # the tolerance has an absolute part, so on a scaled-down matrix a
    # loosened one also certifies supports that miss an asset whose
    # optimal weight is small; those problems need no pinned example
    Sigma = _factor_matrix(N, K, seed, scale)
    est = _estimate(Sigma)
    want, certified = _oracle_solve(est, c)
    with warnings.catch_warnings():
        # an uncertified result warns; its checks below still apply
        warnings.simplefilter("ignore", RuntimeWarning)
        got = pr.min_variance(est, c).weights
    if certified:
        assert got.tobytes() == want.tobytes()
    assert abs(got.sum() - 1.0) <= 1e-9
    assert np.abs(got).sum() <= c + 1e-9
    # two evaluations of one quadratic form in float64 differ by at most
    # a few N eps relative
    obj, obj_ref = float(got @ Sigma @ got), float(want @ Sigma @ want)
    assert obj <= obj_ref * (1.0 + 8 * N * np.finfo(float).eps)


def test_kkt_check_rejects_a_negative_exposure_multiplier():
    # on the support (+, -) of the identity at c = 3 the equality solution
    # (2, -1) has the right signs but a negative exposure multiplier: the
    # budget is slack there, and the optimum is the equal-weight book
    M = np.eye(2)
    assert pf._active_set(M, np.array([1.0, -1.0]), 3.0) is None
    assert np.allclose(pf._active_set(M, np.array([1.0, 1.0]), 1.0), 0.5)


def test_unsettled_active_set_raises_after_the_step_cap(monkeypatch):
    # a step that flips every sign never settles: the method stops at its
    # cap and min_variance raises, with no second method to fall back on
    calls = []

    def never_settles(M, pattern, c):
        calls.append(pattern)
        return None, -pattern, True

    monkeypatch.setattr(pf, "_kkt_solve", never_settles)
    est = _estimate(_factor_matrix(30, 2, 71))
    for c in (1.0, 1.2, 1.6):
        calls.clear()
        with pytest.raises(pr.NumericalError, match="did not settle"):
            pr.min_variance(est, c)
        assert len(calls) == pf._ACTIVE_SET_STEPS


def _wishart(N, dof, seed):
    """A Wishart matrix with dof degrees of freedom over dof, plus 1e-3 I:
    a sample covariance with few more periods than assets."""
    A = np.random.default_rng(seed).standard_normal((N, dof))
    return A @ A.T / dof + 1e-3 * np.eye(N)


@settings(max_examples=400, deadline=None)
@given(N=st.integers(3, 40), extra=st.integers(1, 4),
       c=st.sampled_from([1.0, 1.2, 1.6, 2.0, 4.0]), seed=st.integers(0, 2**32 - 1))
def test_min_variance_matches_apg_oracle_on_ill_conditioned_matrices(N, extra, c, seed):
    # full exchange steps can cycle on such matrices; the backup rule must
    # still end on the oracle's certified optimum
    est = _estimate(_wishart(N, N + extra, seed))
    want, certified = _oracle_solve(est, c)
    assert certified
    assert pr.min_variance(est, c).weights.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed, N, c", [(0, 30, 1.2), (77, 30, 1.6), (780, 20, 1.2)])
def test_cycling_problems_settle_through_single_pivots(seed, N, c, monkeypatch):
    # from the projected unconstrained signs, full exchange steps cycle on
    # these problems (for seed 0 the changed counts repeat 5, 7, 7, 7); the
    # backup rule breaks the cycle with single-index steps, so the first
    # and only active-set run settles on the oracle's optimum
    est = _estimate(_wishart(N, N + 2, seed))
    want, certified = _oracle_solve(est, c)
    assert certified
    steps, projected = [], []
    real_solve, real_project = pf._kkt_solve, pf._project_simplex

    def kkt(M, pattern, c):
        step = real_solve(M, pattern, c)
        steps.append((pattern.copy(), step[1]))
        return step

    def project(v, total):
        projected.append(total)
        return real_project(v, total)

    monkeypatch.setattr(pf, "_kkt_solve", kkt)
    monkeypatch.setattr(pf, "_project_simplex", project)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = pr.min_variance(est, c).weights
    assert got.tobytes() == want.tobytes()
    assert len(projected) == 2
    # a single pivot takes one index of a proposal that changed more
    single = [(after != before).sum() == 1 and (proposal != before).sum() > 1
              for (before, proposal), (after, _) in zip(steps, steps[1:])]
    assert any(single)


@pytest.fixture(scope="module")
def backtest_factor_estimate():
    """The factor estimate of one N=300, 252-period backtest window."""
    params = pr.default_calibration()
    rng = pr.derive_rng(67, "minvar")
    inst = pr.build_model_instance(params, 300, rng)
    F = generate_var1_factors(params, 252, rng)
    U = rng.standard_normal((252, 300)) @ np.linalg.cholesky(inst.Sigma_u).T
    dates = tuple(f"d{t:04d}" for t in range(252))
    returns = pr.ReturnsPanel(dates, tuple(f"a{i:03d}" for i in range(300)),
                              F @ inst.B.T + U)
    factors = pr.FactorPanel(dates, ("f1", "f2", "f3"), F)
    [spec] = [s for s in pr.BacktestConfig()._specs if s.name == "factor"]
    return spec.fit(returns, factors).estimate


@pytest.mark.parametrize("c", [1.0, 1.6, 2.0])
def test_min_variance_on_backtest_window_equals_apg_oracle(backtest_factor_estimate, c):
    est = backtest_factor_estimate
    want, certified = _oracle_solve(est, c)
    finished = []
    real = pf._active_set

    def active_set(*args):
        finished.append(real(*args))
        return finished[-1]

    with mock.patch.object(pf, "_active_set", active_set):
        got = pr.min_variance(est, c).weights
    assert certified
    assert len(finished) == 1 and finished[0] is not None
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("c", [1.0, 1.6, 2.0])
def test_settled_first_finish_runs_no_apg(backtest_factor_estimate, c, monkeypatch):
    # the finish from the projected unconstrained weights settles on this
    # window, so the two projections of its start are the only ones: APG
    # would project twice more to start and at least twice an iteration
    projected = []
    real = pf._project_simplex

    def project(v, total):
        projected.append(total)
        return real(v, total)

    monkeypatch.setattr(pf, "_project_simplex", project)
    pr.min_variance(backtest_factor_estimate, c)
    assert projected == [(c + 1.0) / 2.0, (c - 1.0) / 2.0]


def test_exposures_on_one_estimate_equal_calls_on_fresh_estimates(backtest_factor_estimate):
    # one estimate caches its Cholesky verdict and unconstrained weights
    # across calls; c=50 returns those weights themselves
    est = pr.CovarianceEstimate(backtest_factor_estimate.matrix, "factor",
                                dict(backtest_factor_estimate.tuning))
    cs = (50.0, 1.0, 1.6, 2.0, 50.0)
    shared = [pr.min_variance(est, c).weights for c in cs]
    for c, got in zip(cs, shared):
        fresh = pr.CovarianceEstimate(est.matrix.copy(), "factor", dict(est.tuning))
        assert got.tobytes() == pr.min_variance(fresh, c).weights.tobytes()
    assert shared[0].tobytes() == est._gmv_weights().tobytes()


def test_singular_sample_estimate_raises_without_eigenvalues(monkeypatch):
    # 50 assets over 20 periods: the sample covariance has rank 19
    rng = np.random.default_rng(73)
    est = pr.sample_covariance(pr.ReturnsPanel(
        tuple(f"d{t:02d}" for t in range(20)), tuple(f"a{i:02d}" for i in range(50)),
        rng.standard_normal((20, 50))))
    factorized = []
    cholesky = np.linalg.cholesky

    def counted(m):
        factorized.append(m)
        return cholesky(m)

    def no_eigenvalues(*args, **kwargs):
        raise AssertionError("eigenvalues computed")

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigenvalues)
    for c in (1.0, 1.6):
        with pytest.raises(pr.NumericalError, match=re.escape(
                "covariance is not positive definite (Cholesky factorization failed); "
                "re-threshold before optimizing")):
            pr.min_variance(est, c)
    assert len(factorized) == 1  # the verdict is cached on the estimate
    assert est._eig_range is None and est._gmv is None
