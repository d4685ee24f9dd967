"""Long-run variances, H-CLUB bounds, crude bounds, RE ratios."""

import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import portrisk as pr
from portrisk.assessment import _quad_forms, systematic_return_series, total_return_series
from portrisk.estimators import ESTIMATOR_NAMES
import oracles
from helpers import calibrated_market, make_factor_panel, make_panel


# ----------------------------------------------------------------- quantile

def test_quantile_spot_values():
    assert pr.normal_upper_quantile(0.025) == pytest.approx(1.959964, abs=1e-6)
    assert pr.normal_upper_quantile(0.005) == pytest.approx(2.575829, abs=1e-6)
    assert pr.normal_upper_quantile(0.25) == pytest.approx(0.674490, abs=1e-6)


def test_quantile_against_erfinv_oracle():
    for p in np.linspace(1e-6, 0.499, 257):
        assert abs(pr.normal_upper_quantile(p) - oracles.quantile_oracle(p)) <= 1e-8


def test_quantile_domain():
    for p in (0.0, 0.5, -0.1, 1.0):
        with pytest.raises(pr.DataError):
            pr.normal_upper_quantile(p)


def test_hclub_z_conventions():
    assert pr.hclub_z(0.05, paper_z=True) == 2.0
    assert pr.hclub_z(0.01, paper_z=True) == 2.58
    assert pr.hclub_z(0.05) == pytest.approx(1.959964, abs=1e-6)
    # the rounded-z convention only covers tau 0.05 and 0.01; anything
    # else falls through to the exact quantile
    assert pr.hclub_z(0.3, paper_z=True) == pr.normal_upper_quantile(0.15)
    with pytest.raises(pr.DataError):
        pr.hclub_z(1.5)
    with pytest.raises(pr.DataError):
        pr.hclub_z(0.0)


# ------------------------------------------------------- truncated autocovs

def test_autocov_constant_series_is_exactly_zero():
    panel = make_panel(np.full((30, 1), 2.0))
    w = np.array([1.0])
    for flag in (True, False):
        lrv = pr.autocov_sample(panel, w, L=5, demean=flag)
        assert lrv.gammas == tuple([0.0] * 6)
        assert lrv.sigma2 == 0.0
        assert not lrv.clamped


def test_autocov_sample_matches_brute_force():
    rng = pr.derive_rng(151, "lrv")
    for T in (23, 50, 77):
        X = rng.standard_normal((T, 4)) * rng.uniform(0.5, 2.0, 4)
        panel = make_panel(X)
        w = pr.sample_random_portfolio(4, 1.8, rng)
        lrv = pr.autocov_sample(panel, w, L=6)
        p = panel.demeaned_values @ w.weights
        center = float(p @ p) / T
        ref = oracles.brute_force_gammas(p, center, 6)
        scale = max(abs(g) for g in ref)
        for got, want in zip(lrv.gammas, ref):
            assert abs(got - want) <= 1e-12 * scale
        raw = oracles.brute_force_sigma2(p, center, 6)
        assert abs(lrv.sigma2 - max(raw, 0.0)) <= 1e-12 * scale


def test_autocov_lag_bounds():
    panel = make_panel(np.ones((10, 1)) * np.arange(10)[:, None])
    with pytest.raises(pr.DataError):
        pr.autocov_sample(panel, np.array([1.0]), L=10)
    with pytest.raises(pr.DataError):
        pr.autocov_sample(panel, np.array([1.0]), L=-1)
    ok = pr.autocov_sample(panel, np.array([1.0]), L=0)
    assert len(ok.gammas) == 1


def test_autocov_iid_series_concentrates_at_lag_zero():
    rng = pr.derive_rng(153, "iid")
    panel = make_panel(rng.standard_normal((20_000, 1)))
    lrv = pr.autocov_sample(panel, np.array([1.0]), L=5)
    for g in lrv.gammas[1:]:
        assert abs(g) <= 0.05 * lrv.gammas[0]
    assert abs(lrv.sigma2 - lrv.gammas[0]) <= 0.15 * lrv.gammas[0]


def test_autocov_factor_source_and_zero_loadings():
    _, panel, fpanel = calibrated_market(8, 40, 155)
    pca = pr.pca_factor_fit(panel, 2)
    with pytest.raises(pr.DataError):
        pr.autocov_factor(pca, pr.equal_weight(8))
    fit = pr.ols_factor_fit(panel, fpanel)
    zeroed = pr.FactorModelFit(
        loadings=np.zeros_like(fit.loadings),
        factors=fit.factors,
        residuals=panel.demeaned_values,
        factor_cov=fit.factor_cov,
        source="observed",
    )
    lrv = pr.autocov_factor(zeroed, pr.equal_weight(8), L=4)
    assert lrv.gammas == tuple([0.0] * 5)


def test_autocov_factor_residual_free_equals_sample():
    rng = pr.derive_rng(67, "resfree")
    F = rng.standard_normal((50, 3))
    B = rng.standard_normal((8, 3))
    panel = make_panel(F @ B.T)
    fpanel = make_factor_panel(F)
    fit = pr.ols_factor_fit(panel, fpanel)
    w = pr.sample_random_portfolio(8, 1.5, rng)
    lf = pr.autocov_factor(fit, w, L=5)
    ls = pr.autocov_sample(panel, w, L=5)
    assert abs(lf.sigma2 - ls.sigma2) <= 1e-10 * abs(ls.sigma2)


def test_autocov_factor_matches_brute_force():
    _, panel, fpanel = calibrated_market(10, 60, 157)
    fit = pr.ols_factor_fit(panel, fpanel)
    w = pr.equal_weight(10)
    lrv = pr.autocov_factor(fit, w, L=5)
    b = fit.loadings.T @ w.weights
    series = fit.factors @ b
    center = float(b @ fit.factor_cov @ b)
    ref = oracles.brute_force_gammas(series, center, 5)
    scale = max(abs(g) for g in ref)
    for got, want in zip(lrv.gammas, ref):
        assert abs(got - want) <= 1e-12 * scale


def test_autocov_poet_source_check_and_parities():
    _, panel, fpanel = calibrated_market(6, 24, 159)
    obs = pr.ols_factor_fit(panel, fpanel)
    with pytest.raises(pr.DataError):
        pr.autocov_poet(obs, pr.equal_weight(6))
    # K = min(N, T): exact reconstruction makes systematic == total
    rng = pr.derive_rng(71, "poetfull")
    Y = rng.standard_normal((12, 6))
    panel = make_panel(Y)
    fit = pr.pca_factor_fit(panel, 6)
    w = pr.equal_weight(6)
    l1 = pr.autocov_poet(fit, w, L=3)
    l2 = pr.autocov_sample(panel, w, L=3)
    assert abs(l1.sigma2 - l2.sigma2) <= 1e-8 * abs(l2.sigma2)


def test_autocov_poet_rank_one_panel():
    rng = pr.derive_rng(73, "rank1")
    b = rng.standard_normal(5)
    f = rng.standard_normal(40)
    panel = make_panel(np.outer(f, b))
    fit = pr.pca_factor_fit(panel, 1)
    w = pr.equal_weight(5)
    l1 = pr.autocov_poet(fit, w, L=4)
    l2 = pr.autocov_sample(panel, w, L=4)
    assert abs(l1.sigma2 - l2.sigma2) <= 1e-10 * max(abs(l2.sigma2), 1e-300)


def test_autocov_poet_matches_brute_force():
    _, panel, _ = calibrated_market(10, 50, 161)
    fit = pr.pca_factor_fit(panel, 3)
    w = pr.sample_random_portfolio(10, 1.2, pr.derive_rng(161, "w"))
    lrv = pr.autocov_poet(fit, w, L=4)
    b = fit.loadings.T @ w.weights
    series = fit.factors @ b
    center = float(b @ b)  # identity factor covariance under PCA
    ref = oracles.brute_force_gammas(series, center, 4)
    scale = max(abs(g) for g in ref)
    for got, want in zip(lrv.gammas, ref):
        assert abs(got - want) <= 1e-12 * scale


def test_pca_and_observed_long_run_variances_agree_in_calibrated_model():
    ratios = []
    for rep in range(30):
        _, panel, fpanel = calibrated_market(200, 300, (41, "pf", rep))
        w = pr.equal_weight(200)
        sf = pr.autocov_factor(pr.ols_factor_fit(panel, fpanel), w, L=5).sigma2
        sp = pr.autocov_poet(pr.pca_factor_fit(panel, 3), w, L=5).sigma2
        ratios.append(sp / sf)
    med = float(np.median(ratios))
    assert 0.95 <= med <= 1.05


# -------------------------------------------------------------------- hclub

def test_hclub_worked_example():
    lrv = pr.LongRunVariance(gammas=(4.0,), L=0, sigma2=4.0)
    got = pr.hclub(lrv, T=400, tau=0.05, variance_estimate=0.01, kind="sample")
    assert got.u_variance == pytest.approx(0.196, abs=5e-4)
    assert got.u_variance == pytest.approx(pr.normal_upper_quantile(0.025) * 0.1,
                                           abs=1e-12)
    assert got.u_risk == pytest.approx(0.98, abs=3e-3)
    assert got.u_risk == pytest.approx(got.u_variance / 0.2, abs=1e-12)
    rounded = pr.hclub(lrv, T=400, tau=0.05, variance_estimate=0.01,
                       kind="sample", paper_z=True)
    assert rounded.u_variance == pytest.approx(0.2, abs=1e-15)
    assert rounded.u_risk == pytest.approx(1.0, abs=1e-12)
    assert rounded.z == 2.0


def test_hclub_zero_sigma_and_domain():
    lrv = pr.LongRunVariance(gammas=(0.0,), L=0, sigma2=0.0)
    got = pr.hclub(lrv, T=100, tau=0.05, variance_estimate=0.04, kind="poet")
    assert got.u_variance == 0.0 and got.u_risk == 0.0
    with pytest.raises(pr.DataError):
        pr.hclub(lrv, T=100, tau=0.05, variance_estimate=0.0, kind="poet")
    with pytest.raises(pr.DataError):
        pr.hclub(lrv, T=100, tau=1.5, variance_estimate=0.04, kind="poet")


def test_hclub_monotone_in_tau():
    lrv = pr.LongRunVariance(gammas=(1.0,), L=0, sigma2=1.0)
    u1 = pr.hclub(lrv, 100, 0.01, 0.04, "sample").u_variance
    u5 = pr.hclub(lrv, 100, 0.05, 0.04, "sample").u_variance
    u20 = pr.hclub(lrv, 100, 0.20, 0.04, "sample").u_variance
    assert u1 > u5 > u20 > 0


def test_negative_truncated_sum_clamps_and_warns():
    # alternating series: the squared series has strong negative lag-1
    # autocovariance, so gamma(0) + 2 gamma(1) < 0
    values = np.where(np.arange(50) % 2 == 0, 1.0, 2.0)[:, None]
    panel = make_panel(values)
    with pytest.warns(RuntimeWarning, match="clamped"):
        lrv = pr.autocov_sample(panel, np.array([1.0]), L=1, demean=False)
    assert lrv.clamped
    assert lrv.sigma2 == 0.0
    assert lrv.gammas[0] > 0 > lrv.gammas[1]


def test_clamped_warning_points_at_the_caller():
    # each one-portfolio function warns once of its clamp, and the warning
    # names its caller; the batch functions mark the clamp and do not warn
    values = np.where(np.arange(50) % 2 == 0, 1.0, 2.0)[:, None] * np.ones(2)
    panel = make_panel(values)
    w = pr.equal_weight(2)
    _, market, fpanel = calibrated_market(4, 20, 0)
    calls = {
        "autocov_sample": lambda: pr.autocov_sample(panel, w, L=1, demean=False),
        "autocov_factor": lambda: pr.autocov_factor(pr.ols_factor_fit(market, fpanel),
                                                    pr.equal_weight(4), L=9),
        "autocov_poet": lambda: pr.autocov_poet(pr.pca_factor_fit(panel, 1, demean=False), w, L=1),
    }
    for name, call in calls.items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert call().clamped, name
        assert [(c.category, c.filename) for c in caught] == [(RuntimeWarning, __file__)], name

    fitted = pr.EstimatorSpec("sample", demean=False).fit(panel)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, clamped = pr.long_run_variances(*fitted.series(w.weights[:, None]), 1)
        *_, clamped_b = fitted.assess(w.weights[:, None], 1, 2.0)
    assert clamped.tolist() == clamped_b.tolist() == [True]


def _lrv_columns(T, P, seed):
    """P test series; every other column alternates so L odd clamps it."""
    rng = np.random.default_rng(seed)
    series = rng.standard_normal((T, P)) * rng.uniform(0.1, 10.0, size=P)
    alternating = np.where(np.arange(T) % 2 == 0, 1.0, 2.0)
    series[:, 1::2] = alternating[:, None] * rng.uniform(0.5, 2.0, size=P // 2)
    centers = (series * series).mean(axis=0) * rng.uniform(0.5, 1.5, size=P)
    return series, centers


@settings(max_examples=60, deadline=None)
@given(T=st.integers(2, 40), P=st.integers(1, 6), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_long_run_variances_match_brute_force(T, P, data, seed):
    L = data.draw(st.integers(0, T - 1), label="L")
    series, centers = _lrv_columns(T, P, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gammas, sigma2, clamped = pr.long_run_variances(series, centers, L)
    assert gammas.shape == (L + 1, P) and sigma2.shape == clamped.shape == (P,)
    eps = np.finfo(float).eps
    for j in range(P):
        want = oracles.brute_force_gammas(series[:, j], float(centers[j]), L)
        q = np.abs(series[:, j] ** 2 - centers[j])
        for h in range(L + 1):
            # a T-term sum of products: forward error below ~T eps times
            # the sum of the magnitudes
            tol = 4 * T * eps * float(q[: T - h] @ q[h:]) / T
            assert abs(gammas[h, j] - want[h]) <= tol
        raw = oracles.brute_force_sigma2(series[:, j], float(centers[j]), L)
        tol = 4 * T * eps * (2 * L + 1) * float(q @ q) / T
        assert abs(sigma2[j] - max(raw, 0.0)) <= tol
        if abs(raw) > tol:
            assert clamped[j] == (raw < 0)
    assert np.all(sigma2[clamped] == 0.0)


def test_long_run_variances_mark_clamped_columns_without_warning():
    series, centers = _lrv_columns(40, 6, 7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, sigma2, clamped = pr.long_run_variances(series, centers, 1)
    assert clamped.tolist() == [False, True] * 3
    assert np.all(sigma2[clamped] == 0.0)


def _loop_lrv(series, center, L):
    """Per-portfolio reference: one dot product per lag, summed in order."""
    T = series.shape[0]
    q = series * series - center
    gammas = [float(q[: T - h] @ q[h:]) / T for h in range(L + 1)]
    return gammas, max(gammas[0] + 2.0 * sum(gammas[1:]), 0.0)


def _lone_product(matrix, v):
    """matrix @ v as the series kernel computes it: v is the first row of
    a 16-row block padded with zeros, and its column comes back as a
    contiguous copy (a strided column passed to @ rounds differently)."""
    block = np.zeros((16, v.shape[0]))
    block[0] = v
    return np.ascontiguousarray((matrix @ block.T)[:, 0])


def test_batched_lrvs_equal_the_per_portfolio_loop():
    # the arithmetic is unchanged by batching, so every column must match
    # the per-portfolio computation bit for bit, as must the P=1 callers
    _, panel, fpanel = calibrated_market(30, 80, 167)
    W = pr.sample_random_weights(30, 1.6, pr.derive_rng(167, "batch-lrv"), 9)
    factor = pr.ols_factor_fit(panel, fpanel)
    poet = pr.pca_factor_fit(panel, 3)
    X = panel.demeaned_values

    def sample_ref(w):
        p = _lone_product(X, w)
        return p, float(p @ p) / panel.T

    def factor_ref(w):
        b = _lone_product(factor.loadings.T, w)
        return _lone_product(factor.factors, b), float(b @ factor.factor_cov @ b)

    def poet_ref(w):
        b = _lone_product(poet.loadings.T, w)
        return _lone_product(poet.factors, b), float(b @ b)

    cases = [
        (total_return_series(panel, W), sample_ref, lambda w: pr.autocov_sample(panel, w, L=4)),
        (systematic_return_series(factor, W), factor_ref,
         lambda w: pr.autocov_factor(factor, w, L=4)),
        (systematic_return_series(poet, W), poet_ref, lambda w: pr.autocov_poet(poet, w, L=4)),
    ]
    for (series, centers), reference, single in cases:
        gammas, sigma2, clamped = pr.long_run_variances(series, centers, 4)
        for j in range(W.shape[1]):
            w = W[:, j].copy()
            ref_gammas, ref_sigma2 = _loop_lrv(*reference(w), 4)
            assert gammas[:, j].tolist() == ref_gammas
            assert sigma2[j] == ref_sigma2
            one = single(w)
            assert list(one.gammas) == ref_gammas and one.sigma2 == ref_sigma2
            assert one.clamped == clamped[j]


@pytest.mark.parametrize("T, N", [(300, 600), (80, 30)])
def test_series_columns_do_not_depend_on_the_batch(T, N):
    # a portfolio's series and center are the same bits whether it comes
    # alone or at offset 0, 1 or 7 of a batch of P, for P on both sides
    # of the 16-portfolio block and at the simulation's 200; the systematic
    # series go through the 3 x N loadings and the T x 3 factors
    rng = np.random.default_rng([T, N])
    panel = make_panel(rng.standard_normal((T, N)))
    fpanel = make_factor_panel(rng.standard_normal((T, 3)))
    series_of = [partial(total_return_series, panel),
                 partial(systematic_return_series, pr.ols_factor_fit(panel, fpanel)),
                 partial(systematic_return_series, pr.pca_factor_fit(panel, 3))]
    w = pr.sample_random_weights(N, 1.6, pr.derive_rng(171, "lone", N), 1)
    for series in series_of:
        lone_series, lone_center = series(w)
        for P in (1, 15, 16, 17, 40, 200):
            for offset in (0, 1, 7):
                if offset >= P:
                    continue
                W = pr.sample_random_weights(N, 1.6, pr.derive_rng(171, "batch", N, P), P)
                W[:, offset] = w[:, 0]
                batch_series, batch_center = series(W)
                assert np.array_equal(batch_series[:, offset], lone_series[:, 0])
                assert batch_center[offset] == lone_center[0]


def test_sigma2_scale_equivariance():
    _, panel, _ = calibrated_market(10, 60, 163)
    w = pr.equal_weight(10)
    base = pr.autocov_sample(panel, w, L=5)
    scaled_panel = make_panel(panel.values * 100.0)
    scaled = pr.autocov_sample(scaled_panel, w, L=5)
    assert scaled.sigma2 == pytest.approx(base.sigma2 * 100.0 ** 4, rel=1e-8)
    u0 = pr.hclub(base, panel.T, 0.05, 1.0, "sample")
    u1 = pr.hclub(scaled, panel.T, 0.05, 100.0 ** 2, "sample")
    assert u1.u_variance == pytest.approx(u0.u_variance * 100.0 ** 2, rel=1e-8)
    assert u1.u_risk == pytest.approx(u0.u_risk * 100.0, rel=1e-8)


# -------------------------------------------------------------- crude bound

def test_crude_bound_zero_when_estimate_is_truth():
    est = pr.CovarianceEstimate(np.eye(4), "sample")
    cb = pr.crude_bound(pr.equal_weight(4), est, est)
    assert cb.xi == 0.0 and cb.delta == 0.0


def test_crude_bound_formula_and_inequality():
    rng = pr.derive_rng(165, "crude")
    for _ in range(200):
        A = rng.standard_normal((5, 5))
        truth = A @ A.T + 5 * np.eye(5)
        E = 0.2 * rng.standard_normal((5, 5))
        est = truth + (E + E.T) / 2
        w = pr.sample_random_portfolio(5, 2.0, rng)
        cb = pr.crude_bound(w, est, truth)
        max_err = oracles.max_abs_entry_diff(est, truth)
        gross = float(np.abs(w.weights).sum())
        assert cb.xi == pytest.approx(gross ** 2 * max_err, rel=1e-12)
        diff = est - truth
        assert cb.delta == pytest.approx(abs(w.weights @ diff @ w.weights), rel=1e-12)
        assert cb.xi >= cb.delta


def test_crude_bound_accepts_estimates_and_arrays():
    truth = np.diag([1.0, 2.0])
    est = pr.CovarianceEstimate(np.diag([1.5, 2.0]), "sample")
    w = np.array([0.5, 0.5])
    a = pr.crude_bound(w, est, truth)
    b = pr.crude_bound(w, est.matrix, truth)
    assert a == b
    assert a.xi == pytest.approx(0.5)
    assert a.delta == pytest.approx(0.125)
    with pytest.raises(pr.DataError):
        pr.crude_bound(np.ones(3), est, truth)


# ---------------------------------------------------------------- RE ratios

def test_re_ratios_definitions():
    u = pr.HclubResult(tau=0.05, z=2.0, u_variance=0.04, u_risk=0.1,
                       estimator_kind="sample")
    re1, re2 = pr.re_ratios(0.04, u, true_variance=0.02)
    assert re1 == 1.0
    assert re2 == pytest.approx(0.04 / 0.08)
    re1b, _ = pr.re_ratios(0.12, u, true_variance=0.02)
    assert re1b == pytest.approx(3.0)


def test_re_ratios_zero_denominators():
    dead = pr.HclubResult(tau=0.05, z=2.0, u_variance=0.0, u_risk=0.0,
                          estimator_kind="sample")
    with pytest.raises(pr.DataError):
        pr.re_ratios(0.1, dead, 0.02)
    live = pr.HclubResult(tau=0.05, z=2.0, u_variance=0.1, u_risk=0.1,
                          estimator_kind="sample")
    with pytest.raises(pr.DataError):
        pr.re_ratios(0.1, live, 0.0)


# ------------------------------------------------------------ estimator spec

SPEC_VARIANTS = {
    "default": {},
    # hard thresholding leaves both the factor and the POET estimate of this
    # wide panel indefinite, so the repair runs for both
    "ensure_pd": {"ensure_pd": True, "rule": "hard"},
    "auto_K": {"K": None},
    "no_demean": {"demean": False},
}


def _direct_estimate(name, settings, panel, fpanel):
    """The estimate and single-portfolio LRV, from the public functions alone."""
    demean = settings.get("demean", True)
    rule = pr.ThresholdRule(settings.get("rule", "hard" if name == "factor" else "soft"))
    if name == "sample":
        return (pr.sample_covariance(panel, demean),
                lambda w, L: pr.autocov_sample(panel, w, L, demean=demean))
    if name == "factor":
        fit = pr.ols_factor_fit(panel, fpanel)
        est = pr.factor_covariance(fit, rule, 0.1 * fpanel.K)
        autocov = pr.autocov_factor
    else:
        K = 3
        if settings.get("K", 3) is None:
            K = pr.select_num_factors(panel, min(8, min(panel.N, panel.T) - 1), demean=demean)
        fit = pr.pca_factor_fit(panel, K, demean=demean)
        est = pr.poet_covariance(panel, K, rule, 0.5, demean=demean, fit=fit)
        autocov = pr.autocov_poet
    if settings.get("ensure_pd"):
        est = pr.ensure_positive_definite(est)
    return est, lambda w, L: autocov(fit, w, L)


@pytest.mark.filterwarnings("ignore:truncated long-run variance")
@pytest.mark.parametrize("variant", sorted(SPEC_VARIANTS))
@pytest.mark.parametrize("name", ["sample", "factor", "poet"])
def test_estimator_spec_equals_the_public_functions(name, variant):
    settings = SPEC_VARIANTS[variant]
    _, panel, fpanel = calibrated_market(60, 40, 2)
    spec = pr.EstimatorSpec(name, **settings)
    fitted = spec.fit(panel, fpanel)
    est, autocov = _direct_estimate(name, settings, panel, fpanel)
    assert fitted.estimate.kind == est.kind == name
    assert fitted.estimate.matrix.tobytes() == est.matrix.tobytes()
    if variant == "ensure_pd" and name != "sample":
        assert fitted.estimate.tuning["C"] > 0.5  # the repair ran
    if variant == "auto_K" and name == "poet":
        assert fitted.estimate.tuning["K"] == 2  # not the fixed K=3

    W = pr.sample_random_weights(60, 1.6, pr.derive_rng(3, "spec-parity"), 6)
    W[:, 0] = 1.0 / 60
    L, tau = 6, 0.05
    series, centers = fitted.series(W)
    gammas, sigma2, clamped = pr.long_run_variances(series, centers, L)
    variances, sigma2_b, u_variance, clamped_b = fitted.assess(W, L, pr.hclub_z(tau))
    assert sigma2_b.tobytes() == sigma2.tobytes()
    assert clamped_b.tolist() == clamped.tolist()
    # the sample variances are the series centers, the others quadratic forms
    quad_forms = _quad_forms(est.matrix, W)
    assert variances.tobytes() == (centers if name == "sample" else quad_forms).tobytes()
    np.testing.assert_allclose(variances, quad_forms, rtol=1e-12, atol=0)
    for j in range(W.shape[1]):
        want = autocov(W[:, j].copy(), L)
        bound = pr.hclub(want, panel.T, tau, float(variances[j]), name)
        _, s2, u, c = fitted.assess(W[:, j:j + 1].copy(), L, pr.hclub_z(tau))
        assert (s2[0], u[0], c[0]) == (want.sigma2, bound.u_variance, want.clamped)
        assert u_variance[j] == bound.u_variance
        assert tuple(gammas[:, j].tolist()) == want.gammas
        assert (sigma2[j], bool(clamped[j])) == (want.sigma2, want.clamped)


def test_estimator_spec_rejects_invalid_settings_up_front():
    for kwargs, message in (
        (dict(name="ridge"), "unknown estimator"),
        (dict(name="factor", rule="bogus"), "unknown threshold rule"),
        (dict(name="poet", rule="bogus"), "unknown threshold rule"),
        (dict(name="factor", C=-1.0), "C=-1.0"),
        (dict(name="poet", C=float("nan")), "C=nan"),
        (dict(name="poet", K=0), "K=0"),
        (dict(name="poet", K=None, k_max=0), "k_max=0"),
    ):
        with pytest.raises(pr.DataError, match=message):
            pr.EstimatorSpec(**kwargs)
    # settings an estimator does not use are not checked
    pr.EstimatorSpec("sample", rule="bogus", C=-1.0, K=0)
    pr.EstimatorSpec("factor", K=0)
    with pytest.raises(pr.DataError, match="observed-factor panel"):
        pr.EstimatorSpec("factor").fit(calibrated_market(6, 30, 1)[1])


@pytest.mark.parametrize("name", ["factor", "poet"])
def test_an_empty_threshold_rule_is_not_the_default(name):
    # only None selects the default rule; "" used to become it silently
    with pytest.raises(pr.DataError, match="unknown threshold rule ''"):
        pr.EstimatorSpec(name, rule="")


def test_estimator_specs_are_hashable_cache_keys():
    a = pr.EstimatorSpec("poet", rule="soft", C=0.5, K=3)
    assert a == pr.EstimatorSpec("poet", rule="soft", C=0.5, K=3)
    assert {a: 1}[pr.EstimatorSpec("poet", rule="soft", C=0.5, K=3)] == 1
    assert a != pr.EstimatorSpec("poet", rule="soft", C=0.5, K=2)


def test_default_settings_and_spelled_out_defaults_give_one_spec():
    # a None rule or C used to stay None, so a spec built with the defaults
    # spelled out was a different cache key for the same estimator
    poet = pr.EstimatorSpec("poet", rule="soft", C=0.5)
    assert pr.EstimatorSpec("poet") == poet
    assert hash(pr.EstimatorSpec("poet")) == hash(poet)
    assert pr.EstimatorSpec("factor", rule="hard") == pr.EstimatorSpec("factor")
    assert pr.EstimatorSpec("poet", C=0.4) != poet
    assert pr.EstimatorSpec("factor", rule="soft") != pr.EstimatorSpec("factor")
    # factor's C scales with the observed factors, so it resolves at fit time
    assert pr.EstimatorSpec("factor").C is None


def test_config_dataclasses_build_the_default_specs():
    specs = tuple(pr.EstimatorSpec(name) for name in ESTIMATOR_NAMES)
    assert pr.ExperimentCell(N=10, T=20, c=1.0)._specs == specs
    assert pr.BacktestConfig()._specs == tuple(
        pr.EstimatorSpec(name, ensure_pd=True) for name in ESTIMATOR_NAMES)


def test_public_names_resolve():
    for name in pr.__all__:
        assert getattr(pr, name) is not None, name
    assert not hasattr(pr, "ExposureSpec")
    assert not hasattr(pr.portfolios, "ExposureSpec")
