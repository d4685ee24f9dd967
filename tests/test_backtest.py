"""Rolling-window study: window arithmetic, records, aggregates, skips."""

import contextlib
import io
import math
import warnings

import numpy as np
import pytest

import portrisk as pr
from helpers import calibrated_market
from portrisk.blas import single_thread
from portrisk.cli import _warn_of_degenerate_cases
from portrisk.simulation import generate_var1_factors


def _market(N, T, seed):
    params = pr.default_calibration()
    rng = pr.derive_rng(seed, "bt")
    inst = pr.build_model_instance(params, N, rng)
    F = generate_var1_factors(params, T, rng)
    U = rng.standard_normal((T, N)) @ np.linalg.cholesky(inst.Sigma_u).T
    dates = tuple(f"d{t:04d}" for t in range(T))
    returns = pr.ReturnsPanel(dates, tuple(f"a{i:02d}" for i in range(N)),
                              F @ inst.B.T + U)
    factors = pr.FactorPanel(dates, ("f1", "f2", "f3"), F)
    return returns, factors


CONFIG = pr.BacktestConfig(estimation_window=60, holding_window=21,
                           exposures=(1.0, 1.6), L=3, poet_K=2)


@pytest.fixture(scope="module")
def small_study():
    returns, factors = _market(12, 128, 231)
    report = pr.run_empirical_study(returns, factors, CONFIG)
    return returns, factors, report


def test_annualize_risk():
    assert pr.annualize_risk(1.0, 252.0) == math.sqrt(252.0)
    assert pr.annualize_risk(0.5, 4.0) == 1.0
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(pr.DataError, match="finite positive"):
            pr.annualize_risk(1.0, bad)


def test_backtest_config_validation():
    with pytest.raises(pr.DataError):
        pr.BacktestConfig(estimation_window=1)
    with pytest.raises(pr.DataError):
        pr.BacktestConfig(holding_window=0)
    with pytest.raises(pr.DataError):
        pr.BacktestConfig(estimators=())
    with pytest.raises(pr.DataError, match="unknown estimator"):
        pr.BacktestConfig(estimators=("sample", "lw"))
    with pytest.raises(pr.DataError):
        pr.BacktestConfig(tau=0.0)
    with pytest.raises(pr.DataError):
        pr.BacktestConfig(exposures=(1.0, 0.5))
    with pytest.raises(pr.DataError):
        pr.BacktestConfig(estimation_window=60, L=60)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(pr.DataError, match="periods_per_year"):
            pr.BacktestConfig(periods_per_year=bad)


def test_backtest_config_rejects_repeated_estimator():
    # a repeated estimator used to print every row twice with doubled counts
    with pytest.raises(pr.DataError, match="twice.*'sample'"):
        pr.BacktestConfig(estimators=("sample", "factor", "sample"))


@pytest.mark.parametrize("kwargs, message", [
    (dict(poet_K=0), "K=0"), (dict(factor_rule="bogus"), "'bogus'"),
    (dict(poet_rule="bogus"), "'bogus'"), (dict(poet_C=-1.0), "C=-1.0"),
    (dict(factor_C=-0.5), "C=-0.5"), (dict(poet_K=None, poet_k_max=0), "k_max=0"),
])
def test_invalid_estimator_settings_fail_before_any_window(kwargs, message, monkeypatch):
    # these used to skip every window with one warning each
    def no_window(*args, **kw):
        raise AssertionError("a window was estimated")

    monkeypatch.setattr(pr.EstimatorSpec, "fit", no_window)
    with pytest.raises(pr.DataError, match=message):
        pr.BacktestConfig(**kwargs)
    # the settings of an estimator the study does not run are not used
    unused = "poet" if "poet" in next(iter(kwargs)) else "factor"
    kept = tuple(e for e in pr.BacktestConfig().estimators if e != unused)
    assert pr.BacktestConfig(estimators=kept, **kwargs).estimators == kept


def test_poet_factor_count_that_cannot_fit_fails_before_any_window(monkeypatch):
    # K=12 on 12 assets used to skip all 9 (window, strategy, estimator)
    # cases and leave empty tables; K must be at most min(N, window) - 1
    def no_window(*args, **kw):
        raise AssertionError("a window was estimated")

    monkeypatch.setattr(pr.EstimatorSpec, "fit", no_window)
    returns, factors = _market(12, 30 + 3 * 10, 243)
    for N, W, K in ((12, 30, 12), (12, 8, 8)):
        cfg = pr.BacktestConfig(estimation_window=W, holding_window=10, estimators=("poet",),
                                poet_K=K, L=2)
        with pytest.raises(pr.DataError, match=rf"\[1, {min(N, W) - 1}\] for N={N} assets "
                                               rf"over T={W} periods, got K={K}"):
            pr.run_empirical_study(returns, factors, cfg)


def test_backtest_config_rejects_nan_exposure():
    # a NaN budget used to pass and then skip every min-variance window
    for exposures in ((float("nan"),), (1.0, float("nan")), (float("-inf"),)):
        with pytest.raises(pr.DataError, match="c=(nan|-inf)"):
            pr.BacktestConfig(exposures=exposures)


def test_window_arithmetic_and_dates(small_study):
    returns, _, report = small_study
    # (128 - 60) // 21 = 3 rebalances; the last 5 rows stay unused
    assert report.n_rebalances == 3
    assert report.n_assets == 12
    assert report.first_hold_date == returns.dates[60]
    assert report.last_date == returns.dates[60 + 3 * 21 - 1]
    assert report.skipped == ()
    # 3 windows x 3 strategies x 3 estimators
    assert len(report.records) == 27
    strategies = {r.strategy for r in report.records}
    assert strategies == {"equal", "minvar_c1", "minvar_c1.6"}


def test_record_level_identities(small_study):
    returns, _, report = small_study
    for rec in report.records:
        assert rec.risk_hat == pytest.approx(math.sqrt(rec.variance_hat), rel=1e-15)
        assert rec.realized_risk == pytest.approx(
            math.sqrt(max(rec.realized_variance, 0.0)), rel=1e-15)
        assert rec.risk_error == pytest.approx(
            abs(rec.realized_risk - rec.risk_hat), rel=1e-15)
        assert rec.covered == (
            abs(rec.realized_variance - rec.variance_hat) <= rec.u_variance)
        assert rec.u_risk <= rec.u_variance or rec.variance_hat < 1.0
    for rec in report.records:
        if rec.strategy == "equal":
            assert rec.gross == pytest.approx(1.0, abs=1e-12)
        elif rec.strategy == "minvar_c1.6":
            assert rec.gross <= 1.6 + 1e-9


def test_equal_weight_row_recomputes_from_the_panel(small_study):
    returns, _, report = small_study
    rec = next(r for r in report.records
               if r.index == 0 and r.strategy == "equal" and r.estimator == "sample")
    w = np.full(12, 1.0 / 12.0)
    window = returns.values[0:60]
    demeaned = window - window.mean(axis=0)
    S = demeaned.T @ demeaned / 60
    assert rec.variance_hat == pytest.approx(float(w @ S @ w), rel=1e-12)
    hold = returns.values[60:81]
    uncentered = hold.T @ hold / 21
    assert rec.realized_variance == pytest.approx(float(w @ uncentered @ w),
                                                  rel=1e-12)
    assert rec.hold_start == returns.dates[60]


def test_aggregates_recompute_from_records(small_study):
    _, _, report = small_study
    agg = report.aggregate("minvar_c1", "poet")
    rows = [r for r in report.records
            if r.strategy == "minvar_c1" and r.estimator == "poet"]
    assert agg.n_windows == len(rows) == 3
    ppy = report.config.periods_per_year
    assert agg.mean_risk_hat_annual == pytest.approx(
        np.mean([r.risk_hat for r in rows]) * math.sqrt(ppy), rel=1e-12)
    assert agg.mean_realized_risk_annual == pytest.approx(
        np.mean([r.realized_risk for r in rows]) * math.sqrt(ppy), rel=1e-12)
    assert agg.mean_estimated_error_annual == pytest.approx(
        np.mean([r.u_risk for r in rows]) * math.sqrt(ppy), rel=1e-12)
    assert agg.mean_realized_error_annual == pytest.approx(
        np.mean([r.risk_error for r in rows]) * math.sqrt(ppy), rel=1e-12)
    assert 0.0 <= agg.coverage <= 1.0
    with pytest.raises(KeyError):
        report.aggregate("equal", "ridge")


def test_factor_estimator_requires_factor_panel():
    returns, _ = _market(8, 128, 233)
    with pytest.raises(pr.DataError, match="observed-factor panel"):
        pr.run_empirical_study(returns, None, CONFIG)
    # dropping the factor estimator lifts the requirement
    cfg = pr.BacktestConfig(estimation_window=60, holding_window=21,
                            estimators=("sample",), L=3)
    report = pr.run_empirical_study(returns, None, cfg)
    assert report.n_rebalances == 3


def test_panel_too_short():
    returns, factors = _market(5, 80, 235)
    with pytest.raises(pr.DataError, match="need at least 81"):
        pr.run_empirical_study(returns, factors, CONFIG)


def _study(returns, factors, config):
    """The report of the study, which must not warn, and the one warning
    line the command line prints from it ('' if none)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = pr.run_empirical_study(returns, factors, config)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        _warn_of_degenerate_cases(report)
    return report, err.getvalue()


def test_singular_windows_are_skipped_with_warnings():
    # N above the window length makes the sample covariance singular, so
    # the min-variance solve fails while equal-weight rows still assess;
    # the report carries the skip, and the command line warns of it
    returns, _ = _market(30, 46, 237)
    cfg = pr.BacktestConfig(estimation_window=25, holding_window=21,
                            estimators=("sample",), exposures=(1.5,), L=2)
    report, warning = _study(returns, None, cfg)
    assert report.n_rebalances == 1
    assert [r.strategy for r in report.records] == ["equal"]
    assert len(report.skipped) == 1
    skip = report.skipped[0]
    assert (skip.strategy, skip.estimator, skip.error) == ("minvar_c1.5", "sample",
                                                           "NumericalError")
    assert "positive definite" in skip.reason
    assert all(a.strategy == "equal" for a in report.aggregates)
    assert warning == (
        "warning: skipped 1 of 2 (window, strategy, estimator) cases: "
        "1 minvar_c1.5/sample NumericalError; "
        f"the first, window 0 minvar_c1.5/sample: {skip.reason}\n")


def test_skipped_cases_are_summarized_in_one_warning():
    # 100 assets over 60-period windows: every sample min-variance solve
    # fails.  The study used to warn once per skipped case, then once per
    # study; now the report carries them and the command line prints the
    # one line the study used to warn with
    returns, factors = _market(100, 60 + 3 * 21, 241)
    report, warning = _study(returns, factors, CONFIG)
    # 3 windows x 2 min-variance strategies for the sample estimator
    assert [(s.index, s.strategy, s.estimator, s.error) for s in report.skipped] == [
        (r, strategy, "sample", "NumericalError") for r in range(3)
        for strategy in ("minvar_c1", "minvar_c1.6")]
    assert report.n_rebalances * (1 + len(CONFIG.exposures)) * len(CONFIG.estimators) == 27
    assert warning == (
        "warning: skipped 6 of 27 (window, strategy, estimator) cases: "
        "3 minvar_c1/sample NumericalError, 3 minvar_c1.6/sample NumericalError; "
        f"the first, window 0 minvar_c1/sample: {report.skipped[0].reason}\n")


def test_poet_reselects_factor_count_when_unpinned():
    returns, factors = _market(10, 102, 239)
    cfg = pr.BacktestConfig(estimation_window=60, holding_window=21,
                            estimators=("poet",), exposures=(1.0,),
                            poet_K=None, poet_k_max=5, L=3)
    report = pr.run_empirical_study(returns, factors, cfg)
    assert report.n_rebalances == 2
    assert {r.estimator for r in report.records} == {"poet"}
    assert report.aggregate("equal", "poet").n_windows == 2


@pytest.mark.parametrize("exposures", [(1.2345678, 1.2345679), (1.6, 1.6)])
def test_exposures_sharing_a_label_are_rejected(exposures):
    # both would be reported as one minvar_c label with doubled windows
    with pytest.raises(pr.DataError, match="label"):
        pr.BacktestConfig(exposures=exposures)


def test_min_variance_gets_the_exposure_itself(monkeypatch):
    # the label rounds c to six digits; the solver must see c unrounded
    seen = []
    solve = pr.backtest.min_variance

    def spy(est, c):
        seen.append(c)
        return solve(est, c)

    monkeypatch.setattr(pr.backtest, "min_variance", spy)
    returns, factors = _market(8, 81, 241)
    cfg = pr.BacktestConfig(estimation_window=60, holding_window=21,
                            estimators=("factor",), exposures=(1.23456789,), L=3)
    report = pr.run_empirical_study(returns, factors, cfg)
    assert seen == [1.23456789]
    assert [r.strategy for r in report.records] == ["equal", "minvar_c1.23457"]


@pytest.mark.parametrize("N, window", [(40, 60), (40, 30)])
def test_batched_records_equal_the_one_portfolio_path(N, window):
    # the study assesses a (window, estimator)'s books as one batch; each
    # record must carry the bound its portfolio gets alone
    H = 10
    returns, factors = _market(N, window + 3 * H, 57)
    cfg = pr.BacktestConfig(estimation_window=window, holding_window=H,
                            exposures=(1.0, 1.6, 2.0), L=3)
    report = pr.run_empirical_study(returns, factors, cfg)
    assert {(r.strategy, r.estimator) for r in report.records} >= {
        (s, e) for s in ("equal", "minvar_c1", "minvar_c2") for e in ("factor", "poet")}
    specs = dict(zip(cfg.estimators, cfg._specs))
    exposures = {f"minvar_c{c:g}": c for c in cfg.exposures}
    for rec in report.records:
        lo, mid = rec.index * H, rec.index * H + window
        with single_thread():
            fitted = specs[rec.estimator].fit(returns.slice_rows(lo, mid),
                                              factors.slice_rows(lo, mid))
            pf = (pr.equal_weight(N) if rec.strategy == "equal"
                  else pr.min_variance(fitted.estimate, exposures[rec.strategy]))
        gammas, sigma2, clamped = pr.long_run_variances(*fitted.series(pf.weights[:, None]),
                                                        cfg.L)
        lrv = pr.LongRunVariance(tuple(gammas[:, 0]), cfg.L, float(sigma2[0]),
                                 bool(clamped[0]))
        vhat = pr.portfolio_variance(fitted.estimate, pf)
        bound = pr.hclub(lrv, window, cfg.tau, vhat, fitted.estimate.kind, cfg.paper_z)
        assert (rec.sigma2_hat, rec.u_variance, rec.clamped) == \
            (lrv.sigma2, bound.u_variance, lrv.clamped)
        assert rec.variance_hat == pytest.approx(vhat, rel=1e-12, abs=0)


def test_clamped_long_run_variances_are_counted_in_the_one_warning():
    # the study used to warn once per clamped long-run variance, 62 times
    # here, then once per study; the records carry the 62 and the command
    # line prints them in one line
    _, returns, factors = calibrated_market(10, 300, 17)
    cfg = pr.BacktestConfig(estimation_window=30, holding_window=10, L=8)
    report, warning = _study(returns, factors, cfg)
    assert sum(r.clamped for r in report.records) == 62 and not report.skipped
    assert len(report.records) == 243
    assert all(r.sigma2_hat == 0.0 for r in report.records if r.clamped)
    assert warning == (
        "warning: truncated long-run variance was negative for 62 of 243 portfolio "
        "assessments; clamped to 0\n")


def test_clamped_and_skipped_cases_share_the_one_warning():
    returns, factors = _market(100, 60 + 3 * 21, 241)
    cfg = pr.BacktestConfig(estimation_window=60, holding_window=21,
                            exposures=(1.0, 1.6), L=20, poet_K=2)
    report, warning = _study(returns, factors, cfg)
    assert (sum(r.clamped for r in report.records), len(report.records)) == (4, 21)
    assert len(report.skipped) == 6
    assert warning == (
        "warning: truncated long-run variance was negative for 4 of 21 portfolio "
        "assessments; clamped to 0; skipped 6 of 27 (window, strategy, estimator) cases: "
        "3 minvar_c1/sample NumericalError, 3 minvar_c1.6/sample NumericalError; "
        f"the first, window 0 minvar_c1/sample: {report.skipped[0].reason}\n")


def test_wide_study_decomposes_and_solves_each_kept_estimate_once(monkeypatch):
    # the shape of perfbench's backtest_wide: N=300, two 252-period windows.
    # Per window the sample estimate is singular and the factor estimate is
    # repaired from C=0.3 over 0.6 to 1.2; failed Cholesky factorizations
    # reject those without eigvalsh, and the exposures of an estimate share
    # one solve of M w = 1.  Before, the study ran eigvalsh 10 times and
    # that solve 12 times
    _, returns, factors = calibrated_market(300, 252 + 2 * 21, 31)
    calls = {"eigvalsh": 0, "solve": 0, "cholesky": 0}

    def counted(name, real):
        def call(m, *args, **kwargs):
            if m.shape == (300, 300) and (name != "solve" or np.ndim(args[0]) == 1):
                calls[name] += 1
            return real(m, *args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    cfg = pr.BacktestConfig(estimation_window=252, holding_window=21,
                            exposures=(1.0, 1.6, 2.0))
    report = pr.run_empirical_study(returns, factors, cfg)
    assert len(report.skipped) == 6
    assert calls == {"eigvalsh": 4, "solve": 4, "cholesky": 10}
    assert len(report.records) == 18


def test_wide_study_solves_each_kkt_system_once(monkeypatch):
    # the same study: the active-set finish returns the weights of the
    # step on which the support settles instead of solving that support's
    # KKT system again to certify it.  Of the 73 solves, 4 are the GMV
    # solves of the test above, 2 the factor regressions and 67 KKT
    # systems.  Started from the projected unconstrained weights rather
    # than from 25 APG iterations it takes 67 systems, not 58, but runs no
    # APG iteration; with a separate certifying solve the study made 76
    # solves, 12 of them repeats
    import portrisk.portfolios as pf

    _, returns, factors = calibrated_market(300, 252 + 2 * 21, 31)
    solves, systems = [0], []
    real_solve, real_kkt = np.linalg.solve, pf._kkt_solve

    def solve(*args, **kwargs):
        solves[0] += 1
        return real_solve(*args, **kwargs)

    def kkt(M, pattern, c):
        systems.append((M, pattern.copy(), c))
        return real_kkt(M, pattern, c)

    monkeypatch.setattr(np.linalg, "solve", solve)
    monkeypatch.setattr(pf, "_kkt_solve", kkt)
    cfg = pr.BacktestConfig(estimation_window=252, holding_window=21,
                            exposures=(1.0, 1.6, 2.0))
    report = pr.run_empirical_study(returns, factors, cfg)
    assert len(report.skipped) == 6
    assert (solves[0], len(systems)) == (73, 67)
    assert not any(a[0] is b[0] and np.array_equal(a[1], b[1]) and a[2] == b[2]
                   for a, b in zip(systems, systems[1:]))
    assert len(report.records) == 18
