"""Acceptance gate: one test per shipped claim, each printing a PASS line.

Every test here re-measures a headline behavior end to end at its stated
tolerance.  Stochastic checks run at frozen seeds whose margins were
measured in advance; none of them sit near their thresholds.  Run with
-s (or read the captured stdout) for the one-line PASS summaries.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
import portrisk as pr
from helpers import calibrated_market
from portrisk import serialization as ser
from portrisk.estimators import _threshold_values

ROOT = Path(__file__).resolve().parent.parent


def test_criterion_01_equal_weight_example_analytics():
    start = time.monotonic()
    est = pr.CovarianceEstimate(0.04 * np.eye(3), "sample")
    w = pr.equal_weight(3)
    v = pr.portfolio_variance(est, w)
    assert abs(v - 0.04 / 3.0) <= 1e-12

    risk_pct = 100.0 * math.sqrt(v)
    assert abs(risk_pct - 11.55) <= 0.01

    # mean of the uncentered estimator over short mean-zero panels
    rng = pr.derive_rng(11, "accept1")
    dates = tuple(f"t{t:02d}" for t in range(21))
    total = 0.0
    for _ in range(10_000):
        X = 0.2 * rng.standard_normal((21, 3))
        panel = pr.ReturnsPanel(dates, ("a", "b", "c"), X)
        total += pr.portfolio_variance(pr.sample_covariance(panel,
                                                            demean_flag=False), w)
    mean_v = total / 10_000
    rel = abs(mean_v - 0.04 / 3.0) / (0.04 / 3.0)
    assert rel <= 0.02
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"ACCEPTANCE 1: PASS (risk {risk_pct:.4f}%, MC rel err {rel:.4%}, "
          f"{elapsed:.1f}s)")


def test_criterion_02_bound_coverage_across_estimators():
    cell = pr.ExperimentCell(N=100, T=300, c=1.0, portfolios_per_rep=20)
    report = pr.run_experiment([cell], 500, workers=1, base_seed=0)
    coverages = {}
    for agg in report.cells:
        coverages[agg.estimator] = agg.coverage
        assert 0.90 <= agg.coverage <= 0.99, (agg.estimator, agg.coverage)
    assert set(coverages) == {"sample", "factor", "poet"}
    line = ", ".join(f"{k} {v:.3f}" for k, v in coverages.items())
    print(f"ACCEPTANCE 2: PASS (coverage {line})")


def test_criterion_03_crude_to_sharp_bound_ratio():
    cs = (1.0, 1.2, 1.4, 1.6, 1.8, 2.0)
    cells = [pr.ExperimentCell(N=600, T=300, c=c, estimators=("sample",))
             for c in cs]
    report = pr.run_experiment(cells, 100, workers=1, base_seed=0)
    re1 = {agg.c: agg.mean_re1 for agg in report.cells}
    assert 3.5 <= re1[1.0] <= 7.0
    assert 14.0 <= re1[2.0] <= 28.0
    ordered = [re1[c] for c in cs]
    assert all(b > a for a, b in zip(ordered, ordered[1:]))
    print(f"ACCEPTANCE 3: PASS (RE1 c=1 {re1[1.0]:.2f}, c=2 {re1[2.0]:.2f}, "
          f"strictly increasing over {len(cs)} exposures)")


def test_criterion_04_relative_risk_error_bands():
    cells = [pr.ExperimentCell(N=600, T=T, c=1.0, estimators=("sample",))
             for T in (200, 400)]
    report = pr.run_experiment(cells, 100, workers=1, base_seed=0)
    re2 = {agg.T: agg.mean_re2 for agg in report.cells}
    assert 0.038 <= re2[200] <= 0.058
    assert 0.029 <= re2[400] <= 0.041
    assert re2[400] < re2[200]
    print(f"ACCEPTANCE 4: PASS (RE2 {re2[200]:.2%} at T=200, "
          f"{re2[400]:.2%} at T=400)")


def test_criterion_05_diversification_curve_from_shipped_config():
    cfg = pr.parse_grid_config((ROOT / "configs" / "figure1.cfg").read_text())
    report = pr.run_experiment(cfg.cells, cfg.replications, workers=1,
                               base_seed=cfg.base_seed)
    risk = {(agg.N, agg.c): agg.mean_true_risk for agg in report.cells}
    assert risk[(20, 1.0)] > risk[(100, 1.0)] > risk[(300, 1.0)]
    for N in (20, 100, 300):
        assert risk[(N, 4.0)] > risk[(N, 1.0)], N
    ann = math.sqrt(cfg.periods_per_year)
    curve = ", ".join(f"N={N} {risk[(N, 1.0)] * ann:.2f}" for N in (20, 100, 300))
    print(f"ACCEPTANCE 5: PASS (mean risk %/yr at c=1: {curve}; "
          f"c=4 above c=1 everywhere)")


def test_criterion_06_crude_bound_never_undershoots():
    rng = pr.derive_rng(69, "xi")
    draws = 0
    for _ in range(100):
        M = rng.standard_normal((20, 20))
        truth = pr.CovarianceEstimate(M @ M.T + 20 * np.eye(20), "sample")
        E = 0.1 * rng.standard_normal((20, 20))
        est = pr.CovarianceEstimate(truth.matrix + (E + E.T) / 2, "sample")
        for i in range(1000):
            c = (1.0, 1.5, 2.0, 4.0)[i % 4]
            pf = pr.sample_random_portfolio(20, c, rng)
            bound = pr.crude_bound(pf, est, truth)
            assert bound.xi >= bound.delta
            draws += 1
    assert draws == 100_000
    print(f"ACCEPTANCE 6: PASS (xi >= delta on all {draws} draws)")


def test_criterion_07_oracle_parity_suites():
    # fifty random panels against the double-loop autocovariance oracle
    rng = pr.derive_rng(201, "crit7")
    worst = 0.0
    for _ in range(50):
        T = int(rng.integers(20, 101))
        N = int(rng.integers(2, 7))
        X = rng.standard_normal((T, N)) * rng.uniform(0.5, 2.0, N)
        dates = tuple(f"t{t:06d}" for t in range(T))
        panel = pr.ReturnsPanel(dates, tuple(f"a{i:04d}" for i in range(N)), X)
        w = pr.sample_random_portfolio(N, float(rng.uniform(1.0, 2.5)), rng)
        L = int(rng.integers(0, min(8, T - 1)))
        lrv = pr.autocov_sample(panel, w, L=L)
        p = panel.demeaned_values @ w.weights
        center = float(p @ p) / T
        ref = oracles.brute_force_gammas(p, center, L)
        scale = max(max(abs(g) for g in ref), 1e-300)
        for got, want in zip(lrv.gammas, ref):
            worst = max(worst, abs(got - want) / scale)
    assert worst <= 1e-12

    # scaling returns by s multiplies the long-run variance by s^4
    _, panel, _ = calibrated_market(20, 150, (203, "scale7"))
    w = pr.sample_random_portfolio(20, 1.5, pr.derive_rng(203, "scalew"))
    base = pr.autocov_sample(panel, w, L=5).sigma2
    s = 7.3
    scaled_panel = pr.ReturnsPanel(panel.dates, panel.assets, s * panel.values)
    scaled = pr.autocov_sample(scaled_panel, w, L=5).sigma2
    rel_scale = abs(scaled - s ** 4 * base) / (s ** 4 * abs(base))
    assert rel_scale <= 1e-8

    # normal quantile against the inverse-error-function oracle
    grid = np.linspace(0.0005, 0.4995, 1000)
    worst_q = max(abs(pr.normal_upper_quantile(p) - oracles.quantile_oracle(p))
                  for p in grid)
    assert worst_q <= 1e-8
    print(f"ACCEPTANCE 7: PASS (autocov worst rel {worst:.1e}, "
          f"scale equivariance {rel_scale:.1e}, quantile worst {worst_q:.1e})")


def test_criterion_08_structural_properties():
    # threshold contract on a million (value, threshold) pairs per rule
    rng = pr.derive_rng(205, "thresh")
    z = 2.0 * rng.standard_normal(1_000_000)
    tau = rng.uniform(0.0, 2.0, 1_000_000)
    hard = _threshold_values(z, tau, pr.ThresholdRule("hard"))
    assert np.array_equal(hard, np.where(np.abs(z) <= tau, 0.0, z))
    soft = _threshold_values(z, tau, pr.ThresholdRule("soft"))
    assert np.array_equal(soft, np.sign(z) * np.maximum(np.abs(z) - tau, 0.0))
    scad = _threshold_values(z, tau, pr.ThresholdRule("scad"))
    a = pr.ThresholdRule("scad").scad_a
    inner, outer = np.abs(z) <= 2.0 * tau, np.abs(z) > a * tau
    assert np.array_equal(scad[inner], soft[inner])
    assert np.array_equal(scad[outer], z[outer])
    mid = ~inner & ~outer
    blend = ((a - 1.0) * z[mid] - np.sign(z[mid]) * a * tau[mid]) / (a - 2.0)
    assert np.allclose(scad[mid], blend, rtol=0, atol=1e-15)
    # spot-check the vectorized path against the scalar reference oracles
    for zi, ti in zip(z[:1000], tau[:1000]):
        assert pr.apply_threshold(float(zi), float(ti), pr.ThresholdRule("hard")) \
            == oracles.hard_ref(float(zi), float(ti))
        assert abs(pr.apply_threshold(float(zi), float(ti), pr.ThresholdRule("scad"))
                   - oracles.scad_ref(float(zi), float(ti))) <= 1e-15

    # POET with a zero threshold restores the sample covariance exactly
    _, panel, _ = calibrated_market(30, 60, (207, "poetzero"))
    S = pr.sample_covariance(panel).matrix
    back = pr.poet_covariance(panel, 3, pr.ThresholdRule("soft"), 0.0).matrix
    recon = np.max(np.abs(back - S)) / np.max(np.abs(S))
    assert recon <= 1e-10

    # POET stays positive definite past N > T at the default constant
    _, panel_wide, _ = calibrated_market(200, 100, (37, "poetpd"))
    est = pr.poet_covariance(panel_wide, 3, pr.ThresholdRule("soft"), 0.5)
    assert est.min_eigenvalue > 0

    # sampler identities at scale
    rng_s = pr.derive_rng(59, "ident")
    worst_sum = worst_gross = 0.0
    for _ in range(100_000):
        wv = pr.sample_random_portfolio(50, 1.6, rng_s).weights
        worst_sum = max(worst_sum, abs(wv.sum() - 1.0))
        worst_gross = max(worst_gross, abs(np.abs(wv).sum() - 1.6))
    assert worst_sum <= 1e-12 and worst_gross <= 1e-12

    # minimum variance against closed forms and exhaustive enumeration
    d = np.diag(np.array([1.0, 2.0, 4.0, 8.0]))
    w_pkg = pr.min_variance(pr.CovarianceEstimate(d, "sample"), 3.0)
    assert np.max(np.abs(w_pkg.weights - oracles.gmv_weights(d))) <= 1e-8

    rng8 = np.random.default_rng(61)
    A = rng8.standard_normal((8, 8))
    Sig8 = A @ A.T + 8 * np.eye(8)
    scale8 = np.diag(rng8.uniform(0.5, 2.0, 8))
    Sig8 = scale8 @ Sig8 @ scale8
    est8 = pr.CovarianceEstimate(Sig8, "sample")
    _, obj_ref = oracles.min_variance_brute_force(Sig8, 1.2)
    obj_pkg = pr.portfolio_variance(est8, pr.min_variance(est8, 1.2))
    assert obj_pkg <= obj_ref + 1e-6
    print(f"ACCEPTANCE 8: PASS (thresholds exact, POET recon {recon:.1e}, "
          f"min eig {est.min_eigenvalue:.3f}, sampler worst {worst_gross:.1e}, "
          f"minvar gap {obj_pkg - obj_ref:.1e})")


def test_criterion_09_variance_decomposition_ordering():
    params = pr.default_calibration()
    rng = pr.derive_rng(3, "decomp")
    inst = pr.build_model_instance(params, 10, rng)
    w = pr.sample_random_portfolio(10, 1.0, rng).weights
    R, T = 10_000, 20
    root_eps = np.linalg.cholesky(params.Sigma_eps + 1e-14 * np.eye(3))
    root_u = np.linalg.cholesky(inst.Sigma_u)
    mu_st = np.linalg.solve(np.eye(3) - params.Phi, params.mu_f)
    x = np.tile(mu_st, (R, 1))
    for _ in range(300):
        x = params.mu_f + x @ params.Phi.T + rng.standard_normal((R, 3)) @ root_eps.T
    F = np.empty((T, R, 3))
    for t in range(T):
        x = params.mu_f + x @ params.Phi.T + rng.standard_normal((R, 3)) @ root_eps.T
        F[t] = x
    U = rng.standard_normal((T, R, 10)) @ root_u.T
    sys_t = F @ (inst.B.T @ w)
    idio_t = U @ w
    tot = ((sys_t + idio_t) ** 2).sum(axis=0)
    quad_sys = (sys_t ** 2).sum(axis=0)
    quad_idio = (idio_t ** 2).sum(axis=0)
    cross = (2.0 * sys_t * idio_t).sum(axis=0)
    ident = np.max(np.abs(tot - quad_sys - quad_idio - cross)) / np.max(np.abs(tot))
    assert ident <= 1e-12

    # centered fluctuations: var(total) = var(sys) + var(idio) + var(cross)
    # up to Monte Carlo error, and the total dominates the systematic part
    at = tot - tot.mean()
    bs = quad_sys - quad_sys.mean()
    ci = quad_idio - quad_idio.mean()
    dc = cross - cross.mean()
    g = at * at - bs * bs - ci * ci - dc * dc
    stat, se = g.mean(), g.std(ddof=1) / math.sqrt(R)
    assert abs(stat) <= 3.0 * se
    assert tot.var(ddof=1) > quad_sys.var(ddof=1)
    print(f"ACCEPTANCE 9: PASS (identity {ident:.1e}, |stat|/se "
          f"{abs(stat) / se:.2f}, total var dominates)")


def test_criterion_10_backtest_risk_error_calibration():
    csv_path = os.environ.get("PRL_FF100_CSV")
    if csv_path and Path(csv_path).exists():
        returns = pr.load_returns_csv(csv_path)
        report = pr.run_empirical_study(returns, None,
                                        pr.BacktestConfig(estimators=("sample", "poet")))
        for agg in report.aggregates:
            assert agg.mean_estimated_error_annual >= 0.0
        ew = report.aggregate("equal", "sample")
        assert abs(ew.mean_realized_risk_annual - 20.81) <= 2.0
        mv = report.aggregate("minvar_c1.6", "sample")
        assert abs(mv.mean_realized_risk_annual - 11.6) <= 2.0
        print("ACCEPTANCE 10: PASS (real hundred-portfolio panel)")
        return

    # surrogate: synthetic stationary panel of diversified assets; the
    # estimated risk error must track the realized one within 1%/yr
    params = pr.diversified_calibration()
    _, panel, fpanel = calibrated_market(100, 1008, (17, "surrogate"), params)
    report = pr.run_empirical_study(panel, fpanel, pr.BacktestConfig())
    assert report.n_rebalances == 36
    worst = 0.0
    for agg in report.aggregates:
        gap = abs(agg.mean_estimated_error_annual - agg.mean_realized_error_annual)
        worst = max(worst, gap)
        assert gap < 1.0, (agg.strategy, agg.estimator, gap)
    assert len(report.aggregates) == 9  # 3 strategies x 3 estimators
    print(f"ACCEPTANCE 10: PASS (surrogate panel, worst estimated-vs-realized "
          f"error gap {worst:.3f} %/yr over {len(report.aggregates)} aggregates; "
          f"set PRL_FF100_CSV to run the real-data branch)")
