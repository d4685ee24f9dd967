"""Calibration tables, market generators, and the replication protocol."""

import dataclasses
import logging
import os
import pickle
import warnings

import numpy as np
import pytest

import portrisk as pr
from portrisk.simulation import (
    default_workers,
    stationary_mean,
    _draw_error_sds,
    _block_size,
    _error_cov_detail,
    _generate_market,
    _generate_markets,
    _hard_threshold_corr,
    _is_pd,
    _Market,
    _run_task,
)


# ------------------------------------------------------------- calibrations

def test_default_calibration_table_values():
    p = pr.default_calibration()
    assert p.mu_B[0] == 0.9833
    assert p.mu_B[1] == -0.1233
    assert p.cov_f[0, 0] == 3.2351
    assert p.cov_f[2, 2] == 0.6586
    assert p.Phi[0, 1] == 0.2803
    assert p.Sigma_B[2, 2] == 0.7624
    assert p.mu_f[2] == -0.0043
    radius = np.max(np.abs(np.linalg.eigvals(p.Phi)))
    assert radius < 1.0
    assert p.sd_min == 0.5 and p.sd_max == 2.0


def test_calibration_arrays_are_read_only():
    p = pr.default_calibration()
    with pytest.raises(ValueError):
        p.cov_f[0, 0] = 99.0


def test_diversified_calibration_is_a_calmer_variant():
    base = pr.default_calibration()
    div = pr.diversified_calibration()
    assert np.allclose(div.Sigma_B, np.asarray(base.Sigma_B) / 16.0)
    assert np.allclose(div.cov_f, np.asarray(base.cov_f) / 4.0)
    assert np.array_equal(div.Phi, base.Phi)
    assert div.sd_min == 0.2 and div.sd_max == 0.6


def test_fingerprint_distinguishes_calibrations():
    a = pr.default_calibration()
    b = pr.diversified_calibration()
    assert a.fingerprint() == pr.default_calibration().fingerprint()
    assert a.fingerprint() != b.fingerprint()
    assert len(a.fingerprint()) == 16


def test_fingerprint_survives_pickling_and_replace():
    a = pr.default_calibration()
    assert pickle.loads(pickle.dumps(a)).fingerprint() == a.fingerprint()
    b = dataclasses.replace(a, corr_sd=0.3)
    assert b.fingerprint() != a.fingerprint()
    assert dataclasses.replace(b, corr_sd=0.2).fingerprint() == a.fingerprint()


def test_market_keys_do_not_rebuild_the_default_calibration(monkeypatch):
    # the default is built once; every cell that names no calibration
    # shares it
    cell = pr.ExperimentCell(N=5, T=20, c=1.0, portfolios_per_rep=2, estimators=("sample",))
    pr.run_replication(cell, 3, 0)

    def no_rebuild():
        raise AssertionError("default_calibration() called")

    monkeypatch.setattr(pr.simulation, "default_calibration", no_rebuild)
    market = _Market(cell, 3, 0)
    pr.run_replication(cell, 3, 0, market)
    pr.run_experiment([cell], 2, workers=1, base_seed=3)


def test_calibration_validation():
    base = pr.default_calibration()
    bad_sym = np.array([[1.0, 0.5], [0.4, 1.0]])
    with pytest.raises(pr.DataError, match="symmetric"):
        dataclasses.replace(base, Sigma_B=np.pad(bad_sym, (0, 1)) + np.diag([0, 0, 1.0]))
    with pytest.raises(pr.DataError, match="positive definite"):
        dataclasses.replace(base, cov_f=np.zeros((3, 3)))
    with pytest.raises(pr.DataError, match="spectral radius"):
        dataclasses.replace(base, Phi=np.eye(3) * 1.01)
    with pytest.raises(pr.DataError, match="Gamma"):
        dataclasses.replace(base, gamma_shape=0.0)
    with pytest.raises(pr.DataError, match="sd_min"):
        dataclasses.replace(base, sd_min=0.9, sd_max=0.5)
    with pytest.raises(pr.DataError, match="corr_cap"):
        dataclasses.replace(base, corr_cap=1.0)


# ----------------------------------------------------------------- lyapunov

def test_lyapunov_zero_phi_returns_cov():
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    got = pr.solve_lyapunov(np.zeros((2, 2)), cov)
    assert np.array_equal(got, cov)


def test_lyapunov_scalar_case():
    got = pr.solve_lyapunov(np.array([[0.5]]), np.array([[1.0]]))
    assert got[0, 0] == pytest.approx(0.75, abs=1e-15)


def test_lyapunov_residual_identity():
    p = pr.default_calibration()
    sig = pr.solve_lyapunov(p.Phi, p.cov_f)
    resid = p.cov_f - (p.Phi @ p.cov_f @ p.Phi.T + sig)
    assert np.max(np.abs(resid)) <= 1e-12
    assert np.linalg.eigvalsh(sig)[0] > 0
    assert sig[0, 0] == pytest.approx(3.166204541521, rel=1e-9)


def test_lyapunov_rejects_inconsistent_inputs():
    # spectral radius below one does not bound the singular values: this
    # nilpotent Phi would need a negative-definite innovation covariance
    Phi = np.array([[0.0, 1.5], [0.0, 0.0]])
    with pytest.raises(pr.NumericalError):
        pr.solve_lyapunov(Phi, np.eye(2))


def test_stationary_mean():
    p = pr.default_calibration()
    m = stationary_mean(p)
    assert np.max(np.abs((np.eye(3) - p.Phi) @ m - p.mu_f)) <= 1e-14
    zero_phi = dataclasses.replace(p, Phi=np.zeros((3, 3)))
    assert np.allclose(stationary_mean(zero_phi), p.mu_f)


# --------------------------------------------------------------- generators

def test_generate_loadings_moments():
    p = pr.default_calibration()
    rng = pr.derive_rng(171, "loadmc")
    B = pr.generate_loadings(p, 100_000, rng)
    assert B.shape == (100_000, 3)
    se = np.sqrt(np.diag(p.Sigma_B) / 100_000)
    assert np.all(np.abs(B.mean(axis=0) - p.mu_B) <= 4 * se)
    cov = np.cov(B.T, ddof=1)
    rel = np.linalg.norm(cov - p.Sigma_B) / np.linalg.norm(p.Sigma_B)
    assert rel <= 0.05


def test_generate_loadings_degenerate_dispersion():
    p = pr.default_calibration()
    tiny = dataclasses.replace(p, Sigma_B=np.eye(3) * 1e-18)
    B = pr.generate_loadings(tiny, 50, pr.derive_rng(173, "tiny"))
    assert np.max(np.abs(B - p.mu_B)) <= 1e-8
    with pytest.raises(pr.DataError):
        pr.generate_loadings(p, 0, pr.derive_rng(173, "bad"))


def test_error_cov_zero_correlation_is_diagonal():
    p = dataclasses.replace(pr.default_calibration(), corr_mean=0.0, corr_sd=0.0)
    S = pr.generate_error_cov(p, 12, pr.derive_rng(175, "diag"))
    off = ~np.eye(12, dtype=bool)
    assert np.all(S[off] == 0.0)
    assert np.all(np.diag(S) >= p.sd_min ** 2)
    assert np.all(np.diag(S) <= p.sd_max ** 2)


def test_error_cov_positive_definite_at_scale():
    S = pr.generate_error_cov(pr.default_calibration(), 100,
                              np.random.default_rng(55))
    assert np.linalg.eigvalsh(S)[0] > 0


def test_error_cov_threshold_is_minimal():
    # replay the documented draw order (sds first, then correlations) to
    # rebuild the raw correlation matrix, then check the returned
    # threshold restores positive definiteness while half of it does not
    p = pr.default_calibration()
    sigma_u, corr_used, threshold = _error_cov_detail(p, 100, np.random.default_rng(55))
    replay = np.random.default_rng(55)
    _draw_error_sds(p, 100, replay)
    raw = np.eye(100)
    iu = np.triu_indices(100, k=1)
    draws = np.clip(replay.normal(p.corr_mean, p.corr_sd, size=iu[0].size),
                    -p.corr_cap, p.corr_cap)
    raw[iu] = draws
    raw[(iu[1], iu[0])] = draws
    assert not _is_pd(raw)
    assert threshold == pytest.approx(0.8139342579259045, abs=1e-9)
    assert _is_pd(_hard_threshold_corr(raw, threshold))
    assert not _is_pd(_hard_threshold_corr(raw, threshold / 2.0))
    assert np.array_equal(corr_used, _hard_threshold_corr(raw, threshold))
    assert np.linalg.eigvalsh(sigma_u)[0] > 0


def _plain_bisection_error_cov(params, N, rng):
    """The threshold search with a factorization at every midpoint."""
    sds = _draw_error_sds(params, N, rng)
    corr = np.eye(N)
    iu = np.triu_indices(N, k=1)
    draws = np.clip(rng.normal(params.corr_mean, params.corr_sd, size=iu[0].size),
                    -params.corr_cap, params.corr_cap)
    corr[iu] = draws
    corr[(iu[1], iu[0])] = draws
    threshold = 0.0
    if not _is_pd(corr):
        lo, hi = 0.0, float(np.max(np.abs(corr - np.eye(N))))
        while hi - lo > 1e-6:
            mid = (lo + hi) / 2.0
            if _is_pd(_hard_threshold_corr(corr, mid)):
                hi = mid
            else:
                lo = mid
        threshold = hi
        corr = _hard_threshold_corr(corr, threshold)
    return corr * np.outer(sds, sds), corr, threshold


@pytest.mark.parametrize("N", [100, 600])
def test_error_cov_search_equals_plain_bisection(N):
    params = pr.default_calibration()
    for seed in range(2):
        got = _error_cov_detail(params, N, pr.derive_rng(seed, "bisect", N))
        want = _plain_bisection_error_cov(params, N, pr.derive_rng(seed, "bisect", N))
        assert got[2] == want[2]
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


def test_var1_factors_shape_and_degenerate_limit():
    p = pr.default_calibration()
    F = pr.generate_var1_factors(p, 7, pr.derive_rng(177, "shape"))
    assert F.shape == (7, 3)
    quiet = dataclasses.replace(p, Phi=np.zeros((3, 3)), cov_f=np.eye(3) * 1e-12)
    Fq = pr.generate_var1_factors(quiet, 50, pr.derive_rng(177, "quiet"))
    assert np.max(np.abs(Fq - quiet.mu_f)) <= 1e-4
    with pytest.raises(pr.DataError):
        pr.generate_var1_factors(p, 0, pr.derive_rng(177, "bad"))


@pytest.mark.parametrize("R", [1, 2, 7])
@pytest.mark.parametrize("T", [1, 5, 300])
def test_batched_var1_factors_equal_per_generator_calls(R, T):
    p = pr.default_calibration()
    batched = pr.generate_var1_factors(p, T, [pr.derive_rng(185, "chain", r) for r in range(R)])
    assert batched.shape == (R, T, 3)
    for r in range(R):
        alone = pr.generate_var1_factors(p, T, pr.derive_rng(185, "chain", r))
        assert alone.shape == (T, 3)
        assert batched[r].tobytes() == alone.tobytes()


def test_var1_factors_long_run_moments():
    p = pr.default_calibration()
    T = 100_000
    F = pr.generate_var1_factors(p, T, pr.derive_rng(43, "var"))
    cov = np.cov(F.T, ddof=0)
    assert np.linalg.norm(cov - p.cov_f) / np.linalg.norm(p.cov_f) <= 0.02
    # sample mean has long-run covariance (I-Phi)^-1 Sigma_eps (I-Phi)^-T / T
    A = np.linalg.inv(np.eye(3) - p.Phi)
    lrv = A @ pr.solve_lyapunov(p.Phi, p.cov_f) @ A.T
    se = np.sqrt(np.diag(lrv) / T)
    assert np.all(np.abs(F.mean(axis=0) - stationary_mean(p)) <= 4 * se)
    dm = F - F.mean(axis=0)
    lag1 = dm[1:].T @ dm[:-1] / (T - 1)
    want = p.Phi @ p.cov_f
    assert np.linalg.norm(lag1 - want) / np.linalg.norm(p.cov_f) <= 0.02


def test_build_model_instance_assembles_truth():
    p = pr.default_calibration()
    inst = pr.build_model_instance(p, 40, pr.derive_rng(179, "inst"))
    assert inst.N == 40
    assert np.array_equal(inst.Sigma_true, inst.B @ p.cov_f @ inst.B.T + inst.Sigma_u)
    assert np.linalg.eigvalsh(inst.Sigma_true)[0] > 0
    assert not inst.B.flags.writeable
    assert np.array_equal(inst.Sigma_eps, pr.solve_lyapunov(p.Phi, p.cov_f))


def test_build_model_instance_consumption_order():
    p = pr.default_calibration()
    inst = pr.build_model_instance(p, 25, pr.derive_rng(181, "order"))
    replay = pr.derive_rng(181, "order")
    B = pr.generate_loadings(p, 25, replay)
    S_u = pr.generate_error_cov(p, 25, replay)
    assert np.array_equal(inst.B, B)
    assert np.array_equal(inst.Sigma_u, S_u)


# ------------------------------------------------------- replication record

def test_experiment_cell_validation():
    with pytest.raises(pr.DataError):
        pr.ExperimentCell(N=0, T=50, c=1.0)
    with pytest.raises(pr.DataError):
        pr.ExperimentCell(N=10, T=1, c=1.0)
    with pytest.raises(pr.DataError):
        pr.ExperimentCell(N=10, T=50, c=0.9)
    with pytest.raises(pr.DataError, match="unknown estimator"):
        pr.ExperimentCell(N=10, T=50, c=1.0, estimators=("sample", "ridge"))
    with pytest.raises(pr.DataError):
        pr.ExperimentCell(N=10, T=50, c=1.0, estimators=())
    with pytest.raises(pr.DataError):
        pr.ExperimentCell(N=10, T=50, c=1.0, tau=1.0)
    with pytest.raises(pr.DataError):
        pr.ExperimentCell(N=10, T=50, c=1.0, portfolios_per_rep=0)


@pytest.mark.parametrize("c", [float("nan"), float("inf"), float("-inf")])
def test_experiment_cell_rejects_non_finite_exposure(c, monkeypatch):
    def no_market(*args):
        raise AssertionError("a market was simulated")

    monkeypatch.setattr(pr.simulation, "_generate_markets", no_market)
    with pytest.raises(pr.DataError, match=f"c={c}"):
        pr.ExperimentCell(N=10, T=50, c=c)
    with pytest.raises(pr.DataError, match=f"c={c}"):
        pr.parse_grid_config(f"Ns = 10\nTs = 50\ncs = 1.0, {c}\n")


@pytest.mark.parametrize("kwargs", [
    dict(factor_rule="bogus"), dict(poet_rule="bogus"), dict(factor_C=-1.0),
    dict(poet_C=-1.0), dict(poet_K=0),
])
def test_invalid_estimator_settings_fail_before_any_market(kwargs, monkeypatch):
    # factor_rule="bogus" used to raise only after a market was simulated
    def no_market(*args):
        raise AssertionError("a market was simulated")

    monkeypatch.setattr(pr.simulation, "_generate_markets", no_market)
    with pytest.raises(pr.DataError):
        pr.ExperimentCell(N=300, T=50, c=1.0, **kwargs)
    key, value = next(iter(kwargs.items()))
    with pytest.raises(pr.DataError):
        pr.parse_grid_config(f"Ns = 300\nTs = 50\ncs = 1\n{key} = {value}\n")


def test_experiment_cell_rejects_repeated_estimator():
    with pytest.raises(pr.DataError, match="estimator twice"):
        pr.ExperimentCell(N=10, T=50, c=1.0, estimators=("sample", "sample"))


def test_lag_truncation_checked_before_any_market_is_simulated(monkeypatch):
    def no_market(*args):
        raise AssertionError("a market was simulated")

    monkeypatch.setattr(pr.simulation, "_generate_market", no_market)
    for L in (6, 7, -1):
        with pytest.raises(pr.DataError, match=f"L={L}, T=6"):
            pr.ExperimentCell(N=300, T=6, c=1.0, L=L)
    with pytest.raises(pr.DataError, match="L=6, T=6"):
        pr.parse_grid_config("Ns = 300\nTs = 20, 6\ncs = 1\nL = 6\n")
    assert pr.ExperimentCell(N=300, T=6, c=1.0, L=5).L == 5
    assert pr.ExperimentCell(N=300, T=6, c=1.0, L=0).L == 0


def test_run_replication_deterministic():
    cell = pr.ExperimentCell(N=12, T=40, c=1.5, portfolios_per_rep=6)
    a = pr.run_replication(cell, 99, 3)
    b = pr.run_replication(cell, 99, 3)
    assert np.array_equal(a.true_variance, b.true_variance)
    for name in cell.estimators:
        for field, arr in a.per_estimator[name].items():
            other = b.per_estimator[name][field]
            if arr.dtype.kind == "f":
                assert np.array_equal(arr, other, equal_nan=True), (name, field)
            else:
                assert np.array_equal(arr, other), (name, field)


def test_run_replication_record_shapes_and_formulas():
    cell = pr.ExperimentCell(N=15, T=50, c=1.6, portfolios_per_rep=8,
                             estimators=("sample", "poet"))
    rec = pr.run_replication(cell, 31, 0)
    assert rec.true_variance.shape == (8,)
    assert set(rec.per_estimator) == {"sample", "poet"}
    params = pr.default_calibration()
    instance, panel, _ = _generate_market(params, 15, 50, 31, 0)
    est = pr.sample_covariance(panel)
    d = rec.per_estimator["sample"]
    max_err = np.max(np.abs(est.matrix - instance.Sigma_true))
    rng_pf = pr.derive_rng(31, "portfolios", 15, 50, 1.6, 0)
    for j in range(8):
        w = pr.sample_random_portfolio(15, 1.6, rng_pf)
        gross_sq = np.abs(w.weights).sum() ** 2
        assert d["xi"][j] == pytest.approx(gross_sq * max_err, rel=1e-12)
        vhat = pr.portfolio_variance(est, w)
        assert d["variance_hat"][j] == pytest.approx(vhat, rel=1e-12)
        truev = float(w.weights @ instance.Sigma_true @ w.weights)
        assert rec.true_variance[j] == pytest.approx(truev, rel=1e-12)
        # the derived columns are exact functions of the stored ones
        assert d["delta"][j] == abs(d["variance_hat"][j] - rec.true_variance[j])
        assert d["re2"][j] == d["u_variance"][j] / (4.0 * rec.true_variance[j])
        if d["u_variance"][j] > 0:
            assert d["re1"][j] == d["xi"][j] / d["u_variance"][j]
        assert d["covered"][j] == (d["delta"][j] <= d["u_variance"][j])


def test_run_replication_decomposition_identity():
    # squared portfolio returns split exactly into systematic, cross, and
    # idiosyncratic terms when the market's own factor draw is used
    params = pr.default_calibration()
    instance, panel, fpanel = _generate_market(params, 10, 20, 7, 0)
    rng = pr.derive_rng(7, "decompw")
    w = pr.sample_random_portfolio(10, 1.5, rng).weights
    a = panel.values @ w
    s = fpanel.values @ (instance.B.T @ w)
    e = a - s
    lhs = a ** 2
    rhs = s ** 2 + 2 * s * e + e ** 2
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(lhs)


def test_run_replication_is_fast_at_benchmark_size():
    import time
    cell = pr.ExperimentCell(N=20, T=300, c=1.0)
    start = time.monotonic()
    pr.run_replication(cell, 5, 0)
    assert time.monotonic() - start < 5.0


def test_generate_market_is_deterministic():
    params = pr.default_calibration()
    key_args = (params, 9, 25, 401, 2)
    first = _generate_market(*key_args)
    again = _generate_market(*key_args)
    assert again is not first
    for a, b in zip(first[0].__dict__.values(), again[0].__dict__.values()):
        assert np.array_equal(a, b)
    for a, b in zip(first[1:], again[1:]):
        assert np.array_equal(a.values, b.values) and a.dates == b.dates


def test_cell_in_market_group_equals_cell_alone():
    # a market shared by cells with different exposures and estimator
    # settings gives each cell the bits it gets when run on its own
    base = dict(N=14, T=40, portfolios_per_rep=7, poet_K=2)
    grid = (pr.ExperimentCell(c=1.0, **base),
            pr.ExperimentCell(c=1.7, estimators=("poet", "factor"), poet_C=0.8,
                              factor_C=0.5, **base),
            pr.ExperimentCell(c=1.7, estimators=("sample", "poet"), L=3, **base))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        grouped = _run_task(grid, ((0, 1, 2),), 23, (0, range(4, 5)))
        assert [ci for ci, _, _ in grouped] == [0, 1, 2]
        for ci, rep, rec in grouped:
            alone = pr.run_replication(grid[ci], 23, rep)
            assert np.array_equal(rec.true_variance, alone.true_variance)
            assert list(rec.per_estimator) == list(alone.per_estimator)
            for name, fields in rec.per_estimator.items():
                for field, arr in fields.items():
                    assert np.array_equal(arr, alone.per_estimator[name][field],
                                          equal_nan=True), (ci, name, field)


def test_market_block_equals_single_replication_markets():
    params = pr.default_calibration()
    block = list(_generate_markets(params, 11, 30, 29, range(2, 7)))
    assert len(block) == 5
    for rep, (instance, panel, fpanel) in zip(range(2, 7), block):
        want = _generate_market(params, 11, 30, 29, rep)
        for name, arr in instance.__dict__.items():
            assert arr.tobytes() == getattr(want[0], name).tobytes(), (rep, name)
        assert panel.values.tobytes() == want[1].values.tobytes()
        assert fpanel.values.tobytes() == want[2].values.tobytes()
        assert (panel.dates, panel.assets) == (want[1].dates, want[1].assets)


def test_block_task_equals_replications_run_alone():
    grid = (pr.ExperimentCell(N=9, T=30, c=1.0, portfolios_per_rep=4, poet_K=2),
            pr.ExperimentCell(N=9, T=30, c=1.4, portfolios_per_rep=4,
                              estimators=("factor",)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = _run_task(grid, ((0, 1),), 37, (0, range(3, 6)))
        assert [(ci, rep) for ci, rep, _ in got] == [(ci, rep) for rep in range(3, 6)
                                                     for ci in (0, 1)]
        for ci, rep, rec in got:
            alone = pr.run_replication(grid[ci], 37, rep)
            assert rec.true_variance.tobytes() == alone.true_variance.tobytes()
            for name, fields in rec.per_estimator.items():
                for field, arr in fields.items():
                    assert arr.tobytes() == alone.per_estimator[name][field].tobytes(), \
                        (ci, rep, name, field)


def test_run_replication_rejects_another_market():
    cell = pr.ExperimentCell(N=8, T=30, c=1.0, portfolios_per_rep=3)
    market = _Market(cell, 5, 0)
    pr.run_replication(cell, 5, 0, market)
    for other, seed, rep in ((dataclasses.replace(cell, N=9), 5, 0), (cell, 6, 0),
                             (cell, 5, 1)):
        with pytest.raises(pr.DataError, match="market"):
            pr.run_replication(other, seed, rep, market)


def test_run_replication_summarizes_clamped_portfolios():
    cell = pr.ExperimentCell(N=6, T=24, c=1.5, portfolios_per_rep=30, L=8,
                             estimators=("sample", "factor", "poet"), poet_K=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rec = pr.run_replication(cell, 11, 0)
    clamped = {name: int(d["clamped"].sum()) for name, d in rec.per_estimator.items()}
    assert sum(clamped.values()) > 0
    messages = [str(w.message) for w in caught if w.category is RuntimeWarning]
    # one warning per estimator that clamped, carrying its count
    assert sorted(messages) == sorted(
        f"truncated long-run variance was negative for {n} of 30 portfolios; clamped to 0"
        for n in clamped.values() if n)


def test_cells_differing_only_in_exposure_share_markets():
    a = pr.run_replication(pr.ExperimentCell(N=8, T=30, c=1.0,
                                             portfolios_per_rep=4), 17, 1)
    b = pr.run_replication(pr.ExperimentCell(N=8, T=30, c=2.0,
                                             portfolios_per_rep=4), 17, 1)
    # different portfolios, but the same market underneath: the sup error
    # recovered from xi / gross^2 must agree across the two cells
    assert not np.array_equal(a.true_variance, b.true_variance)
    ga = a.per_estimator["sample"]["xi"][0] / 1.0  # c=1: gross^2 = 1
    gb = b.per_estimator["sample"]["xi"][0] / 4.0  # c=2: gross^2 = 4
    assert ga == pytest.approx(gb, rel=1e-12)


# ---------------------------------------------------------------- experiment

def test_run_experiment_worker_count_invariance():
    grid = [pr.ExperimentCell(N=6, T=24, c=1.0, portfolios_per_rep=5,
                              estimators=("sample",)),
            pr.ExperimentCell(N=6, T=24, c=1.5, portfolios_per_rep=5,
                              estimators=("sample",))]
    one = pr.run_experiment(grid, 6, workers=1, base_seed=11)
    two = pr.run_experiment(grid, 6, workers=2, base_seed=11)
    assert one.cells == two.cells
    assert one.replications == 6 and one.base_seed == 11


def test_block_size_follows_the_memory_budget():
    # covariances (16 N^2 bytes) or the factor chain (48 (500 + T) bytes),
    # whichever is larger, per replication of a 1 MiB block
    assert [_block_size(N, 300) for N in (1, 20, 100, 181, 182, 600)] == [27, 27, 6, 2, 1, 1]
    assert _block_size(1, 100_000) == 1


def test_run_experiment_does_not_depend_on_block_size(monkeypatch):
    # two markets, seven replications: blocks of one, of all seven, of
    # three and two serially, and those again in two workers
    grid = [pr.ExperimentCell(N=6, T=24, c=1.0, portfolios_per_rep=4,
                              estimators=("sample", "factor")),
            pr.ExperimentCell(N=7, T=40, c=1.3, portfolios_per_rep=4,
                              estimators=("poet",), poet_K=2),
            pr.ExperimentCell(N=6, T=24, c=1.5, portfolios_per_rep=4,
                              estimators=("sample",))]

    def run(budget, workers):
        monkeypatch.setattr(pr.simulation, "_BLOCK_BUDGET", budget)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return pr.run_experiment(grid, 7, workers=workers, base_seed=41).cells

    default = run(pr.simulation._BLOCK_BUDGET, 1)
    assert min(_block_size(6, 24), _block_size(7, 40)) >= 7
    assert run(0, 1) == default
    assert run(75456, 1) == default
    assert (_block_size(6, 24), _block_size(7, 40)) == (3, 2)
    assert run(75456, 2) == default


def test_run_experiment_logs_each_finished_task(monkeypatch, caplog):
    monkeypatch.setattr(pr.simulation, "_BLOCK_BUDGET", 75456)
    grid = [pr.ExperimentCell(N=6, T=24, c=1.0, portfolios_per_rep=3, estimators=("sample",)),
            pr.ExperimentCell(N=6, T=24, c=2.0, portfolios_per_rep=3, estimators=("sample",)),
            pr.ExperimentCell(N=5, T=40, c=1.0, portfolios_per_rep=3, estimators=("sample",))]
    with caplog.at_level(logging.INFO, logger="portrisk.simulation"):
        pr.run_experiment(grid, 3, workers=1, base_seed=2)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "portrisk.simulation" and r.levelno == logging.INFO]
    # blocks of three replications (N=6) and two (N=5), replication-major
    assert lines == [
        "market 1/2 (N=6, T=24): replications 0-2 finished; 1/3 tasks done",
        "market 2/2 (N=5, T=40): replications 0-1 finished; 2/3 tasks done",
        "market 2/2 (N=5, T=40): replications 2-2 finished; 3/3 tasks done",
    ]


def test_run_experiment_groups_cells_by_market():
    # cells of one market apart in the grid, next to a cell of another:
    # each aggregate equals that of the cell run alone, in grid order
    grid = [pr.ExperimentCell(N=6, T=24, c=1.0, portfolios_per_rep=4,
                              estimators=("sample", "poet"), poet_K=2),
            pr.ExperimentCell(N=7, T=24, c=1.0, portfolios_per_rep=4,
                              estimators=("sample",)),
            pr.ExperimentCell(N=6, T=24, c=1.5, portfolios_per_rep=4,
                              estimators=("factor",))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = pr.run_experiment(grid, 3, workers=1, base_seed=19)
        alone = [agg for cell in grid
                 for agg in pr.run_experiment([cell], 3, workers=1, base_seed=19).cells]
    assert report.cells == tuple(alone)


def test_run_experiment_aggregates_recompute():
    cell = pr.ExperimentCell(N=7, T=30, c=1.2, portfolios_per_rep=6,
                             estimators=("sample",))
    report = pr.run_experiment([cell], 5, workers=1, base_seed=13)
    agg = report.cells[0]
    records = [pr.run_replication(cell, 13, rep) for rep in range(5)]
    delta = np.concatenate([r.per_estimator["sample"]["delta"] for r in records])
    u = np.concatenate([r.per_estimator["sample"]["u_variance"] for r in records])
    risk = np.sqrt(np.concatenate([r.true_variance for r in records]))
    assert agg.mean_delta == pytest.approx(float(delta.mean()), rel=1e-15)
    assert agg.mean_u == pytest.approx(float(u.mean()), rel=1e-15)
    assert agg.mean_true_risk == pytest.approx(float(risk.mean()), rel=1e-15)
    assert agg.coverage == pytest.approx(float((delta <= u).mean()), abs=1e-15)
    assert agg.n_records == 30
    assert agg.estimator == "sample" and agg.N == 7


def test_run_experiment_validation():
    with pytest.raises(pr.DataError):
        pr.run_experiment([], 5, workers=1)
    cell = pr.ExperimentCell(N=5, T=20, c=1.0)
    with pytest.raises(pr.DataError):
        pr.run_experiment([cell], 0, workers=1)
    with pytest.raises(pr.DataError):
        pr.run_experiment([cell], 5, workers=-2)


def test_by_estimator_filter():
    cell = pr.ExperimentCell(N=6, T=20, c=1.0, portfolios_per_rep=3,
                             estimators=("sample", "poet"), poet_K=2)
    report = pr.run_experiment([cell], 2, workers=1, base_seed=3)
    names = [a.estimator for a in report.cells]
    assert names == ["sample", "poet"]
    assert [a.estimator for a in report.by_estimator("poet")] == ["poet"]


# -------------------------------------------------------------- grid config

FULL_CONFIG = """
# experiment layout
Ns = 10, 20
Ts = 30
cs = 1.0, 1.6
estimators = sample, poet
L = 4
tau = 0.05
portfolios_per_rep = 7
replications = 9
base_seed = 5
paper_z = yes
poet_K = 2
poet_C = 0.4
poet_rule = soft
periods_per_year = 252
"""


def test_parse_grid_config_full_file():
    cfg = pr.parse_grid_config(FULL_CONFIG)
    assert cfg.replications == 9
    assert cfg.base_seed == 5
    assert cfg.periods_per_year == 252.0
    assert len(cfg.cells) == 4
    # N-major, then T, then c
    assert [(c.N, c.c) for c in cfg.cells] == [(10, 1.0), (10, 1.6),
                                               (20, 1.0), (20, 1.6)]
    cell = cfg.cells[0]
    assert cell.estimators == ("sample", "poet")
    assert cell.L == 4 and cell.portfolios_per_rep == 7
    assert cell.poet_K == 2 and cell.poet_C == 0.4
    assert cell.paper_z is True


def test_parse_grid_config_defaults():
    cfg = pr.parse_grid_config("Ns = 5\nTs = 20\ncs = 1\n")
    cell = cfg.cells[0]
    assert cell.L == 5 and cell.tau == 0.05
    assert cell.portfolios_per_rep == 200
    assert cell.estimators == ("sample", "factor", "poet")
    assert cfg.replications == 100 and cfg.base_seed == 0
    assert cfg.periods_per_year == 252.0


def test_minimal_grid_config_takes_the_dataclass_defaults():
    cfg = pr.parse_grid_config("Ns = 5, 7\nTs = 20\ncs = 1, 1.5\n")
    assert cfg.cells == tuple(pr.ExperimentCell(N, 20, c) for N in (5, 7) for c in (1.0, 1.5))
    assert cfg == pr.GridConfig(cells=cfg.cells)


def test_parse_grid_config_errors_name_the_key_and_line():
    with pytest.raises(pr.DataError, match=r"line 2: unknown key 'frobs'"):
        pr.parse_grid_config("Ns = 5\nfrobs = 3\n")
    with pytest.raises(pr.DataError, match=r"line 3: key 'Ns' appears twice"):
        pr.parse_grid_config("Ns = 5\nTs = 20\nNs = 6\n")
    with pytest.raises(pr.DataError, match="missing required key 'cs'"):
        pr.parse_grid_config("Ns = 5\nTs = 20\n")
    with pytest.raises(pr.DataError, match="expected 'key = value'"):
        pr.parse_grid_config("Ns = 5\njust words\nTs = 2\ncs = 1\n")
    with pytest.raises(pr.DataError, match="cannot parse"):
        pr.parse_grid_config("Ns = 5, x\nTs = 20\ncs = 1\n")
    with pytest.raises(pr.DataError, match="boolean"):
        pr.parse_grid_config("Ns = 5\nTs = 20\ncs = 1\npaper_z = maybe\n")
    with pytest.raises(pr.DataError, match="unknown estimator"):
        pr.parse_grid_config("Ns = 5\nTs = 20\ncs = 1\nestimators = ledoit\n")
    with pytest.raises(pr.DataError, match="empty list"):
        pr.parse_grid_config("Ns =\nTs = 20\ncs = 1\n")


@pytest.mark.parametrize("key, line", [
    ("Ns", "Ns = 5, 6, 5"), ("Ts", "Ts = 20, 20"), ("cs", "cs = 1.0, 1"),
    ("estimators", "estimators = sample, poet, sample"),
])
def test_parse_grid_config_rejects_repeated_values(key, line):
    lines = {"Ns": "Ns = 5", "Ts": "Ts = 20", "cs": "cs = 1"}
    lines[key] = line
    with pytest.raises(pr.DataError, match=f"config key {key}: a value is listed twice"):
        pr.parse_grid_config("\n".join(lines.values()) + "\n")


def test_default_workers_counts_usable_cpus(monkeypatch):
    monkeypatch.delenv("PRL_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert default_workers() == 3
    monkeypatch.setenv("PRL_THREADS", "5")
    assert default_workers() == 5
    monkeypatch.delenv("PRL_THREADS")
    # platforms without an affinity call fall back to the CPU count
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert default_workers() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert default_workers() == 8


def test_default_workers_env_override(monkeypatch):
    monkeypatch.setenv("PRL_THREADS", "3")
    assert default_workers() == 3
    monkeypatch.setenv("PRL_THREADS", "abc")
    with pytest.raises(pr.DataError, match="PRL_THREADS"):
        default_workers()
    monkeypatch.setenv("PRL_THREADS", "0")
    with pytest.raises(pr.DataError):
        default_workers()
    monkeypatch.delenv("PRL_THREADS")
    assert 1 <= default_workers() <= 8
