"""Calibration tables, market generators, and the replication protocol."""

import dataclasses
import logging
import os
import pickle
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

import oracles
import portrisk as pr
import portrisk.simulation as sim
from portrisk.assessment import _quad_forms
from portrisk.simulation import (
    default_workers,
    stationary_mean,
    _block_size,
    _correlated_errors,
    _error_corr,
    _generate_markets,
    _run_task,
    _summarize,
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
    [market] = _generate_markets(cell._params, cell.N, cell.T, 3, (0,))
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


def test_calibration_solves_its_innovation_covariance_once():
    # the nilpotent Phi of test_lyapunov_rejects_inconsistent_inputs has
    # spectral radius 0 but needs a negative-definite innovation covariance
    # with cov_f = I: construction fails, not the first factor draw
    base = pr.default_calibration()
    assert base.Sigma_eps is base.Sigma_eps
    assert np.array_equal(base.Sigma_eps, pr.solve_lyapunov(base.Phi, base.cov_f))
    Phi = np.zeros((3, 3))
    Phi[0, 1] = 1.5
    with pytest.raises(pr.DataError, match="no VAR.1. innovation covariance"):
        dataclasses.replace(base, Phi=Phi, cov_f=np.eye(3))


@pytest.mark.parametrize("field, value", [
    ("corr_mean", float("nan")), ("corr_mean", float("inf")), ("corr_mean", float("-inf")),
    ("corr_sd", -0.1), ("corr_sd", float("nan")), ("corr_sd", float("inf")),
])
def test_calibration_rejects_invalid_correlation_draws(field, value):
    # corr_mean=nan used to give threshold 0 and an all-NaN off-diagonal;
    # corr_sd=-0.1 failed only inside a task, with numpy's "scale < 0".
    # A frozen CalibrationParams cannot be built with such a value, so no
    # cell or experiment can reach a market with one
    base = pr.default_calibration()
    with pytest.raises(pr.DataError, match=field):
        dataclasses.replace(base, **{field: value})
    # the grid config has no calibration keys: naming one fails as unknown
    with pytest.raises(pr.DataError, match=f"unknown key '{field}'"):
        pr.parse_grid_config(f"Ns = 50\nTs = 50\ncs = 1\n{field} = {value}\n")


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


def _assert_parts_equal_dense(params, N, make_rng):
    """generate_error_cov's parts, and _error_corr's threshold, equal the
    dense reference's bit for bit, each on a fresh make_rng(); returns the
    reference."""
    sigma_u, corr, threshold = oracles.dense_error_cov(params, N, make_rng())
    assert _error_corr(params, N, make_rng())[3] == threshold
    b = oracles.coupled_rows(sigma_u)
    got = pr.generate_error_cov(params, N, make_rng())
    for part, want in zip(got, (np.diagonal(sigma_u), b, sigma_u[np.ix_(b, b)])):
        assert part.shape == want.shape and part.tobytes() == want.tobytes()
    return sigma_u, corr, threshold


def test_error_cov_zero_correlation_is_diagonal():
    p = dataclasses.replace(pr.default_calibration(), corr_mean=0.0, corr_sd=0.0)
    S = _assert_parts_equal_dense(p, 12, lambda: pr.derive_rng(175, "diag"))[0]
    off = ~np.eye(12, dtype=bool)
    assert np.all(S[off] == 0.0)
    assert np.all(np.diag(S) >= p.sd_min ** 2)
    assert np.all(np.diag(S) <= p.sd_max ** 2)
    error_var, coupled, block = pr.generate_error_cov(p, 12, pr.derive_rng(175, "diag"))
    assert coupled.size == 0 and block.shape == (0, 0)


def test_error_cov_positive_definite_at_scale():
    S = _assert_parts_equal_dense(pr.default_calibration(), 100,
                                  lambda: np.random.default_rng(55))[0]
    assert np.linalg.eigvalsh(S)[0] > 0
    error_var, coupled, block = pr.generate_error_cov(
        pr.default_calibration(), 100, np.random.default_rng(55))
    assert 0 < coupled.size < 100
    assert np.linalg.eigvalsh(block)[0] > 0


def test_error_cov_threshold_is_minimal():
    # replay the documented draw order (sds first, then correlations) to
    # rebuild the raw correlation matrix, then check the returned
    # threshold restores positive definiteness while half of it does not
    p = pr.default_calibration()
    sds, b, corr_b, threshold = _error_corr(p, 100, np.random.default_rng(55))
    _, raw = oracles.raw_error_corr(p, 100, np.random.default_rng(55))
    assert not oracles.is_pd(raw)
    assert threshold == pytest.approx(0.8139342579259045, abs=1e-9)
    used = oracles.hard_threshold_corr(raw, threshold)
    assert oracles.is_pd(used)
    assert not oracles.is_pd(oracles.hard_threshold_corr(raw, threshold / 2.0))
    assert np.array_equal(b, oracles.coupled_rows(used))
    assert np.array_equal(corr_b, used[np.ix_(b, b)])
    assert np.linalg.eigvalsh(corr_b * np.outer(sds[b], sds[b]))[0] > 0


@pytest.mark.parametrize("N", [1, 2, 3, 20, 100, 300, 600])
def test_error_cov_search_equals_plain_bisection(N):
    params = pr.default_calibration()
    for seed in range(3):
        _assert_parts_equal_dense(params, N, lambda: pr.derive_rng(seed, "bisect", N))


def test_error_cov_generation_holds_no_dense_matrix():
    # the correlations stay in their flat upper triangle (8 N(N-1)/2
    # bytes) and the factored blocks are small, so generation never holds
    # as much as one N x N float array
    params, N = pr.default_calibration(), 600
    for seed in range(3):
        rng = np.random.default_rng(seed)
        tracemalloc.start()
        try:
            pr.generate_error_cov(params, N, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * N * N, peak


def test_error_cov_block_decisions_equal_full_factorizations(monkeypatch):
    # every PD decision factors leading blocks of the rows under test at
    # growing sizes, stops at the first that fails, and otherwise factors
    # all of those rows; the full matrix thresholded at the same level must
    # get the same decision, and every path must run
    decisions = []
    real_decide, real_is_pd = sim._Triangle.is_pd, sim._is_pd

    def decide(tri, rows, level):
        decisions.append([level, rows.size, []])
        result = real_decide(tri, rows, level)
        decisions[-1].append(result)
        return result

    def is_pd(matrix):
        result = real_is_pd(matrix)
        decisions[-1][2].append((matrix.shape[0], result))
        return result

    monkeypatch.setattr(sim._Triangle, "is_pd", decide)
    monkeypatch.setattr(sim, "_is_pd", is_pd)
    params = pr.default_calibration()
    mismatches = 0
    paths = dict.fromkeys(("block fails", "block passes", "all fails", "all passes"), 0)
    for N in (20, 100, 300, 600):
        for seed in range(3):
            decisions.clear()
            pr.generate_error_cov(params, N, pr.derive_rng(seed, "decide", N))
            _, raw = oracles.raw_error_corr(params, N, pr.derive_rng(seed, "decide", N))
            for level, n_rows, blocks, decided in decisions:
                mismatches += decided != oracles.is_pd(oracles.hard_threshold_corr(raw, level))
                sizes = [size for size, _ in blocks]
                leading = [size for size in sim._LEADING_BLOCKS if size < n_rows]
                assert sizes == (leading + [n_rows])[:len(sizes)]
                # only the last block factored may fail, and it decides
                assert all(ok for _, ok in blocks[:-1]) and blocks[-1][1] == decided
                for size, ok in blocks:
                    whole = "all" if size == n_rows else "block"
                    paths[f"{whole} {'passes' if ok else 'fails'}"] += 1
    assert mismatches == 0
    assert min(paths.values()) > 0, paths


def test_error_cov_keeps_every_entry_when_pd_at_level_zero():
    p = dataclasses.replace(pr.default_calibration(), corr_mean=0.0, corr_sd=0.01)
    sigma_u, corr_used, threshold = _assert_parts_equal_dense(p, 20, lambda: pr.derive_rng(181, "zero"))
    sds, raw = oracles.raw_error_corr(p, 20, pr.derive_rng(181, "zero"))
    assert oracles.is_pd(raw)
    assert threshold == 0.0
    assert np.array_equal(corr_used, raw)
    assert np.count_nonzero(corr_used) == 20 * 20
    assert np.array_equal(sigma_u, raw * np.outer(sds, sds))
    _, b, corr_b, _ = _error_corr(p, 20, pr.derive_rng(181, "zero"))
    assert np.array_equal(b, np.arange(20)) and np.array_equal(corr_b, raw)


def test_error_cov_search_ending_at_the_cap_gives_a_diagonal_matrix():
    # nearly every correlation is clipped to +-corr_cap with a random sign,
    # so no level below the cap leaves a PD matrix
    p = dataclasses.replace(pr.default_calibration(), corr_mean=0.0, corr_sd=10.0)
    sigma_u, corr, threshold = _assert_parts_equal_dense(p, 50, lambda: pr.derive_rng(183, "cap"))
    sds, _ = oracles.raw_error_corr(p, 50, pr.derive_rng(183, "cap"))
    assert threshold == p.corr_cap
    assert np.array_equal(corr, np.eye(50))
    assert np.array_equal(sigma_u, np.diag(sds ** 2))
    error_var, coupled, block = pr.generate_error_cov(p, 50, pr.derive_rng(183, "cap"))
    assert coupled.size == 0 and block.shape == (0, 0)


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
    assert np.array_equal(p.Sigma_eps, pr.solve_lyapunov(p.Phi, p.cov_f))


def test_build_model_instance_consumption_order():
    p = pr.default_calibration()
    inst = pr.build_model_instance(p, 25, pr.derive_rng(181, "order"))
    replay = pr.derive_rng(181, "order")
    B = pr.generate_loadings(p, 25, replay)
    error_var, coupled, block = pr.generate_error_cov(p, 25, replay)
    assert np.array_equal(inst.B, B)
    assert np.array_equal(inst.error_var, error_var)
    assert np.array_equal(inst.coupled, coupled)
    assert np.array_equal(inst.coupled_block, block)


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


def test_poet_factor_count_that_cannot_fit_fails_at_construction(monkeypatch):
    # K=6 on 6 assets used to raise only inside a worker, after a market
    # was drawn; K must be at most min(N, T) - 1, as in poet_covariance
    def no_market(*args):
        raise AssertionError("a market was simulated")

    monkeypatch.setattr(pr.simulation, "_generate_markets", no_market)
    with pytest.raises(pr.DataError, match=r"\[1, 5\] for N=6 assets over T=24 periods, got K=6"):
        pr.ExperimentCell(N=6, T=24, c=1.0, poet_K=6)
    with pytest.raises(pr.DataError, match=r"\[1, 5\] for N=30 assets over T=6 periods"):
        pr.parse_grid_config("Ns = 30\nTs = 6\ncs = 1\nL = 2\npoet_K = 6\n")
    assert pr.ExperimentCell(N=6, T=24, c=1.0, poet_K=5).poet_K == 5
    # the estimators that do not use K ignore it
    assert pr.ExperimentCell(N=6, T=24, c=1.0, poet_K=6, estimators=("sample", "factor"))


def test_experiment_cell_rejects_repeated_estimator():
    with pytest.raises(pr.DataError, match="estimator twice"):
        pr.ExperimentCell(N=10, T=50, c=1.0, estimators=("sample", "sample"))


def test_lag_truncation_checked_before_any_market_is_simulated(monkeypatch):
    def no_market(*args):
        raise AssertionError("a market was simulated")

    monkeypatch.setattr(pr.simulation, "_generate_markets", no_market)
    for L in (6, 7, -1):
        with pytest.raises(pr.DataError, match=f"L={L}, T=6"):
            pr.ExperimentCell(N=300, T=6, c=1.0, L=L)
    with pytest.raises(pr.DataError, match="L=6, T=6"):
        pr.parse_grid_config("Ns = 300\nTs = 20, 6\ncs = 1\nL = 6\n")
    assert pr.ExperimentCell(N=300, T=6, c=1.0, L=5).L == 5
    assert pr.ExperimentCell(N=300, T=6, c=1.0, L=0).L == 0


def test_one_asset_book_with_a_short_side_fails_before_any_market(monkeypatch):
    # it used to fail only after a market was simulated, when the sampler
    # gave up on populating both sides after 100 draws
    def no_market(*args):
        raise AssertionError("a market was simulated")

    monkeypatch.setattr(pr.simulation, "_generate_markets", no_market)
    with pytest.raises(pr.DataError, match="one asset cannot hold a short side"):
        pr.ExperimentCell(N=1, T=10, c=1.5, estimators=("sample",))
    with pytest.raises(pr.DataError, match="one asset cannot hold a short side"):
        pr.parse_grid_config("Ns = 1, 5\nTs = 10\ncs = 1, 1.5\nestimators = sample\n")
    assert pr.ExperimentCell(N=1, T=10, c=1.0, estimators=("sample",)).c == 1.0
    assert pr.ExperimentCell(N=2, T=10, c=1.5, estimators=("sample",)).c == 1.5


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
    [market] = _generate_markets(params, 15, 50, 31, (0,))
    instance, panel = market.instance, market.panel
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
    [market] = _generate_markets(params, 10, 20, 7, (0,))
    instance, panel, fpanel = market.instance, market.panel, market.fpanel
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
    key_args = (params, 9, 25, 401, (2,))
    [first] = _generate_markets(*key_args)
    [again] = _generate_markets(*key_args)
    assert again is not first
    assert again.key == first.key == (params.fingerprint(), 9, 25, 401, 2)
    for a, b in zip(first.instance.__dict__.values(), again.instance.__dict__.values()):
        assert np.array_equal(a, b)
    for a, b in ((first.panel, again.panel), (first.fpanel, again.fpanel)):
        assert np.array_equal(a.values, b.values) and a.dates == b.dates


# (calibration changes, N, seed) of a dense Sigma_u (threshold 0), a block
# one and a diagonal one (the search ends at the cap)
ERROR_STRUCTURES = {
    "dense": (dict(corr_mean=0.0, corr_sd=0.01), 20, 181),
    "block": ({}, 100, 55),
    "diagonal": (dict(corr_mean=0.0, corr_sd=10.0), 50, 183),
}


@pytest.mark.parametrize("structure", ERROR_STRUCTURES)
def test_block_error_product_and_true_variance_equal_the_dense_formulas(structure):
    changes, N, seed = ERROR_STRUCTURES[structure]
    params = dataclasses.replace(pr.default_calibration(), **changes)
    cell = pr.ExperimentCell(N=N, T=60, c=1.6, portfolios_per_rep=40,
                             estimators=("sample",), calibration=params)
    [market] = _generate_markets(cell._params, N, 60, seed, (0,))
    Sigma_u = market.instance.Sigma_u
    # replay the market's model stream: loadings, error covariance, factor
    # innovations, errors
    rng = pr.derive_rng(seed, "model", N, 60, 0)
    pr.generate_loadings(params, N, rng)
    sigma_u, _, threshold = oracles.dense_error_cov(params, N, rng)
    F = pr.generate_var1_factors(params, 60, rng)
    Z = rng.standard_normal((60, N))
    assert np.array_equal(sigma_u, Sigma_u)
    coupled = oracles.coupled_rows(Sigma_u)
    if structure == "dense":
        assert threshold == 0.0 and coupled.size == N
    elif structure == "block":
        assert 0 < coupled.size < N
    else:
        assert threshold == params.corr_cap and coupled.size == 0

    want = Z @ np.linalg.cholesky(Sigma_u).T
    U = _correlated_errors(Z, market.instance)
    np.testing.assert_allclose(U, want, rtol=1e-12, atol=0)
    assert np.array_equal(market.panel.values, F @ market.instance.B.T + U)

    W = pr.sample_random_weights(N, 1.6, pr.derive_rng(seed, "weights"), 40)
    np.testing.assert_allclose(market.instance.true_variances(W),
                               _quad_forms(market.instance.Sigma_true, W), rtol=1e-12, atol=0)


@pytest.mark.parametrize("structure", ERROR_STRUCTURES)
def test_model_instance_parts_and_matrices_equal_the_dense_build(structure):
    # the parts are the dense matrices' entries, and each matrix property
    # rebuilds the dense matrix bit for bit, on every access
    changes, N, seed = ERROR_STRUCTURES[structure]
    params = dataclasses.replace(pr.default_calibration(), **changes)
    inst = pr.build_model_instance(params, N, pr.derive_rng(seed, "model", N, 60, 0))
    B, Sigma_u, Sigma_true, Sigma_eps = oracles.dense_model_instance(
        params, N, pr.derive_rng(seed, "model", N, 60, 0))
    b = oracles.coupled_rows(Sigma_u)
    assert {"dense": b.size == N, "block": 0 < b.size < N, "diagonal": b.size == 0}[structure]
    assert inst.B.tobytes() == B.tobytes()
    assert inst.cov_f is params.cov_f
    assert inst.error_var.tobytes() == np.diagonal(Sigma_u).tobytes()
    assert np.array_equal(inst.coupled, b)
    assert inst.coupled_block.tobytes() == Sigma_u[np.ix_(b, b)].tobytes()
    assert inst.Sigma_u.tobytes() == Sigma_u.tobytes()
    assert inst.Sigma_true.tobytes() == Sigma_true.tobytes()
    assert params.Sigma_eps.tobytes() == Sigma_eps.tobytes()
    assert inst.Sigma_u is not inst.Sigma_u and inst.Sigma_true is not inst.Sigma_true
    for arr in (inst.Sigma_u, inst.Sigma_true, inst.error_var, inst.coupled,
                inst.coupled_block, params.Sigma_eps):
        assert not arr.flags.writeable


@pytest.mark.parametrize("N", [1, 2, 63, 64, 65, 129, 196, 300, 301, 404])
def test_max_abs_deviation_equals_the_dense_maximum(N):
    # with some OpenBLAS kernels (scipy-openblas 0.3.31 on AVX-512) the
    # products of 64-row blocks of B cov_f B' differ from the whole product
    # in the last bit of some entries: a maximum over such blocks is not 0
    # against the dense truth itself at N = 65, 129, 301 and 404 here
    params = pr.default_calibration()
    inst = pr.build_model_instance(params, N, pr.derive_rng(N, "deviation"))
    Sigma_true = inst.Sigma_true
    assert inst.max_abs_deviation(Sigma_true) == 0.0
    X = pr.derive_rng(N, "panel").standard_normal((40, N))
    S = X.T @ X / 40
    spiked = Sigma_true.copy()
    spiked[-1, -1] += 0.5
    for M in (S, spiked, np.zeros((N, N))):
        assert inst.max_abs_deviation(M) == np.max(np.abs(M - Sigma_true))


def _assert_summary_of_alone(summary, cell, base_seed, rep):
    # a task's summary holds the bits of the record run_replication gives
    # for the cell and replication on their own
    alone = _summarize(pr.run_replication(cell, base_seed, rep))
    assert list(summary) == list(alone) == list(cell.estimators)
    for name, (moments, covered, clamped) in summary.items():
        assert moments.tobytes() == alone[name][0].tobytes(), (cell, rep, name)
        assert (covered, clamped) == alone[name][1:], (cell, rep, name)


def test_cell_in_market_group_equals_cell_alone():
    # a market shared by cells with different exposures and estimator
    # settings gives each cell the bits it gets when run on its own
    base = dict(N=14, T=40, portfolios_per_rep=7, poet_K=2)
    grid = (pr.ExperimentCell(c=1.0, **base),
            pr.ExperimentCell(c=1.7, estimators=("poet", "factor"), poet_C=0.8,
                              factor_C=0.5, **base),
            pr.ExperimentCell(c=1.7, estimators=("sample", "poet"), L=3, **base))
    grouped = _run_task(grid, ((0, 1, 2),), 23, (0, range(4, 5)))
    assert [ci for ci, _, _ in grouped] == [0, 1, 2]
    for ci, rep, summary in grouped:
        _assert_summary_of_alone(summary, grid[ci], 23, rep)


def test_market_block_equals_single_replication_markets():
    params = pr.default_calibration()
    block = list(_generate_markets(params, 11, 30, 29, range(2, 7)))
    assert len(block) == 5
    for rep, market in zip(range(2, 7), block):
        [want] = _generate_markets(params, 11, 30, 29, (rep,))
        assert market.key == want.key
        for name, arr in market.instance.__dict__.items():
            assert arr.tobytes() == getattr(want.instance, name).tobytes(), (rep, name)
        assert market.panel.values.tobytes() == want.panel.values.tobytes()
        assert market.fpanel.values.tobytes() == want.fpanel.values.tobytes()
        assert (market.panel.dates, market.panel.assets) == (want.panel.dates, want.panel.assets)


def test_block_task_equals_replications_run_alone():
    grid = (pr.ExperimentCell(N=9, T=30, c=1.0, portfolios_per_rep=4, poet_K=2),
            pr.ExperimentCell(N=9, T=30, c=1.4, portfolios_per_rep=4,
                              estimators=("factor",)))
    got = _run_task(grid, ((0, 1),), 37, (0, range(3, 6)))
    assert [(ci, rep) for ci, rep, _ in got] == [(ci, rep) for rep in range(3, 6)
                                                 for ci in (0, 1)]
    for ci, rep, summary in got:
        _assert_summary_of_alone(summary, grid[ci], 37, rep)


def test_block_task_frees_each_market_before_the_next_is_used(monkeypatch):
    # a market and its estimates are dropped once its cells have run; a
    # reference kept across the loop (zip's reused result tuple, for one)
    # would hold them while the next market is drawn
    generate, drawn = sim._generate_markets, []

    def watched(*args):
        for market in generate(*args):
            assert all(ref() is None for ref in drawn), "an earlier market is still alive"
            drawn.append(weakref.ref(market))
            yield market

    monkeypatch.setattr(sim, "_generate_markets", watched)
    grid = (pr.ExperimentCell(N=9, T=30, c=1.0, portfolios_per_rep=4, estimators=("sample",)),)
    assert len(_run_task(grid, ((0,),), 37, (0, range(3)))) == 3
    assert len(drawn) == 3


def test_run_replication_rejects_another_market():
    cell = pr.ExperimentCell(N=8, T=30, c=1.0, portfolios_per_rep=3)
    [market] = _generate_markets(cell._params, cell.N, cell.T, 5, (0,))
    pr.run_replication(cell, 5, 0, market)
    recalibrated = dataclasses.replace(
        cell, calibration=dataclasses.replace(pr.default_calibration(), corr_sd=0.3))
    for other, seed, rep in ((dataclasses.replace(cell, N=9), 5, 0), (cell, 6, 0),
                             (cell, 5, 1), (recalibrated, 5, 0)):
        with pytest.raises(pr.DataError, match="market"):
            pr.run_replication(other, seed, rep, market)


def test_run_replication_summarizes_clamped_portfolios():
    # the record marks each clamped portfolio, with no warning; these counts
    # are those the replication used to warn of, one warning per estimator
    cell = pr.ExperimentCell(N=6, T=24, c=1.5, portfolios_per_rep=30, L=8,
                             estimators=("sample", "factor", "poet"), poet_K=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = pr.run_replication(cell, 11, 0)
    clamped = {name: int(d["clamped"].sum()) for name, d in rec.per_estimator.items()}
    assert clamped == {"sample": 3, "factor": 2, "poet": 1}
    for d in rec.per_estimator.values():
        assert np.all(d["sigma2"][d["clamped"]] == 0.0)


@pytest.mark.parametrize("workers", [1, 2])
def test_run_experiment_counts_the_clamped_total(workers, monkeypatch, capfd):
    # one replication per task, so two workers share three tasks.  The run
    # used to warn once of its total, 84 of 270; now the aggregates carry
    # it and no warning is given, serially or in a forked worker, which
    # inherits the error filter
    monkeypatch.setattr(sim, "_BLOCK_BUDGET", 1)
    cell = pr.ExperimentCell(N=6, T=24, c=1.5, portfolios_per_rep=30, L=8,
                             estimators=("sample", "factor", "poet"), poet_K=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = pr.run_experiment([cell], 3, workers=workers, base_seed=11)
    assert [agg.clamped_count for agg in report.cells] == [23, 43, 18]
    assert sum(agg.n_records for agg in report.cells) == 270
    assert capfd.readouterr().err == ""


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


def test_run_experiment_worker_count_invariance_where_blas_threads():
    # at N=300 OpenBLAS runs its products on several threads unless told
    # otherwise; serial and pool tasks must run the same kernels
    grid = [pr.ExperimentCell(N=300, T=300, c=1.0, portfolios_per_rep=10)]
    one = pr.run_experiment(grid, 2, workers=1, base_seed=5)
    two = pr.run_experiment(grid, 2, workers=2, base_seed=5)
    assert one.cells == two.cells
    assert {agg.estimator for agg in one.cells} == {"sample", "factor", "poet"}


def test_run_experiment_starts_no_more_workers_than_tasks(monkeypatch, tmp_path):
    # a pool forks all its workers at once: two markets of one block each
    # are two tasks, so 16 requested workers start 2.  The stand-in pool
    # records its size and maps serially, so no process is started
    import concurrent.futures

    from portrisk.reporting import experiment_cells_csv

    sizes = []

    class SerialPool:
        def __init__(self, max_workers, initializer=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    grid = [pr.ExperimentCell(N=6, T=24, c=1.5, portfolios_per_rep=5,
                              estimators=("sample", "factor")),
            pr.ExperimentCell(N=7, T=30, c=1.0, portfolios_per_rep=5,
                              estimators=("sample",))]
    for workers in (16, 1):
        report = pr.run_experiment(grid, 2, workers=workers, base_seed=23)
        experiment_cells_csv(report, tmp_path / f"{workers}.csv")
    assert sizes == [2]
    assert (tmp_path / "16.csv").read_bytes() == (tmp_path / "1.csv").read_bytes()


def test_block_size_follows_the_memory_budget():
    # the coupled block at its largest (8 N^2 bytes) or the factor chain
    # (48 (500 + T) bytes), whichever is larger, per replication of a
    # 1 MiB block
    assert ([_block_size(N, 300) for N in (1, 20, 69, 70, 100, 256, 257, 600)]
            == [27, 27, 27, 26, 13, 2, 1, 1])
    assert _block_size(1, 100_000) == 1


def test_replication_holds_at_most_two_n_by_n_arrays_above_its_market():
    # the market keeps its error covariance in parts and no true
    # covariance; a sample replication then holds its estimate and one
    # N x N temporary for max |S - Sigma|.  Before, the market held Sigma_u
    # and Sigma_true (2.2 N x N here) and the replication 3.2 N x N above it
    import tracemalloc

    N, T = 400, 60
    cell = pr.ExperimentCell(N=N, T=T, c=1.5, estimators=("sample",), portfolios_per_rep=20)
    square = 8 * N * N
    tracemalloc.start()
    try:
        [market] = _generate_markets(cell._params, N, T, 13, (0,))
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        pr.run_replication(cell, 13, 0, market)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    # the panel (T x N) and the instance's O(N) parts and small block
    assert held < 0.5 * square, held / square
    assert peak < 2.5 * square, peak / square


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


def test_run_experiment_zero_workers_is_a_data_error(monkeypatch):
    # 0 used to mean the default worker count, where PRL_THREADS=0 is an error
    def no_market(*args):
        raise AssertionError("a market was simulated")

    monkeypatch.setattr(pr.simulation, "_generate_markets", no_market)
    cell = pr.ExperimentCell(N=5, T=20, c=1.0, estimators=("sample",))
    with pytest.raises(pr.DataError, match="workers must be positive, got 0"):
        pr.run_experiment([cell], 5, workers=0)


def _pooled_against_records(cell, replications, base_seed):
    # each aggregate's means and sds against np.mean / np.std(ddof=1) of
    # the finite values of the concatenated records
    report = pr.run_experiment([cell], replications, workers=1, base_seed=base_seed)
    records = [pr.run_replication(cell, base_seed, rep) for rep in range(replications)]
    risk = np.sqrt(np.concatenate([r.true_variance for r in records]))
    for agg in report.cells:
        def stacked(key):
            return np.concatenate([r.per_estimator[agg.estimator][key] for r in records])

        for x, key in sim._CELL_STATS.items():
            values = risk if key is None else stacked(key)
            values = values[np.isfinite(values)]
            for got, want in ((getattr(agg, f"mean_{x}"), np.mean(values)),
                              (getattr(agg, f"sd_{x}"), np.std(values, ddof=1)
                               if values.size > 1 else np.nan)):
                if np.isnan(want):
                    assert np.isnan(got), (agg.estimator, x)
                else:
                    assert got == pytest.approx(want, rel=1e-13, abs=0.0), (agg.estimator, x)
        assert agg.coverage == stacked("covered").mean()
        assert agg.clamped_count == int(stacked("clamped").sum())
        assert agg.n_records == risk.size
    return report, records


def test_pooled_moments_equal_those_of_the_concatenated_records():
    # the cell of test_run_replication_summarizes_clamped_portfolios: its
    # clamped portfolios have U = 0, so RE1 is NaN there and each
    # replication counts fewer RE1 values than portfolios
    cell = pr.ExperimentCell(N=6, T=24, c=1.5, portfolios_per_rep=30, L=8,
                             estimators=("sample", "factor", "poet"), poet_K=2)
    report, records = _pooled_against_records(cell, 4, 11)
    assert sum(agg.clamped_count for agg in report.cells) > 0
    assert any(np.isnan(r.per_estimator[name]["re1"]).any()
               for r in records for name in cell.estimators)


def test_one_portfolio_in_one_replication_has_means_and_no_sds():
    cell = pr.ExperimentCell(N=6, T=24, c=1.5, portfolios_per_rep=1,
                             estimators=("sample", "poet"), poet_K=2)
    report, _ = _pooled_against_records(cell, 1, 5)
    for agg in report.cells:
        assert np.isfinite(agg.mean_delta) and agg.n_records == 1
        assert all(np.isnan(getattr(agg, f"sd_{x}")) for x in sim._CELL_STATS)


def test_run_experiment_holds_one_summary_per_replication(monkeypatch):
    # one-replication blocks, so each task's summaries reach the parent at
    # once; before, the parent held every portfolio's figures until it
    # aggregated them, 13.8 KB per replication here
    monkeypatch.setattr(sim, "_BLOCK_BUDGET", 0)
    cell = pr.ExperimentCell(N=20, T=60, c=1.5, portfolios_per_rep=50)

    def peak(replications):
        tracemalloc.start()
        try:
            pr.run_experiment([cell], replications, workers=1, base_seed=7)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)
    per_replication = (peak(80) - peak(20)) / 60
    assert per_replication < 4096, per_replication


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


@pytest.mark.parametrize("key", ["factor_rule", "poet_rule"])
def test_parse_grid_config_rejects_an_empty_threshold_rule(key):
    # an empty value used to run the estimator's default rule
    with pytest.raises(pr.DataError, match="unknown threshold rule ''"):
        pr.parse_grid_config(f"Ns = 20\nTs = 60\ncs = 1\n{key} =\n")


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_parse_grid_config_rejects_a_bad_periods_per_year(value):
    # used to pass until the figures were annualized, after the whole run
    with pytest.raises(pr.DataError, match="periods_per_year must be a finite positive"):
        pr.parse_grid_config(f"Ns = 5\nTs = 20\ncs = 1\nperiods_per_year = {value}\n")


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
