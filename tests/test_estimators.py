"""Covariance estimators: thresholding, factor fits, POET, K selection."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import portrisk as pr
import oracles
from helpers import calibrated_market, make_factor_panel, make_panel

# frozen regression values from fixed-seed runs
DIAG_NOISE_K = 1
ENSURE_PD_FINAL_C = 0.4


# --------------------------------------------------------------- thresholds

def test_threshold_examples():
    hard = pr.ThresholdRule("hard")
    soft = pr.ThresholdRule("soft")
    assert pr.apply_threshold(0.5, 0.6, hard) == 0.0
    assert pr.apply_threshold(0.8, 0.3, soft) == pytest.approx(0.5, abs=1e-15)
    assert pr.apply_threshold(-0.8, 0.3, soft) == pytest.approx(-0.5, abs=1e-15)
    assert pr.apply_threshold(0.7, 0.6, hard) == 0.7


def test_threshold_rejects_bad_inputs():
    with pytest.raises(pr.DataError):
        pr.apply_threshold(0.5, -0.1, pr.ThresholdRule("soft"))
    with pytest.raises(pr.DataError):
        pr.ThresholdRule("tanh")
    with pytest.raises(pr.DataError):
        pr.ThresholdRule("scad", scad_a=2.0)


def test_threshold_matches_reference_pointwise():
    rng = pr.derive_rng(101, "thresh")
    zs = rng.uniform(-3.0, 3.0, 4000)
    taus = rng.uniform(0.0, 1.5, 4000)
    refs = {
        "hard": oracles.hard_ref,
        "soft": oracles.soft_ref,
        "scad": oracles.scad_ref,
    }
    for kind, ref in refs.items():
        rule = pr.ThresholdRule(kind)
        for z, tau in zip(zs, taus):
            got = pr.apply_threshold(z, tau, rule)
            assert got == pytest.approx(ref(z, tau), abs=1e-14), (kind, z, tau)
            # the defining contract
            if abs(z) <= tau:
                assert got == 0.0
            assert abs(got - z) <= tau + 1e-14


def test_threshold_monotone_in_C():
    _, panel, fpanel = calibrated_market(30, 60, 201)
    fit = pr.ols_factor_fit(panel, fpanel)
    for kind in ("hard", "soft"):
        rule = pr.ThresholdRule(kind)
        prev = None
        for C in (0.0, 0.1, 0.3, 0.8, 2.0):
            sys_part = fit.loadings @ fit.factor_cov @ fit.loadings.T
            resid = pr.factor_covariance(fit, rule, C).matrix - sys_part
            if prev is not None:
                off = ~np.eye(30, dtype=bool)
                assert np.all(np.abs(resid[off]) <= np.abs(prev[off]) + 1e-14), kind
            prev = resid


# --------------------------------------------------------- sample covariance

def test_sample_covariance_single_asset_uncentered():
    panel = make_panel([[1.0], [-1.0]])
    est = pr.sample_covariance(panel, demean_flag=False)
    assert est.matrix[0, 0] == 1.0
    assert est.kind == "sample"


def test_sample_covariance_matches_oracle():
    rng = pr.derive_rng(103, "scov")
    X = rng.standard_normal((17, 5)) + 0.3
    panel = make_panel(X)
    for flag in (True, False):
        got = pr.sample_covariance(panel, demean_flag=flag).matrix
        ref = oracles.sample_cov_oracle(X, demean=flag)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_sample_covariance_singular_when_N_exceeds_T():
    rng = pr.derive_rng(105, "sing")
    panel = make_panel(rng.standard_normal((3, 4)))
    est = pr.sample_covariance(panel)
    vals = np.linalg.eigvalsh(est.matrix)
    assert np.sum(vals > 1e-10 * vals[-1]) <= 3
    # a null-space direction prices to zero variance
    null = np.linalg.eigh(est.matrix).eigenvectors[:, 0]
    assert abs(pr.portfolio_variance(est, null)) <= 1e-12 * vals[-1]


def test_portfolio_variance_examples():
    est = pr.CovarianceEstimate(0.04 * np.eye(3), "sample")
    w = pr.equal_weight(3)
    assert abs(pr.portfolio_variance(est, w) - 0.04 / 3) <= 1e-12
    e1 = np.array([1.0, 0.0, 0.0])
    assert pr.portfolio_variance(est, e1) == est.matrix[0, 0]
    with pytest.raises(pr.DataError):
        pr.portfolio_variance(est, np.ones(4))


def test_portfolio_variance_equals_series_variance():
    rng = pr.derive_rng(107, "pvar")
    X = rng.standard_normal((40, 6)) * 2 + 1
    panel = make_panel(X)
    w = pr.sample_random_portfolio(6, 1.6, rng)
    v = pr.portfolio_variance(pr.sample_covariance(panel), w)
    series = X @ w.weights
    direct = float(np.mean((series - series.mean()) ** 2))
    assert abs(v - direct) <= 1e-12 * direct


def test_covariance_estimate_validation():
    bad = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(pr.NumericalError, match="not symmetric"):
        pr.CovarianceEstimate(bad, "sample")
    with pytest.raises(pr.NumericalError, match="diagonal"):
        pr.CovarianceEstimate(np.diag([1.0, 0.0]), "sample")
    with pytest.raises(pr.DataError):
        pr.CovarianceEstimate(np.eye(2), "magic")
    est = pr.CovarianceEstimate(np.diag([2.0, 5.0]), "sample")
    assert est.min_eigenvalue == pytest.approx(2.0)
    assert est.max_eigenvalue == pytest.approx(5.0)


@pytest.mark.parametrize("T, N", [(30, 7), (40, 60), (120, 150), (90, 33)])
def test_built_sample_and_poet_matrices_are_stored_exactly_symmetric(T, N):
    # these skip the symmetrize pass; what they store must be its result
    rng = pr.derive_rng(113, "sym", T, N)
    for order in "CF":
        panel = make_panel(np.asarray(rng.standard_normal((T, N)) + 0.1, order=order))
        built = [pr.sample_covariance(panel, flag).matrix for flag in (True, False)]
        built += [pr.poet_covariance(panel, K, pr.ThresholdRule(rule), 0.7, demean=flag).matrix
                  for K in (1, 3) for rule in ("hard", "soft", "scad") for flag in (True, False)]
        for m in built:
            assert m.tobytes() == ((m + m.T) / 2.0).tobytes()
            assert not m.flags.writeable


def test_caller_matrices_keep_the_symmetry_check():
    bad = np.array([[1.0, 0.5], [0.2, 1.0]])
    for kind in ("sample", "factor", "poet"):
        with pytest.raises(pr.NumericalError, match="not symmetric"):
            pr.CovarianceEstimate(bad, kind)
    # noise-level asymmetry is averaged away
    noisy = np.array([[1.0, 0.5], [0.5 + 1e-15, 1.0]])
    assert np.array_equal(pr.CovarianceEstimate(noisy, "sample").matrix,
                          (noisy + noisy.T) / 2.0)


# ------------------------------------------------------------- observed fit

def test_ols_perfect_fit():
    rng = pr.derive_rng(109, "ols1")
    f = rng.standard_normal((30, 1))
    panel = make_panel(np.hstack([f, 2.0 * f]))
    fit = pr.ols_factor_fit(panel, make_factor_panel(f))
    assert fit.loadings[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert fit.loadings[1, 0] == pytest.approx(2.0, abs=1e-12)
    assert np.max(np.abs(fit.residuals)) <= 1e-12
    assert fit.source == "observed"


def test_ols_absorbs_intercept():
    rng = pr.derive_rng(111, "ols2")
    f = rng.standard_normal((25, 1))
    panel = make_panel(2.0 * f + 5.0)
    fit = pr.ols_factor_fit(panel, make_factor_panel(f))
    assert fit.loadings[0, 0] == pytest.approx(2.0, abs=1e-12)
    assert np.max(np.abs(fit.residuals)) <= 1e-12


def test_ols_residual_identity_and_factor_cov():
    _, panel, fpanel = calibrated_market(12, 80, 113)
    fit = pr.ols_factor_fit(panel, fpanel)
    recon = fit.factors @ fit.loadings.T + fit.residuals
    target = panel.demeaned_values
    assert np.max(np.abs(recon - target)) <= 1e-10 * np.max(np.abs(target))
    Xf = fpanel.values - fpanel.values.mean(axis=0)
    assert np.allclose(fit.factor_cov, Xf.T @ Xf / fpanel.T, atol=1e-14)


def test_ols_requires_alignment_and_enough_rows():
    _, panel, fpanel = calibrated_market(5, 30, 115)
    shifted = pr.FactorPanel(tuple(d + "x" for d in fpanel.dates),
                             fpanel.factor_names, fpanel.values)
    with pytest.raises(pr.DataError, match="not aligned"):
        pr.ols_factor_fit(panel, shifted)
    small = make_panel([[0.1, 0.2], [0.2, 0.1], [0.0, 0.3]])
    ff = make_factor_panel(np.ones((3, 3)))
    with pytest.raises(pr.DataError):
        pr.ols_factor_fit(small, ff)


def test_ols_loading_error_shrinks_with_T():
    errs = {}
    for T in (100, 400):
        inst, panel, fpanel = calibrated_market(50, T, (79, "olsmc"))
        fit = pr.ols_factor_fit(panel, fpanel)
        errs[T] = float(np.max(np.abs(fit.loadings - inst.B)))
    assert errs[400] < errs[100]
    assert errs[400] < 0.5  # loadings are O(1); the fit has to be in the room


def test_ols_singular_gram_matrix():
    rng = pr.derive_rng(117, "gram")
    f1 = rng.standard_normal((20, 1))
    fpanel = make_factor_panel(np.hstack([f1, f1]))  # collinear pair
    panel = make_panel(rng.standard_normal((20, 4)))
    with pytest.raises(pr.NumericalError, match="singular"):
        pr.ols_factor_fit(panel, fpanel)


# ------------------------------------------------------- factor covariance

def test_factor_covariance_C0_keeps_full_residual_cov():
    _, panel, fpanel = calibrated_market(15, 60, 119)
    fit = pr.ols_factor_fit(panel, fpanel)
    S_u = fit.residuals.T @ fit.residuals / fit.T
    expected = fit.loadings @ fit.factor_cov @ fit.loadings.T + S_u
    got = pr.factor_covariance(fit, pr.ThresholdRule("soft"), 0.0)
    assert np.max(np.abs(got.matrix - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert got.kind == "factor"
    assert got.tuning == {"C": 0.0, "rule": "soft", "K": 3}


def test_factor_covariance_large_C_diagonal_residual():
    # with a huge C every off-diagonal of the residual covariance is cut,
    # leaving the low-rank part plus the residual diagonal (checked up to
    # the rounding of re-multiplying the low-rank product here)
    _, panel, fpanel = calibrated_market(15, 60, 119)
    fit = pr.ols_factor_fit(panel, fpanel)
    got = pr.factor_covariance(fit, pr.ThresholdRule("hard"), 1e6)
    S_u = fit.residuals.T @ fit.residuals / fit.T
    expected = fit.loadings @ fit.factor_cov @ fit.loadings.T + np.diag(np.diag(S_u))
    assert np.max(np.abs(got.matrix - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_factor_covariance_cutoff_formula():
    # hard rule: entry ij survives exactly when |S_u,ij| exceeds
    # C * sqrt(S_u,ii S_u,jj) * sqrt(log N / T)
    _, panel, fpanel = calibrated_market(20, 50, 121)
    fit = pr.ols_factor_fit(panel, fpanel)
    S_u = fit.residuals.T @ fit.residuals / fit.T
    C = 0.4
    tau = C * np.sqrt(np.outer(np.diag(S_u), np.diag(S_u))) * math.sqrt(math.log(20) / 50)
    got = pr.factor_covariance(fit, pr.ThresholdRule("hard"), C)
    resid = got.matrix - fit.loadings @ fit.factor_cov @ fit.loadings.T
    expected = np.where(np.abs(S_u) <= tau, 0.0, S_u)
    np.fill_diagonal(expected, np.diag(S_u))
    assert np.max(np.abs(resid - expected)) <= 1e-12 * np.max(np.abs(S_u))
    # some but not all off-diagonals must have been cut for the test to bite
    off = ~np.eye(20, dtype=bool)
    n_zero = int(np.sum(expected[off] == 0.0))
    assert 0 < n_zero < off.sum()


# ---------------------------------------------------------------- PCA fits

def test_pca_normalization_and_diagonal_gram():
    _, panel, _ = calibrated_market(40, 90, 123)
    fit = pr.pca_factor_fit(panel, 3)
    FtF = fit.factors.T @ fit.factors / fit.T
    assert np.max(np.abs(FtF - np.eye(3))) <= 1e-8
    gram = fit.loadings.T @ fit.loadings
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) <= 1e-6 * np.max(np.abs(np.diag(gram)))
    assert fit.source == "pca"
    assert np.array_equal(fit.factor_cov, np.eye(3))


def test_pca_rank_one_panel_exact():
    rng = pr.derive_rng(125, "rank1")
    b = rng.standard_normal(7)
    f = rng.standard_normal(30)
    panel = make_panel(np.outer(f, b), dates=None, assets=None)
    fit = pr.pca_factor_fit(panel, 1)
    assert np.max(np.abs(fit.residuals)) <= 1e-10 * np.max(np.abs(panel.values))


def test_pca_full_rank_reconstruction():
    rng = pr.derive_rng(127, "full")
    panel = make_panel(rng.standard_normal((12, 6)))
    fit = pr.pca_factor_fit(panel, 6)
    assert np.max(np.abs(fit.residuals)) <= 1e-10


def test_pca_sign_convention_is_deterministic():
    _, panel, _ = calibrated_market(25, 60, 129)
    a = pr.pca_factor_fit(panel, 3)
    b = pr.pca_factor_fit(panel, 3)
    assert np.array_equal(a.loadings, b.loadings)
    assert np.array_equal(a.factors, b.factors)
    for j in range(3):
        col = a.loadings[:, j]
        assert col[int(np.argmax(np.abs(col)))] > 0


def test_pca_narrow_and_wide_panels_agree():
    # N < T and N > T take different Gram-matrix routes; on the same data
    # (transposable only in shape, so compare via the implied low-rank part)
    rng = pr.derive_rng(131, "gram2")
    X = rng.standard_normal((30, 20))
    tall = make_panel(X)            # N=20 <= T=30
    wide = make_panel(X[:15])       # N=20 > T=15
    for panel in (tall, wide):
        fit = pr.pca_factor_fit(panel, 2)
        FtF = fit.factors.T @ fit.factors / fit.T
        assert np.max(np.abs(FtF - np.eye(2))) <= 1e-8
    with pytest.raises(pr.DataError):
        pr.pca_factor_fit(wide, 16)


# -------------------------------------------------------------------- POET

def test_poet_C0_reproduces_sample_covariance():
    _, panel, _ = calibrated_market(50, 80, 133)
    S = pr.sample_covariance(panel).matrix
    got = pr.poet_covariance(panel, 3, pr.ThresholdRule("soft"), 0.0).matrix
    rel = np.linalg.norm(got - S) / np.linalg.norm(S)
    assert rel <= 1e-10


def test_poet_large_C_keeps_lowrank_plus_diagonal():
    _, panel, _ = calibrated_market(30, 50, 135)
    S = pr.sample_covariance(panel).matrix
    evals, evecs = np.linalg.eigh(S)
    lead = evecs[:, ::-1][:, :3]
    lam = evals[::-1][:3]
    lowrank = (lead * lam) @ lead.T
    complement = S - lowrank
    expected = lowrank + np.diag(np.diag(complement))
    got = pr.poet_covariance(panel, 3, pr.ThresholdRule("hard"), 1e6).matrix
    assert np.max(np.abs(got - expected)) <= 1e-10 * np.max(np.abs(S))


def test_poet_matches_definition_with_soft_rule():
    # full white-box parity against an independent eigendecomposition
    _, panel, _ = calibrated_market(25, 40, 137)
    N, T, K, C = 25, 40, 3, 0.5
    S = pr.sample_covariance(panel).matrix
    evals, evecs = np.linalg.eigh(S)
    lead = evecs[:, ::-1][:, :K]
    lam = evals[::-1][:K]
    lowrank = (lead * lam) @ lead.T
    omega = S - lowrank
    d = np.clip(np.diag(omega), 0.0, None)
    tau = C * np.sqrt(np.outer(d, d)) * (math.sqrt(math.log(N) / T) + 1 / math.sqrt(N))
    shrunk = np.sign(omega) * np.maximum(np.abs(omega) - tau, 0.0)
    np.fill_diagonal(shrunk, np.diag(omega))
    expected = lowrank + shrunk
    got = pr.poet_covariance(panel, K, pr.ThresholdRule("soft"), C).matrix
    assert np.max(np.abs(got - expected)) <= 1e-10 * np.max(np.abs(S))


def test_poet_positive_definite_in_wide_panel():
    _, panel, _ = calibrated_market(200, 100, (37, "poetpd"))
    est = pr.poet_covariance(panel, 3, pr.ThresholdRule("soft"), 0.5)
    assert est.min_eigenvalue > 0


@pytest.mark.parametrize("N, T", [(25, 60), (80, 40)])
def test_poet_is_the_factor_estimate_of_its_pca_fit(N, T):
    _, panel, _ = calibrated_market(N, T, (151, "poetfit"))
    for K in (1, 3):
        for kind in ("hard", "soft", "scad"):
            for demean in (True, False):
                rule = pr.ThresholdRule(kind)
                poet = pr.poet_covariance(panel, K, rule, 0.5, demean=demean)
                fit = pr.pca_factor_fit(panel, K, demean=demean)
                same = pr.factor_covariance(fit, rule, 0.5)
                assert poet.kind == same.kind == "poet"
                assert poet.tuning == same.tuning
                assert poet.matrix.tobytes() == same.matrix.tobytes()


@pytest.mark.parametrize("N, T", [(20, 60), (50, 50), (120, 40)])
def test_pca_residual_covariance_is_the_principal_orthogonal_complement(N, T):
    # S - B B', the complement POET thresholds, is the covariance U'U / T
    # of the PCA residuals, on narrow and wide panels alike
    _, panel, _ = calibrated_market(N, T, (153, "complement"))
    for K in (1, 3, 5):
        for demean in (True, False):
            fit = pr.pca_factor_fit(panel, K, demean=demean)
            S = pr.sample_covariance(panel, demean).matrix
            gap = S - fit.loadings @ fit.loadings.T - fit.residuals.T @ fit.residuals / T
            assert np.max(np.abs(gap)) <= 1e-13 * np.max(np.abs(S))


@pytest.mark.parametrize("N, T", [(30, 60), (90, 40)])
def test_factor_and_poet_estimates_are_exactly_symmetric(N, T):
    _, panel, fpanel = calibrated_market(N, T, (155, "symmetric"))
    fit = pr.ols_factor_fit(panel, fpanel)
    for kind in ("hard", "soft", "scad"):
        rule = pr.ThresholdRule(kind)
        for est in (pr.factor_covariance(fit, rule, 0.3), pr.poet_covariance(panel, 3, rule, 0.5)):
            for m in (est.matrix, est._rebuild(4.0 * est.tuning["C"]).matrix):
                assert np.array_equal(m, m.T)


@pytest.mark.parametrize("N, T, index", [(20, 60, 0), (20, 60, 7), (60, 30, 7), (60, 30, 59)])
def test_a_constant_asset_raises_naming_its_index(N, T, index):
    # the asset's demeaned returns are exact zeros, so its residual
    # variance is exactly zero under either fit
    _, panel, fpanel = calibrated_market(N, T, (157, "constant"))
    values = panel.values.copy()
    values[:, index] = 0.25
    flat = pr.ReturnsPanel(panel.dates, panel.assets, values)
    rule = pr.ThresholdRule("soft")
    for build in (lambda: pr.factor_covariance(pr.ols_factor_fit(flat, fpanel), rule, 0.3),
                  lambda: pr.poet_covariance(flat, 3, rule, 0.5)):
        with pytest.raises(pr.NumericalError,
                           match=f"^non-positive residual variance for asset index {index}$"):
            build()


def test_poet_rejects_bad_K():
    _, panel, _ = calibrated_market(10, 20, 141)
    with pytest.raises(pr.DataError):
        pr.poet_covariance(panel, 0, pr.ThresholdRule("soft"), 0.5)
    with pytest.raises(pr.DataError):
        pr.poet_covariance(panel, 10, pr.ThresholdRule("soft"), 0.5)


# ------------------------------------------------------------- K selection

def test_select_num_factors_rank_one():
    rng = pr.derive_rng(143, "k1")
    b = rng.standard_normal(12)
    f = rng.standard_normal(60)
    panel = make_panel(np.outer(f, b))
    assert pr.select_num_factors(panel, 5) == 1


def test_select_num_factors_matches_stated_criterion():
    _, panel, _ = calibrated_market(30, 70, 145)
    N, T, k_max = 30, 70, 8
    ics = []
    for k in range(1, k_max + 1):
        fit = pr.pca_factor_fit(panel, k)
        V = float(np.mean(fit.residuals ** 2))
        ics.append(math.log(V) + k * ((N + T) / (N * T)) * math.log(N * T / (N + T)))
    assert pr.select_num_factors(panel, k_max) == 1 + int(np.argmin(ics))


def test_select_num_factors_recovers_three_when_all_factors_are_strong():
    # widen the dispersion of the second loading column so the weakest
    # factor's population eigenvalue (about 32 here) clears the noise
    # bulk; the criterion then recovers all three factors reliably
    base = pr.default_calibration()
    SB = np.array(base.Sigma_B)
    SB[1, 1] = 0.8
    strong = dataclasses.replace(base, Sigma_B=SB)
    hits = 0
    for rep in range(20):
        _, panel, _ = calibrated_market(100, 300, (31, "baistrong", rep), strong)
        hits += pr.select_num_factors(panel, 8) == 3
    assert hits >= 15  # clear majority


def test_select_num_factors_reports_two_detectable_factors_at_table_values():
    # under the headline calibration the second loading column is so
    # tightly dispersed that its eigenvalue (about 6.7 in population)
    # sits at the edge of the sample noise bulk at N=100, T=300; a
    # consistent criterion reports the two factors it can actually see
    hits = 0
    for rep in range(9):
        _, panel, _ = calibrated_market(100, 300, (31, "bai", rep))
        hits += pr.select_num_factors(panel, 8) == 2
    assert hits >= 7


def test_select_num_factors_diagonal_noise_baseline():
    rng = pr.derive_rng(29, "diagnoise")
    Y = rng.standard_normal((120, 30)) * np.linspace(0.5, 2.0, 30)
    panel = make_panel(Y)
    assert pr.select_num_factors(panel, 8) == DIAG_NOISE_K


def test_select_num_factors_range_check():
    _, panel, _ = calibrated_market(10, 20, 147)
    with pytest.raises(pr.DataError):
        pr.select_num_factors(panel, 0)
    with pytest.raises(pr.DataError):
        pr.select_num_factors(panel, 10)


# --------------------------------------------------------------- PD repair

def test_ensure_pd_leaves_pd_input_alone():
    _, panel, _ = calibrated_market(30, 60, 149)
    est = pr.poet_covariance(panel, 3, pr.ThresholdRule("soft"), 0.5)
    assert est.min_eigenvalue > 1e-8
    assert pr.ensure_positive_definite(est) is est


def test_ensure_pd_requires_thresholded_kind():
    est = pr.CovarianceEstimate(np.eye(3), "sample")
    with pytest.raises(pr.DataError):
        pr.ensure_positive_definite(est)


def test_ensure_pd_doubles_C_until_pd():
    _, panel, _ = calibrated_market(300, 100, (23, "pdfix"))
    start = pr.poet_covariance(panel, 3, pr.ThresholdRule("soft"), 0.05)
    assert start.min_eigenvalue <= 1e-8  # the repair has work to do
    fixed = pr.ensure_positive_definite(start)
    assert fixed.min_eigenvalue > 1e-8
    assert fixed.tuning["C"] == ENSURE_PD_FINAL_C
    rebuilt = pr.poet_covariance(panel, 3, pr.ThresholdRule("soft"), fixed.tuning["C"])
    assert np.array_equal(rebuilt.matrix, fixed.matrix)


def test_ensure_pd_keeps_the_scad_parameter():
    # the repair used to rebuild the rule from its kind alone, so scad_a
    # fell back to 3.7
    _, panel, _ = calibrated_market(300, 100, (23, "pdfix"))
    rule = pr.ThresholdRule("scad", 6.0)
    fixed = pr.ensure_positive_definite(pr.poet_covariance(panel, 3, rule, 0.05))
    rebuilt = pr.poet_covariance(panel, 3, rule, fixed.tuning["C"])
    assert np.array_equal(rebuilt.matrix, fixed.matrix)


def test_ensure_pd_reuses_the_poet_pca_fit(monkeypatch):
    # each doubling used to refit the PCA of the whole panel
    _, panel, _ = calibrated_market(300, 100, (23, "pdfix"))
    start = pr.poet_covariance(panel, 3, pr.ThresholdRule("soft"), 0.05)
    calls = []
    fit = pr.estimators.pca_factor_fit

    def counted(*args, **kwargs):
        calls.append(args)
        return fit(*args, **kwargs)

    monkeypatch.setattr(pr.estimators, "pca_factor_fit", counted)
    fixed = pr.ensure_positive_definite(start)
    assert fixed.tuning["C"] == ENSURE_PD_FINAL_C
    assert calls == []


# the eigvalsh-only repair in oracles is the reference: deciding by a
# Cholesky factorization instead of the eigenvalues changes no verdict

def _pd_repair_builder(kind, panel, factors):
    """C -> a fresh factor (hard rule) or poet (soft rule, K=3) estimate."""
    if kind == "factor":
        fit = pr.ols_factor_fit(panel, factors)
        return lambda C: pr.factor_covariance(fit, pr.ThresholdRule("hard"), C)
    return lambda C: pr.poet_covariance(panel, 3, pr.ThresholdRule("soft"), C)


@pytest.mark.parametrize("kind, C, doublings", [
    ("factor", 1.2, 0), ("factor", 0.6, 1), ("factor", 0.3, 2), ("factor", 0.05, 5),
    ("poet", 0.2, 0), ("poet", 0.1, 1), ("poet", 0.05, 2), ("poet", 0.02, 3),
])
def test_ensure_pd_matches_the_eigvalsh_oracle(kind, C, doublings):
    _, panel, factors = calibrated_market(60, 40, (5, "pd"))
    build = _pd_repair_builder(kind, panel, factors)
    start = build(C)
    got = pr.ensure_positive_definite(start)
    want = oracles.ensure_positive_definite_eigvalsh(build(C))
    assert got.tuning == want.tuning
    assert got.tuning["C"] == C * 2 ** doublings
    assert got.matrix.tobytes() == want.matrix.tobytes()
    assert (got is start) == (doublings == 0)
    # the rebuild from the kept parts equals a build from scratch
    assert got.matrix.tobytes() == build(got.tuning["C"]).matrix.tobytes()
    assert got.min_eigenvalue > 1e-8


@pytest.mark.parametrize("noise", [1e-9, 1e-7])
def test_ensure_pd_raises_the_oracle_error_after_20_doublings(noise):
    # four assets spanned by the three factors up to noise: their residual
    # variances are near zero, so no threshold makes the estimate PD.  At
    # 1e-9 the last candidate's Cholesky factorization fails, at 1e-7 it
    # succeeds and the eigenvalue decides
    _, panel, factors = calibrated_market(60, 40, (5, "pd"))
    rng = np.random.default_rng(11)
    values = panel.values.copy()
    values[:, :4] = factors.values @ rng.standard_normal((3, 4)) + noise * rng.standard_normal((40, 4))
    build = _pd_repair_builder("factor", make_panel(values), make_factor_panel(factors.values))
    with pytest.raises(pr.NumericalError) as got:
        pr.ensure_positive_definite(build(0.3))
    with pytest.raises(pr.NumericalError) as want:
        oracles.ensure_positive_definite_eigvalsh(build(0.3))
    assert str(got.value) == str(want.value) == (
        "still not positive definite after 20 doublings (C=314573)")


def test_ensure_pd_rejects_failed_factorizations_without_eigenvalues(monkeypatch):
    # C=0.3 and 0.6 fail their Cholesky factorization and 1.2 passes; no
    # candidate, rejected or kept, is eigendecomposed
    _, panel, factors = calibrated_market(60, 40, (5, "pd"))
    start = _pd_repair_builder("factor", panel, factors)(0.3)
    decomposed = []
    eigvalsh = np.linalg.eigvalsh

    def counted(m, *args, **kwargs):
        decomposed.append(m)
        return eigvalsh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    fixed = pr.ensure_positive_definite(start)
    assert fixed.tuning["C"] == 1.2
    assert len(decomposed) == 0
    assert start._failed == 1e-8 and start._eig_range is None
    assert fixed._passed == 1e-8 and fixed._eig_range is None


def test_a_shifted_factorization_decides_cuts_around_a_known_spectrum(monkeypatch):
    # M = Q diag(lam) Q' with smallest eigenvalue 1e-6: cuts 2 and 8
    # rounding levels (N * eps * max diag) to either side decide as
    # 1e-6 > cut, each by one factorization of M - cut * I, and a cut that
    # an estimate's earlier pass or failure answers factors nothing
    rng = np.random.default_rng(83)
    N = 60
    Q, _ = np.linalg.qr(rng.standard_normal((N, N)))
    M = (Q * np.concatenate([[1e-6], np.logspace(-2, 0, N - 1)])) @ Q.T
    M = (M + M.T) / 2.0
    level = N * np.finfo(float).eps * float(np.max(np.diag(M)))
    factorized = []
    cholesky = np.linalg.cholesky

    def counted(m):
        factorized.append(m)
        return cholesky(m)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    for k in (-8, -2, 2, 8):
        cut = 1e-6 + k * level
        assert pr.CovarianceEstimate(M, "factor")._min_eigenvalue_above(cut) == (k < 0)
        assert np.array_equal(factorized[-1], M - cut * np.eye(N))
    est = pr.CovarianceEstimate(M, "factor")
    assert est._min_eigenvalue_above(1e-6 - 2 * level)
    assert not est._min_eigenvalue_above(1e-6 + 2 * level)
    assert len(factorized) == 6
    for lower in (1e-6 - 8 * level, 1e-8, -1.0):
        assert est._min_eigenvalue_above(lower)
    for higher in (1e-6 + 8 * level, 1e-3, 1.0):
        assert not est._min_eigenvalue_above(higher)
    assert len(factorized) == 6 and est._eig_range is None


def _pd_test_matrix(kind, N, seed):
    """A random symmetric matrix: a near-singular Wishart (N+1 to N+4
    degrees of freedom), factor plus diagonal, or rank-deficient plus
    delta * I."""
    rng = np.random.default_rng(seed)
    if kind == "wishart":
        X = rng.standard_normal((N + int(rng.integers(1, 5)), N))
        return X.T @ X / X.shape[0]
    if kind == "factor":
        B = rng.normal(1.0, 0.7, size=(N, int(rng.integers(1, 4))))
        return B @ B.T + np.diag(rng.uniform(0.1, 2.0, size=N))
    X = rng.standard_normal((int(rng.integers(1, N)), N))
    return X.T @ X / X.shape[0] + 10.0 ** rng.uniform(-14, -2) * np.eye(N)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["wishart", "factor", "deficient"]), N=st.integers(3, 300),
       scale=st.sampled_from([1e-4, 1.0, 1e2]), seed=st.integers(0, 2**32 - 1),
       t=st.floats(1.01, 8.0))
def test_positive_definiteness_matches_the_smallest_eigenvalue(kind, N, scale, seed, t):
    # the Cholesky verdict equals eigvalsh's wherever the smallest
    # eigenvalue is more than N^2 * eps * max diag from the cut: the
    # package's two cuts, and cuts t such distances to either side
    matrix = pr.CovarianceEstimate(scale * _pd_test_matrix(kind, N, seed), "sample").matrix
    lam = np.linalg.eigvalsh(matrix)[0]
    band = N * N * np.finfo(float).eps * float(np.max(np.diag(matrix)))
    for cut in (1e-10, 1e-8, lam - t * band, lam + t * band):
        if abs(lam - cut) > band:
            verdict = pr.CovarianceEstimate(matrix, "sample")._min_eigenvalue_above(cut)
            assert verdict == (lam > cut)
