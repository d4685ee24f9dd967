"""README's equivariance claims for the estimators and the H-CLUB bound.

Doubling the returns is exact in floating point, so the sample, factor and
POET estimates, the long-run variances and the bounds scale by powers of
two bit for bit.  Permuting the assets permutes the estimates only up to
rounding: a reordered sum rounds differently.
"""

import numpy as np
import pytest

import portrisk as pr
from portrisk.estimators import ESTIMATOR_NAMES
from portrisk.simulation import _generate_markets

SHAPES = [(40, 120), (100, 300), (300, 252)]


@pytest.fixture(scope="module", params=SHAPES, ids=lambda nt: f"N{nt[0]}-T{nt[1]}")
def market(request):
    N, T = request.param
    [m] = _generate_markets(pr.default_calibration(), N, T, 17, (0,))
    panel, fpanel = m.panel, m.fpanel
    W = pr.sample_random_weights(N, 1.6, pr.derive_rng(17, "equivariance", N, T), P=8)
    return panel, fpanel, W


def _scaled(panel, s):
    return pr.ReturnsPanel(panel.dates, panel.assets, s * panel.values)


def _assess(fitted, W, L=5, tau=0.05):
    """Estimate, variances, long-run variances, H-CLUB bounds and their
    risk-scale forms for W's columns."""
    variances, sigma2, u_variance, _ = fitted.assess(W, L, pr.hclub_z(tau))
    return (fitted.estimate.matrix, variances, sigma2, u_variance,
            u_variance / np.sqrt(4.0 * variances))


@pytest.mark.parametrize("name", ESTIMATOR_NAMES)
def test_doubled_returns_scale_estimates_and_bounds_exactly(market, name):
    panel, fpanel, W = market
    spec = pr.EstimatorSpec(name)
    base = _assess(spec.fit(panel, fpanel), W)
    doubled = _assess(spec.fit(_scaled(panel, 2.0), fpanel), W)
    np.testing.assert_array_equal(doubled[0], 4.0 * base[0])
    np.testing.assert_array_equal(doubled[1], 4.0 * base[1])
    np.testing.assert_array_equal(doubled[2], 16.0 * base[2])
    np.testing.assert_array_equal(doubled[3], 4.0 * base[3])
    np.testing.assert_array_equal(doubled[4], 2.0 * base[4])
    np.testing.assert_array_equal(doubled[3] / (4.0 * doubled[1]), base[3] / (4.0 * base[1]))


@pytest.mark.parametrize("name", ESTIMATOR_NAMES)
def test_permuted_assets_permute_the_estimate(market, name):
    panel, fpanel, _ = market
    perm = pr.derive_rng(17, "permutation", panel.N).permutation(panel.N)
    permuted = pr.ReturnsPanel(panel.dates, [panel.assets[i] for i in perm],
                               panel.values[:, perm])
    spec = pr.EstimatorSpec(name)
    base = spec.fit(panel, fpanel).estimate.matrix
    got = spec.fit(permuted, fpanel).estimate.matrix
    expected = base[np.ix_(perm, perm)]
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(base))


@pytest.mark.parametrize("scale", [0.01, 1.0, 100.0])
def test_empirical_study_decides_positive_definiteness_without_eigenvalues(scale, monkeypatch):
    # the PD repair and the min_variance gate decide by Cholesky
    # factorizations at every scale, so no N x N estimate is
    # eigendecomposed; the only eigenvalues computed are those of the 3 x 3
    # factor Gram matrix, ols_factor_fit's singularity check
    N, T = 300, 252
    [m] = _generate_markets(pr.default_calibration(), N, T, 17, (0,))
    panel, fpanel = m.panel, m.fpanel
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counted(m, *args, **kwargs):
        shapes.append(m.shape)
        return eigvalsh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    cfg = pr.BacktestConfig(estimation_window=210, holding_window=21)
    report = pr.run_empirical_study(_scaled(panel, scale), fpanel, cfg)
    assert report.n_rebalances == 2 and len(report.records) > 0
    assert shapes == [(3, 3)] * report.n_rebalances
