"""README's equivariance claims for the estimators and the H-CLUB bound.

Doubling the returns is exact in floating point, so the sample, factor and
POET estimates, the long-run variances and the bounds scale by powers of
two bit for bit.  Permuting the assets permutes the estimates only up to
rounding: a reordered sum rounds differently.
"""

import numpy as np
import pytest

import portrisk as pr
from portrisk.assessment import long_run_variances
from portrisk.estimators import ESTIMATOR_NAMES
from portrisk.simulation import _generate_market

SHAPES = [(40, 120), (100, 300), (300, 252)]


@pytest.fixture(scope="module", params=SHAPES, ids=lambda nt: f"N{nt[0]}-T{nt[1]}")
def market(request):
    N, T = request.param
    _, panel, fpanel = _generate_market(pr.default_calibration(), N, T, 17, 0)
    W = pr.sample_random_weights(N, 1.6, pr.derive_rng(17, "equivariance", N, T), P=8)
    return panel, fpanel, W


def _scaled(panel, s):
    return pr.ReturnsPanel(panel.dates, panel.assets, s * panel.values)


def _assess(fitted, W, T, L=5, tau=0.05):
    """Estimate, variances, long-run variances and H-CLUB bounds of W's columns."""
    variances, series, centers = fitted.variances_and_series(W)
    sigma2 = long_run_variances(series, centers, L)[1]
    bounds = [pr.hclub(pr.LongRunVariance((), L, s2), T, tau, v, fitted.estimate.kind)
              for s2, v in zip(sigma2, variances)]
    return fitted.estimate.matrix, variances, sigma2, bounds


@pytest.mark.parametrize("name", ESTIMATOR_NAMES)
def test_doubled_returns_scale_estimates_and_bounds_exactly(market, name):
    panel, fpanel, W = market
    spec = pr.EstimatorSpec(name)
    base = _assess(spec.fit(panel, fpanel), W, panel.T)
    doubled = _assess(spec.fit(_scaled(panel, 2.0), fpanel), W, panel.T)
    np.testing.assert_array_equal(doubled[0], 4.0 * base[0])
    np.testing.assert_array_equal(doubled[1], 4.0 * base[1])
    np.testing.assert_array_equal(doubled[2], 16.0 * base[2])
    for u0, u1, v0, v1 in zip(base[3], doubled[3], base[1], doubled[1]):
        assert u1.u_variance == 4.0 * u0.u_variance
        assert u1.u_risk == 2.0 * u0.u_risk
        assert u1.u_variance / (4.0 * v1) == u0.u_variance / (4.0 * v0)


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
