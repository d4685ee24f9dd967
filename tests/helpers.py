"""Shared builders for test fixtures."""

import numpy as np

import portrisk as pr
from portrisk import serialization as ser


def date_labels(T):
    return tuple(f"t{t:06d}" for t in range(T))


def asset_labels(N):
    return tuple(f"a{i:04d}" for i in range(N))


def make_panel(values, dates=None, assets=None) -> pr.ReturnsPanel:
    values = np.asarray(values, dtype=float)
    T, N = values.shape
    return pr.ReturnsPanel(dates or date_labels(T), assets or asset_labels(N), values)


def make_factor_panel(values, dates=None, names=None) -> pr.FactorPanel:
    values = np.asarray(values, dtype=float)
    T, K = values.shape
    names = names or tuple(f"f{k+1}" for k in range(K))
    return pr.FactorPanel(dates or date_labels(T), names, values)


def calibrated_market(N, T, seed, params=None):
    """A synthetic market drawn from the calibrated generator.

    Returns (model instance, returns panel, factor panel); `seed` can be
    any label tuple accepted by derive_rng.
    """
    params = params or pr.default_calibration()
    if not isinstance(seed, tuple):
        seed = (seed,)
    rng = pr.derive_rng(*seed, "fixture", N, T)
    inst = pr.build_model_instance(params, N, rng)
    F = pr.generate_var1_factors(params, T, rng)
    U = rng.standard_normal((T, N)) @ np.linalg.cholesky(inst.Sigma_u).T
    Y = F @ inst.B.T + U
    dates = date_labels(T)
    panel = pr.ReturnsPanel(dates, asset_labels(N), Y)
    fpanel = pr.FactorPanel(dates, ("f1", "f2", "f3"), F)
    return inst, panel, fpanel


def write_panel_files(directory, returns, factors):
    """returns.csv and factors.csv in directory, as the CLI reads them."""
    ser.write_returns_csv(directory / "returns.csv", returns)
    ser.write_csv(directory / "factors.csv", (), ("date", *factors.factor_names),
                  ((d, *map(float, row)) for d, row in zip(factors.dates, factors.values)))


def write_text(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path
