"""Result tables written by the reporting module."""

import numpy as np

import portrisk as pr
from portrisk import reporting, serialization as ser


def test_numpy_scalar_exposures_write_plain_floats(tmp_path):
    # repr(np.float64(1.0)) is "np.float64(1.0)" under numpy 2, and that
    # text used to land in the c column of both tables
    def tables(cs, where):
        cells = [pr.ExperimentCell(N=6, T=24, c=c, estimators=("sample",), L=2,
                                   portfolios_per_rep=4) for c in cs]
        report = pr.run_experiment(cells, 2, workers=1, base_seed=5)
        where.mkdir()
        reporting.experiment_cells_csv(report, where / "cells.csv")
        reporting.experiment_figures_csv(report, where / "figures.csv")
        return where

    scalars = tables(np.linspace(1.0, 2.0, 2), tmp_path / "numpy")
    plain = tables([1.0, 2.0], tmp_path / "plain")
    for name in ("cells.csv", "figures.csv"):
        assert (scalars / name).read_bytes() == (plain / name).read_bytes()
        rows = ser.read_csv(scalars / name)
        col = rows[0].index("c")
        assert [row[col] for row in rows[1:]] == ["1.0", "2.0"]
