"""Result tables written by the reporting module."""

import numpy as np
import pytest

import portrisk as pr
from helpers import calibrated_market, make_panel, write_panel_files, write_text
from portrisk import reporting, serialization as ser
from portrisk.cli import main


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


# the column rows of the result files and of `portrisk report`, as written
# before the writers took them from the result dataclasses
CELLS_HEADER = ("estimator,N,T,c,L,tau,replications,n_records,mean_delta,sd_delta,"
                "mean_xi,sd_xi,mean_u,sd_u,mean_re1,sd_re1,mean_re2,sd_re2,"
                "mean_true_risk,sd_true_risk,coverage,clamped_count")
FIGURES_HEADER = "N,T,c,estimator,mean_delta,mean_u,mean_xi,annual_true_risk"
RECORDS_HEADER = ("index,hold_start,strategy,estimator,gross,variance_hat,risk_hat,"
                  "sigma2_hat,u_variance,u_risk,realized_variance,realized_risk,"
                  "risk_error,covered,clamped")
SUMMARY_HEADER = ("strategy,estimator,n_windows,mean_risk_hat_annual,"
                  "mean_realized_risk_annual,mean_estimated_error_annual,"
                  "mean_realized_error_annual,coverage")
REPORT_HEADER = ("| estimator | N | T | c | mean_delta | mean_u | mean_xi | mean_re1 "
                 "| mean_re2 | coverage |")


def _column_row(path):
    return next(line for line in path.read_text(encoding="utf-8").splitlines()
                if not line.startswith("#"))


def test_result_files_keep_their_column_rows(tmp_path, capsys):
    cfg = write_text(tmp_path / "grid.cfg", [
        "Ns = 6", "Ts = 24", "cs = 1.0, 1.5", "estimators = sample, poet", "L = 2",
        "poet_K = 1", "portfolios_per_rep = 4", "replications = 2"])
    returns, factors = calibrated_market(8, 100, (17, "headers"))[1:]
    write_panel_files(tmp_path, returns, factors)
    assert main(["--output-dir", str(tmp_path), "--threads", "1",
                 "simulate", "--config", str(cfg)]) == 0
    assert main(["--output-dir", str(tmp_path), "empirical",
                 "--returns", str(tmp_path / "returns.csv"),
                 "--factors", str(tmp_path / "factors.csv"),
                 "--estimation-window", "60", "--holding-window", "20"]) == 0
    capsys.readouterr()
    assert main(["report", "--cells", str(tmp_path / "experiment_cells.csv")]) == 0
    assert capsys.readouterr().out.splitlines()[0] == REPORT_HEADER
    for name, header in (("experiment_cells.csv", CELLS_HEADER),
                         ("experiment_figures.csv", FIGURES_HEADER),
                         ("backtest_records.csv", RECORDS_HEADER),
                         ("backtest_summary.csv", SUMMARY_HEADER)):
        assert _column_row(tmp_path / name) == header, name


def test_a_study_without_records_writes_header_only_tables(tmp_path):
    # every window of a constant panel has a zero sample estimate, so each
    # case is skipped and both tables keep only their column rows
    panel = make_panel(np.zeros((40, 5)))
    config = pr.BacktestConfig(estimation_window=20, holding_window=10, estimators=("sample",))
    report = pr.run_empirical_study(panel, None, config)
    assert report.records == () and report.aggregates == () and len(report.skipped) == 6
    reporting.backtest_records_csv(report, tmp_path / "records.csv", ["# run"])
    reporting.backtest_summary_csv(report, tmp_path / "summary.csv")
    assert (tmp_path / "records.csv").read_text() == "# run\n" + RECORDS_HEADER + "\n"
    assert (tmp_path / "summary.csv").read_text() == SUMMARY_HEADER + "\n"
