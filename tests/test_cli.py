"""End-to-end runs of the command line against the library."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import portrisk as pr
from portrisk import serialization as ser
from portrisk.cli import main
from portrisk.serialization import ASSESSMENT_COLUMNS
from portrisk.simulation import generate_var1_factors


@pytest.fixture(scope="module")
def panel_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("panels")
    params = pr.default_calibration()
    rng = pr.derive_rng(301, "clipanel")
    inst = pr.build_model_instance(params, 8, rng)
    T = 128
    F = generate_var1_factors(params, T, rng)
    U = rng.standard_normal((T, 8)) @ np.linalg.cholesky(inst.Sigma_u).T
    dates = tuple(f"2019-{1 + t // 28:02d}-{1 + t % 28:02d}" for t in range(T))
    returns = pr.ReturnsPanel(dates, tuple(f"a{i:02d}" for i in range(8)),
                              F @ inst.B.T + U)
    factors = pr.FactorPanel(dates, ("f1", "f2", "f3"), F)
    rpath, fpath = root / "returns.csv", root / "factors.csv"
    ser.write_returns_csv(rpath, returns)
    with open(fpath, "w", newline="") as fh:
        fh.write("date," + ",".join(factors.factor_names) + "\n")
        for date, row in zip(dates, F):
            fh.write(date + "," + ",".join(repr(float(v)) for v in row) + "\n")
    return returns, factors, str(rpath), str(fpath)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "portrisk" in capsys.readouterr().out


def test_estimate_csv_and_binary_agree(panel_files, tmp_path, capsys):
    returns, _, rpath, _ = panel_files
    assert main(["--output-dir", str(tmp_path), "estimate",
                 "--returns", rpath, "--estimator", "sample"]) == 0
    assert "wrote" in capsys.readouterr().out
    got, names = ser.read_covariance_csv(tmp_path / "covariance_sample.csv")
    assert names == returns.assets
    want = pr.sample_covariance(returns).matrix
    assert np.array_equal(got, want)

    assert main(["--output-dir", str(tmp_path), "estimate",
                 "--returns", rpath, "--estimator", "sample", "--binary"]) == 0
    binm = ser.read_covariance_binary(tmp_path / "covariance_sample.bin")
    # the binary format keeps the lower triangle; mirroring restores symmetry
    assert np.allclose(binm, want, rtol=0, atol=0) or np.array_equal(
        binm, np.tril(want) + np.tril(want, -1).T)


def test_estimate_poet_with_pd_repair(panel_files, tmp_path, capsys):
    _, _, rpath, _ = panel_files
    assert main(["--output-dir", str(tmp_path), "estimate", "--returns", rpath,
                 "--estimator", "poet", "--K", "2", "--ensure-pd"]) == 0
    capsys.readouterr()
    got, _ = ser.read_covariance_csv(tmp_path / "covariance_poet.csv")
    assert np.linalg.eigvalsh(got)[0] > 0


def test_estimate_factor_without_factors_is_usage_error(panel_files, tmp_path, capsys):
    _, _, rpath, _ = panel_files
    assert main(["--output-dir", str(tmp_path), "estimate",
                 "--returns", rpath, "--estimator", "factor"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_hclub_row_matches_library(panel_files, tmp_path, capsys):
    returns, _, rpath, _ = panel_files
    assert main(["--output-dir", str(tmp_path), "hclub", "--returns", rpath,
                 "--estimator", "sample", "--equal-weight",
                 "--tau", "0.05", "--L", "3", "--out", "a.csv"]) == 0
    out = capsys.readouterr().out
    assert "risk" in out and "wrote" in out
    lines = [l for l in (tmp_path / "a.csv").read_text().splitlines()
             if not l.startswith("#")]
    row = dict(zip(ASSESSMENT_COLUMNS, lines[1].split(",")))

    est = pr.sample_covariance(returns)
    pf = pr.equal_weight(returns.N)
    vhat = pr.portfolio_variance(est, pf)
    lrv = pr.autocov_sample(returns, pf, L=3)
    bound = pr.hclub(lrv, returns.T, 0.05, vhat, est.kind, paper_z=False)
    assert float(row["variance_hat"]) == vhat
    assert float(row["risk_hat"]) == math.sqrt(vhat)
    assert float(row["u_variance"]) == bound.u_variance
    assert float(row["u_risk"]) == bound.u_risk
    assert float(row["re2"]) == bound.u_variance / (4.0 * vhat)
    assert row["estimator"] == "sample"
    assert math.isnan(float(row["xi"]))


def test_hclub_tau_out_of_range_is_usage_error(panel_files, tmp_path, capsys):
    _, _, rpath, _ = panel_files
    code = main(["--output-dir", str(tmp_path), "hclub", "--returns", rpath,
                 "--estimator", "sample", "--equal-weight", "--tau", "1.5"])
    assert code == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_input_file_is_data_error(tmp_path, capsys):
    code = main(["--output-dir", str(tmp_path), "estimate",
                 "--returns", str(tmp_path / "nope.csv"), "--estimator", "sample"])
    assert code == 2
    assert "data error" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["estimate", "--no-such-flag"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_sample_portfolios_seeded(tmp_path, capsys):
    args = ["sample-portfolios", "--n-assets", "5", "--exposure", "1.6",
            "--count", "3"]
    assert main(["--output-dir", str(tmp_path), "--seed", "9", *args,
                 "--out", "p1.csv"]) == 0
    assert main(["--output-dir", str(tmp_path), "--seed", "9", *args,
                 "--out", "p2.csv"]) == 0
    assert main(["--output-dir", str(tmp_path), "--seed", "10", *args,
                 "--out", "p3.csv"]) == 0
    capsys.readouterr()
    b1 = (tmp_path / "p1.csv").read_bytes()
    assert b1 == (tmp_path / "p2.csv").read_bytes()
    assert b1 != (tmp_path / "p3.csv").read_bytes()
    rows = [l.split(",") for l in (tmp_path / "p1.csv").read_text().splitlines()
            if l and not l.startswith("#")][1:]
    for i in ("0", "1", "2"):
        gross = sum(abs(float(r[2])) for r in rows if r[0] == i)
        assert gross == pytest.approx(1.6, abs=1e-9)


SIM_CONFIG = """Ns = 6
Ts = 24
cs = 1.0
estimators = sample
L = 2
portfolios_per_rep = 4
replications = 2
"""


def test_simulate_is_reproducible_and_reportable(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(SIM_CONFIG)
    for sub in ("r1", "r2"):
        code = main(["--output-dir", str(tmp_path / sub), "--threads", "1",
                     "simulate", "--config", str(cfg)])
        assert code == 0
    out = capsys.readouterr().out
    assert "| estimator" in out or "estimator |" in out
    cells1 = (tmp_path / "r1" / "experiment_cells.csv").read_bytes()
    cells2 = (tmp_path / "r2" / "experiment_cells.csv").read_bytes()
    assert cells1 == cells2
    assert (tmp_path / "r1" / "experiment_figures.csv").exists()

    assert main(["report", "--cells",
                 str(tmp_path / "r1" / "experiment_cells.csv")]) == 0
    table = capsys.readouterr().out
    assert table.startswith("| estimator |")
    assert "sample" in table


def test_empirical_cli_writes_tables(panel_files, tmp_path, capsys):
    _, _, rpath, fpath = panel_files
    code = main(["--output-dir", str(tmp_path), "empirical",
                 "--returns", rpath, "--factors", fpath,
                 "--estimators", "sample,factor", "--exposures", "1",
                 "--estimation-window", "60", "--holding-window", "21",
                 "--L", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "equal" in out
    records = (tmp_path / "backtest_records.csv").read_text()
    summary = (tmp_path / "backtest_summary.csv").read_text()
    assert "minvar_c1" in records
    assert "coverage" in summary.splitlines()[1] or "strategy" in summary


def test_report_rejects_malformed_cells(tmp_path, capsys):
    bad = tmp_path / "cells.csv"
    bad.write_text("# nothing\n")
    assert main(["report", "--cells", str(bad)]) == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("c", ["nan", "inf"])
def test_simulate_non_finite_exposure_is_data_error(tmp_path, capsys, c):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(f"Ns = 5\nTs = 20\ncs = 1, {c}\nreplications = 1\n")
    assert main(["--output-dir", str(tmp_path), "--threads", "1",
                 "simulate", "--config", str(cfg)]) == 2
    assert f"c={c}" in capsys.readouterr().err
    assert not (tmp_path / "experiment_cells.csv").exists()


def test_empirical_nan_exposure_is_data_error(panel_files, tmp_path, capsys):
    _, _, rpath, fpath = panel_files
    code = main(["--output-dir", str(tmp_path), "empirical",
                 "--returns", rpath, "--factors", fpath, "--estimators", "sample",
                 "--exposures", "1,nan", "--estimation-window", "60", "--L", "3"])
    assert code == 2
    assert "c=nan" in capsys.readouterr().err


def test_empirical_infinite_exposure_exits_2_before_any_window(
        panel_files, tmp_path, capsys, monkeypatch):
    _, _, rpath, fpath = panel_files

    def no_window(*args, **kwargs):
        raise AssertionError("a window was estimated")

    monkeypatch.setattr(pr.EstimatorSpec, "fit", no_window)
    code = main(["--output-dir", str(tmp_path), "empirical",
                 "--returns", rpath, "--factors", fpath, "--exposures", "1,inf",
                 "--estimation-window", "60"])
    assert code == 2
    assert "c=inf" in capsys.readouterr().err
    assert not (tmp_path / "backtest_records.csv").exists()


def test_sample_portfolios_infinite_exposure_is_data_error(tmp_path, capsys):
    # used to die in numpy's binomial with a raw ValueError traceback
    assert main(["--output-dir", str(tmp_path), "sample-portfolios",
                 "--n-assets", "5", "--exposure", "inf"]) == 2
    assert "c=inf" in capsys.readouterr().err
    assert not (tmp_path / "portfolios.csv").exists()


def test_verbose_simulate_logs_progress_to_stderr_only(tmp_path):
    # a fresh interpreter, so --verbose configures logging as in a real run
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(SIM_CONFIG)
    src = os.path.dirname(os.path.dirname(pr.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    runs = {}
    for flags in ((), ("--verbose",)):
        out = tmp_path / ("v" if flags else "q")
        runs[flags] = subprocess.run(
            [sys.executable, "-m", "portrisk.cli", *flags, "--output-dir", str(out),
             "--threads", "1", "simulate", "--config", str(cfg)],
            env=env, capture_output=True, text=True, timeout=120)
        assert runs[flags].returncode == 0, runs[flags].stderr
    quiet, verbose = runs[()], runs[("--verbose",)]
    progress = [line for line in verbose.stderr.splitlines()
                if line.startswith("INFO portrisk.simulation: market 1/1")]
    assert progress and progress[-1].endswith(f"{len(progress)}/{len(progress)} tasks done")
    assert "INFO" not in quiet.stderr
    assert verbose.stdout.replace(str(tmp_path / "v"), "") == \
        quiet.stdout.replace(str(tmp_path / "q"), "")
    for name in ("experiment_cells.csv", "experiment_figures.csv"):
        assert (tmp_path / "v" / name).read_bytes() == (tmp_path / "q" / name).read_bytes()


@pytest.mark.parametrize("flags", [
    ("--estimators", "sample,sample"), ("--poet-K", "0"),
])
def test_empirical_invalid_estimator_settings_exit_2_before_any_window(
        panel_files, tmp_path, capsys, monkeypatch, flags):
    # both used to exit 0: the first printed every row twice, the second an
    # empty table after skipping every window
    _, _, rpath, fpath = panel_files

    def no_window(*args, **kwargs):
        raise AssertionError("a window was estimated")

    monkeypatch.setattr(pr.EstimatorSpec, "fit", no_window)
    code = main(["--output-dir", str(tmp_path), "empirical", "--returns", rpath,
                 "--factors", fpath, "--estimation-window", "60", *flags])
    assert code == 2
    assert "data error" in capsys.readouterr().err
    assert not (tmp_path / "backtest_records.csv").exists()


def test_simulate_invalid_estimator_setting_exits_2_before_any_market(
        tmp_path, capsys, monkeypatch):
    def no_market(*args):
        raise AssertionError("a market was simulated")

    monkeypatch.setattr(pr.simulation, "_generate_markets", no_market)
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("Ns = 300\nTs = 50\ncs = 1\nfactor_rule = bogus\n")
    assert main(["--output-dir", str(tmp_path), "--threads", "1",
                 "simulate", "--config", str(cfg)]) == 2
    assert "bogus" in capsys.readouterr().err


def test_flag_free_empirical_runs_the_default_study(panel_files, tmp_path, monkeypatch):
    _, _, rpath, fpath = panel_files
    seen = []

    def capture(returns, factors, config):
        seen.append(config)
        raise pr.UsageError("stop here")

    monkeypatch.setattr("portrisk.cli.run_empirical_study", capture)
    assert main(["--output-dir", str(tmp_path), "empirical", "--returns", rpath,
                 "--factors", fpath]) == 1
    assert seen == [pr.BacktestConfig()]


def test_report_rejects_a_truncated_row(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(SIM_CONFIG)
    assert main(["--output-dir", str(tmp_path), "--threads", "1",
                 "simulate", "--config", str(cfg)]) == 0
    cells = (tmp_path / "experiment_cells.csv").read_text().splitlines()
    capsys.readouterr()
    assert main(["report", "--cells", str(tmp_path / "experiment_cells.csv")]) == 0
    good = capsys.readouterr().out
    assert good.splitlines()[2].startswith("| sample | 6 | 24 | 1 |")

    cells[-1] = ",".join(cells[-1].split(",")[:5])
    bad = tmp_path / "truncated.csv"
    bad.write_text("\n".join(cells) + "\n")
    assert main(["report", "--cells", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "data row 1 has 5 fields" in err


def test_report_skips_an_indented_comment_line(tmp_path, capsys):
    # an indented '#' line used to be read as the column row (exit 2)
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(SIM_CONFIG)
    assert main(["--output-dir", str(tmp_path), "--threads", "1",
                 "simulate", "--config", str(cfg)]) == 0
    cells = tmp_path / "experiment_cells.csv"
    capsys.readouterr()
    assert main(["report", "--cells", str(cells)]) == 0
    plain = capsys.readouterr().out
    indented = tmp_path / "indented.csv"
    indented.write_bytes(b"  # copied from a run\n" + cells.read_bytes())
    assert main(["report", "--cells", str(indented)]) == 0
    assert capsys.readouterr().out == plain
