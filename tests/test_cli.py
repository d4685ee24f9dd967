"""End-to-end runs of the command line against the library."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import portrisk as pr
from helpers import calibrated_market, write_panel_files
from portrisk import serialization as ser
from portrisk.cli import main
from portrisk.estimators import ESTIMATOR_NAMES
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


@pytest.mark.parametrize("name", ESTIMATOR_NAMES)
def test_hclub_row_matches_library(name, panel_files, tmp_path, capsys):
    returns, factors, rpath, fpath = panel_files
    assert main(["--output-dir", str(tmp_path), "hclub", "--returns", rpath,
                 "--factors", fpath, "--estimator", name, "--equal-weight",
                 "--tau", "0.05", "--L", "3", "--out", "a.csv"]) == 0
    out = capsys.readouterr().out
    assert "risk" in out and "wrote" in out
    lines = [l for l in (tmp_path / "a.csv").read_text().splitlines()
             if not l.startswith("#")]
    row = dict(zip(ASSESSMENT_COLUMNS, lines[1].split(",")))

    fitted = pr.EstimatorSpec(name).fit(returns, factors)
    pf = pr.equal_weight(returns.N)
    variances, sigma2, u_variance, clamped = fitted.assess(
        pf.weights[:, None], 3, pr.hclub_z(0.05))
    vhat, u = float(variances[0]), float(u_variance[0])
    assert float(row["variance_hat"]) == vhat
    assert float(row["risk_hat"]) == math.sqrt(vhat)
    assert float(row["sigma2_hat"]) == sigma2[0]
    assert float(row["u_variance"]) == u
    assert float(row["u_risk"]) == u / math.sqrt(4.0 * vhat)
    assert float(row["re2"]) == u / (4.0 * vhat)
    assert row["clamped"] == str(bool(clamped[0]))
    assert row["estimator"] == name
    assert math.isnan(float(row["xi"]))

    # the one-portfolio functions: the same bound, the risk up to rounding
    # (the sample risk is ||Xw||^2 / T here and w'Sw there)
    one = pr.portfolio_variance(fitted.estimate, pf)
    lrv = (pr.autocov_sample(returns, pf, L=3) if name == "sample"
           else getattr(pr, f"autocov_{name}")(fitted.fit, pf, L=3))
    bound = pr.hclub(lrv, returns.T, 0.05, one, name)
    assert (float(row["sigma2_hat"]), float(row["u_variance"])) == (lrv.sigma2, bound.u_variance)
    assert float(row["variance_hat"]) == pytest.approx(one, rel=1e-12, abs=0)
    assert float(row["u_risk"]) == pytest.approx(bound.u_risk, rel=1e-12, abs=0)


def test_hclub_reports_a_clamped_long_run_variance_once(tmp_path):
    # a fresh interpreter, so stderr shows what a real run prints; the
    # library's RuntimeWarning used to come first, with its source line
    returns = tmp_path / "alternating.csv"
    returns.write_text("date,a,b\n" + "".join(
        f"d{t:02d},{1 + t % 2}.0,{1 + t % 2}.0\n" for t in range(50)))
    src = os.path.dirname(os.path.dirname(pr.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "portrisk.cli", "--output-dir", str(tmp_path), "hclub",
         "--returns", str(returns), "--estimator", "sample", "--equal-weight",
         "--L", "1", "--no-demean"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert [line for line in proc.stderr.splitlines() if "clamp" in line] == [
        "warning: negative long-run variance clamped to zero; the bound below is degenerate"]
    assert ".py:" not in proc.stderr
    assert "U(0.05)=0\n" in proc.stdout


@pytest.mark.parametrize("command", ["simulate", "empirical"])
def test_study_warning_is_one_stderr_line(command, tmp_path):
    # a fresh interpreter, so stderr shows what a real run prints; the
    # study's RuntimeWarning used to come with a cli.py location and the
    # source line of the call
    if command == "simulate":
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("Ns = 6\nTs = 24\ncs = 1.5\nL = 8\nportfolios_per_rep = 30\n"
                       "poet_K = 2\nreplications = 3\nbase_seed = 11\n")
        flags = ["--threads", "1", "simulate", "--config", str(cfg)]
        expected = "warning: truncated long-run variance was negative for "
    else:
        # ten assets over eight-period windows: the sample estimate is
        # singular, so its min-variance cases are skipped
        returns = tmp_path / "returns.csv"
        values = np.random.default_rng(5).standard_normal((18, 10))
        returns.write_text("date," + ",".join(f"a{i}" for i in range(10)) + "\n" + "".join(
            f"d{t:02d}," + ",".join(repr(float(v)) for v in row) + "\n"
            for t, row in enumerate(values)))
        flags = ["empirical", "--returns", str(returns), "--estimators", "sample",
                 "--exposures", "1.6", "--estimation-window", "8", "--holding-window", "5",
                 "--L", "2"]
        expected = "warning: skipped 2 of 4 (window, strategy, estimator) cases: "
    src = os.path.dirname(os.path.dirname(pr.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "portrisk.cli", "--output-dir", str(tmp_path), *flags],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(expected), proc.stderr
    assert ".py:" not in proc.stderr


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


@pytest.mark.parametrize("case", ["returns_directory", "cells_directory", "output_dir_file"])
def test_unusable_path_is_data_error(panel_files, tmp_path, capsys, case):
    # these ended in an IsADirectoryError or FileExistsError traceback (exit 1)
    _, _, rpath, fpath = panel_files
    taken = tmp_path / "taken"
    taken.write_text("")
    argv = {
        "returns_directory": ["--output-dir", str(tmp_path), "estimate",
                              "--returns", str(tmp_path), "--estimator", "sample"],
        "cells_directory": ["report", "--cells", str(tmp_path)],
        "output_dir_file": ["--output-dir", str(taken), "empirical", "--returns", rpath,
                            "--factors", fpath, "--estimation-window", "60"],
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "empirical"])
def test_unusable_output_dir_fails_before_the_study(
        panel_files, tmp_path, capsys, monkeypatch, command):
    # the output directory is made before the study runs, not after it
    def no_study(*args, **kwargs):
        raise AssertionError("the study ran")

    monkeypatch.setattr("portrisk.cli.run_experiment", no_study)
    monkeypatch.setattr("portrisk.cli.run_empirical_study", no_study)
    _, _, rpath, fpath = panel_files
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(SIM_CONFIG)
    taken = tmp_path / "taken"
    taken.write_text("")
    argv = {"simulate": ["--threads", "1", "simulate", "--config", str(cfg)],
            "empirical": ["empirical", "--returns", rpath, "--factors", fpath]}[command]
    assert main(["--output-dir", str(taken), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "Traceback" not in err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["estimate", "--no-such-flag"]) == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    "estimate", "hclub", "sample-portfolios", "simulate", "empirical", "report",
])
def test_every_subcommand_prints_its_help(command, capsys):
    # argparse expands %(default)s only when it prints help, so a bad help
    # string would otherwise fail first in front of a user
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: portrisk {command}")


def test_hclub_help_shows_the_estimator_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["hclub", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    for text in ("--K K latent factor count for poet (default 3)",
                 "upper bound for --auto-K (default 8)",
                 "lag cut-off (default 5)",
                 "(default: 0.1*K for factor, 0.5 for poet)",
                 "(default: hard for factor, soft for poet)",
                 "{hard,soft,scad}"):
        assert text in out


def _latin1(path, text):
    path.write_bytes(text.encode("latin-1"))
    return str(path)


@pytest.mark.parametrize("which", ["returns", "portfolio"])
def test_non_utf8_input_file_is_data_error(panel_files, tmp_path, capsys, which):
    # both used to end in a UnicodeDecodeError traceback and exit 1
    returns, _, rpath, _ = panel_files
    if which == "returns":
        rpath = _latin1(tmp_path / "latin.csv", "date,café\n2019-01-01,0.5\n2019-01-02,0.1\n")
        flags = ["estimate", "--returns", rpath, "--estimator", "sample"]
    else:
        book = "asset,weight\n" + "".join(f"{a}é,0.125\n" for a in returns.assets)
        flags = ["hclub", "--returns", rpath, "--estimator", "sample",
                 "--portfolio", _latin1(tmp_path / "book.csv", book)]
    out = tmp_path / "out"
    assert main(["--output-dir", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "not UTF-8" in err
    assert str(tmp_path) in err
    assert not out.exists() or not any(out.iterdir())


def test_non_utf8_grid_config_is_data_error(tmp_path, capsys):
    cfg = _latin1(tmp_path / "grid.cfg", "# calibré\n" + SIM_CONFIG)
    out = tmp_path / "out"
    assert main(["--output-dir", str(out), "simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {cfg}: not UTF-8")
    assert not out.exists()


BOM = b"\xef\xbb\xbf"


def _with_bom(path, source):
    """path holding source's bytes behind a UTF-8 byte-order mark, as a
    spreadsheet's "CSV UTF-8" export writes them."""
    path.write_bytes(BOM + source.read_bytes())
    return str(path)


def test_hclub_reads_a_portfolio_with_a_byte_order_mark(panel_files, tmp_path, capsys):
    # it used to say "expected an 'asset,weight' header row"
    returns, _, rpath, _ = panel_files
    book = tmp_path / "book.csv"
    ser.write_portfolio_csv(book, np.full(returns.N, 1.0 / returns.N), returns.assets)
    for name, path in (("plain", str(book)), ("bom", _with_bom(tmp_path / "bom.csv", book))):
        assert main(["--output-dir", str(tmp_path / name), "hclub", "--returns", rpath,
                     "--estimator", "sample", "--portfolio", path]) == 0
    capsys.readouterr()
    assert ((tmp_path / "bom" / "assessment.csv").read_bytes()
            == (tmp_path / "plain" / "assessment.csv").read_bytes())


def test_simulate_reads_a_config_with_a_byte_order_mark(tmp_path, capsys):
    # it used to say "unknown key '\ufeffNs'"; the config hash is the one
    # of the text, so both runs write the same bytes
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(SIM_CONFIG)
    for name, path in (("plain", str(cfg)), ("bom", _with_bom(tmp_path / "bom.cfg", cfg))):
        assert main(["--output-dir", str(tmp_path / name), "--threads", "1",
                     "simulate", "--config", path]) == 0
    capsys.readouterr()
    for table in ("experiment_cells.csv", "experiment_figures.csv"):
        assert (tmp_path / "bom" / table).read_bytes() == (tmp_path / "plain" / table).read_bytes()


def test_report_reads_cells_with_a_byte_order_mark(cells_file, tmp_path, capsys):
    # the mark used to hide the first '#' line, which was then taken for
    # the column row: "'estimator' is not in list"
    assert main(["report", "--cells", str(cells_file)]) == 0
    plain = capsys.readouterr().out
    assert main(["report", "--cells", _with_bom(tmp_path / "bom.csv", cells_file)]) == 0
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize("flags", [
    ("empirical", "--exposures", "1,abc"),
    ("empirical", "--delimiter", ";;"),
    ("estimate", "--estimator", "sample", "--delimiter", ";;"),
    ("hclub", "--estimator", "sample", "--equal-weight", "--delimiter", ";;"),
])
def test_malformed_flag_value_is_usage_error(panel_files, tmp_path, capsys, flags):
    # each used to print a ValueError or TypeError traceback
    _, _, rpath, _ = panel_files
    out = tmp_path / "out"
    assert main(["--output-dir", str(out), flags[0], "--returns", rpath, *flags[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert not out.exists()


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


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_bad_periods_per_year_exits_2_before_any_work(panel_files, tmp_path, capsys, value):
    # both commands used to run every replication or window first, and
    # simulate wrote its cells table before it failed
    _, _, rpath, fpath = panel_files
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(SIM_CONFIG + f"periods_per_year = {value}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["--output-dir", str(out), "--threads", "1",
                 "simulate", "--config", str(cfg)]) == 2
    assert main(["--output-dir", str(out), "empirical", "--returns", rpath,
                 "--factors", fpath, "--estimation-window", "60",
                 "--periods-per-year", value]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("data error: periods_per_year must be a finite positive")
               for line in err)
    assert not out.exists()


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


def test_empirical_poet_factor_count_that_cannot_fit_exits_2(tmp_path, capsys):
    # K=12 on 12 assets over 30-period windows used to skip all 9 cases,
    # write tables without a row and exit 0
    _, returns, factors = calibrated_market(12, 30 + 3 * 10, 7)
    write_panel_files(tmp_path, returns, factors)
    code = main(["--output-dir", str(tmp_path / "out"), "empirical", "--returns",
                 str(tmp_path / "returns.csv"), "--estimators", "poet", "--poet-K", "12",
                 "--estimation-window", "30", "--holding-window", "10"])
    assert code == 2
    assert capsys.readouterr().err == ("data error: poet factor count must be in [1, 11] "
                                       "for N=12 assets over T=30 periods, got K=12\n")
    assert not (tmp_path / "out" / "backtest_records.csv").exists()
    assert not (tmp_path / "out" / "backtest_summary.csv").exists()


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


def test_simulate_zero_threads_is_a_data_error(tmp_path, capsys, monkeypatch):
    # --threads 0 used to mean the default worker count; PRL_THREADS=0
    # and --threads -1 were already data errors
    def no_market(*args):
        raise AssertionError("a market was simulated")

    monkeypatch.setattr(pr.simulation, "_generate_markets", no_market)
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("Ns = 5\nTs = 20\ncs = 1\nreplications = 1\n")
    assert main(["--output-dir", str(tmp_path), "--threads", "0",
                 "simulate", "--config", str(cfg)]) == 2
    assert "workers must be positive, got 0" in capsys.readouterr().err
    assert not (tmp_path / "experiment_cells.csv").exists()


def test_one_asset_book_with_a_short_side_exits_2_before_any_draw(
        tmp_path, capsys, monkeypatch):
    def no_market(*args):
        raise AssertionError("a market was simulated")

    monkeypatch.setattr(pr.simulation, "_generate_markets", no_market)
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("Ns = 1\nTs = 10\ncs = 1.5\nestimators = sample\n")
    assert main(["--output-dir", str(tmp_path), "--threads", "1",
                 "simulate", "--config", str(cfg)]) == 2
    assert "one asset cannot hold a short side" in capsys.readouterr().err
    assert main(["--output-dir", str(tmp_path), "sample-portfolios",
                 "--n-assets", "1", "--exposure", "1.5"]) == 2
    assert "one asset cannot hold a short side" in capsys.readouterr().err
    assert not (tmp_path / "portfolios.csv").exists()


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


@pytest.fixture
def cells_file(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(SIM_CONFIG)
    assert main(["--output-dir", str(tmp_path), "--threads", "1",
                 "simulate", "--config", str(cfg)]) == 0
    capsys.readouterr()
    return tmp_path / "experiment_cells.csv"


def test_report_prints_integer_cells_as_written(cells_file, capsys):
    lines = cells_file.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("sample,"))
    fields = lines[row].split(",")
    fields[1] = "12345"
    lines[row] = ",".join(fields)
    cells_file.write_text("\n".join(lines) + "\n")
    assert main(["report", "--cells", str(cells_file)]) == 0
    assert capsys.readouterr().out.splitlines()[2].startswith("| sample | 12345 | 24 | 1 |")


def test_report_into_a_closed_pipe_exits_0_quietly(cells_file):
    src = os.path.dirname(os.path.dirname(pr.__file__))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "portrisk.cli", "report", "--cells", str(cells_file)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src))
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")
