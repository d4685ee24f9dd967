"""What each entry point imports: the package namespace and the CLI load lazily.

Every check of sys.modules runs in a fresh interpreter, since the test
process itself has long imported every module.
"""

import json
import os
import subprocess
import sys

import pytest

import portrisk as pr
import portrisk.cli as cli

from helpers import calibrated_market, write_panel_files

SRC = os.path.dirname(os.path.dirname(pr.__file__))

ENGINE = ("portrisk.simulation", "portrisk.rng", "concurrent.futures.process",
          "multiprocessing", "_hashlib")


def _modules_after(script, cwd=None):
    """The sys.modules names, sorted, after running script in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": SRC}
    code = f"import json, sys\n{script}\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, encoding="utf-8", timeout=300)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_portrisk_loads_no_submodule_and_no_numpy():
    loaded = _modules_after("import portrisk")
    assert "numpy" not in loaded
    assert {m for m in loaded if m.startswith("portrisk.")} == {"portrisk._version"}


def test_every_public_name_and_submodule_resolves_on_first_access():
    loaded = _modules_after(
        "import portrisk\n"
        "assert 'portrisk.simulation' not in sys.modules\n"
        "for name in ('simulation', 'blas', 'cli', 'reporting', 'serialization'):\n"
        "    assert getattr(portrisk, name).__name__ == 'portrisk.' + name\n"
        "missing = [n for n in portrisk.__all__ if getattr(portrisk, n, None) is None]\n"
        "assert not missing, missing\n"
        "assert set(portrisk.__all__) | {'blas', 'cli', 'simulation'} <= set(dir(portrisk))\n"
        "import portrisk.cli as cli\n"
        "assert cli.run_experiment is portrisk.simulation.run_experiment\n"
        "assert cli.parse_grid_config is portrisk.simulation.parse_grid_config")
    assert {"portrisk.simulation", "portrisk.cli", "numpy"} <= loaded


def test_star_import_and_unknown_names():
    namespace = {}
    exec("from portrisk import *", namespace)
    assert set(pr.__all__) <= set(namespace)
    assert namespace["run_experiment"] is pr.simulation.run_experiment
    assert len(pr.__all__) == len(set(pr.__all__))
    for module in (pr, cli):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            module.nope


def test_cli_import_and_empirical_run_leave_the_engine_unloaded(tmp_path):
    write_panel_files(tmp_path, *calibrated_market(12, 90, 5)[1:])
    loaded = _modules_after("import portrisk.cli", tmp_path)
    assert not loaded & set(ENGINE)
    loaded = _modules_after(
        "from portrisk.cli import main\n"
        "code = main(['empirical', '--returns', 'returns.csv', '--factors', 'factors.csv',\n"
        "             '--estimation-window', '60', '--holding-window', '15'])\n"
        "assert code == 0, code", tmp_path)
    assert (tmp_path / "backtest_records.csv").stat().st_size > 0
    assert not loaded & set(ENGINE)


def test_sample_portfolios_loads_rng_without_the_engine(tmp_path):
    loaded = _modules_after(
        "from portrisk.cli import main\n"
        "assert main(['sample-portfolios', '--n-assets', '5']) == 0", tmp_path)
    assert {"portrisk.rng", "_hashlib"} <= loaded
    assert "portrisk.simulation" not in loaded


def test_two_thread_simulate_starts_the_pool_and_matches_one_thread(tmp_path):
    # two markets, so two tasks: the pool branch runs
    (tmp_path / "grid.cfg").write_text("Ns = 6, 7\nTs = 30\ncs = 1\nreplications = 2\n"
                                       "portfolios_per_rep = 4\n", encoding="utf-8")
    cells = {}
    for threads in ("1", "2"):
        loaded = _modules_after(
            "from portrisk.cli import main\n"
            f"assert main(['--threads', '{threads}', '--output-dir', 'out{threads}',\n"
            "             'simulate', '--config', 'grid.cfg']) == 0", tmp_path)
        assert ("concurrent.futures.process" in loaded) == (threads == "2")
        assert "portrisk.simulation" in loaded
        cells[threads] = (tmp_path / f"out{threads}" / "experiment_cells.csv").read_bytes()
    assert cells["1"] == cells["2"]


def test_engine_names_resolve_on_the_cli_module_and_simulate_calls_them_there(
        tmp_path, monkeypatch, capsys):
    # a profiler wraps cli.run_experiment and cli.parse_grid_config; the
    # simulate subcommand must call the wrapped names
    calls = []

    def wrap(name):
        real = getattr(cli, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(cli, name, wrapped)

    wrap("parse_grid_config")
    wrap("run_experiment")
    (tmp_path / "grid.cfg").write_text("Ns = 6\nTs = 30\ncs = 1\nreplications = 1\n"
                                       "portfolios_per_rep = 3\n", encoding="utf-8")
    assert cli.main(["--output-dir", str(tmp_path), "simulate",
                     "--config", str(tmp_path / "grid.cfg")]) == 0
    capsys.readouterr()
    assert calls == ["parse_grid_config", "run_experiment"]


def test_cli_import_and_paper_z_simulate_leave_statistics_unloaded(tmp_path):
    # statistics (and its fractions and decimal) loads only for an exact quantile
    (tmp_path / "grid.cfg").write_text("Ns = 6\nTs = 30\ncs = 1\nreplications = 1\n"
                                       "portfolios_per_rep = 3\n", encoding="utf-8")
    assert "statistics" not in _modules_after("import portrisk.cli")
    loaded = _modules_after(
        "from portrisk.cli import main\n"
        "assert main(['--threads', '1', 'simulate', '--config', 'grid.cfg']) == 0\n"
        "assert 'statistics' not in sys.modules\n"
        "from portrisk import normal_upper_quantile\n"
        "assert normal_upper_quantile(0.025) > 1.95", tmp_path)
    assert "statistics" in loaded
