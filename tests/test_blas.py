"""numpy's BLAS runs simulate and empirical tasks on one thread."""

import concurrent.futures
import logging
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np
import pytest

import portrisk as pr
import portrisk.backtest as backtest
import portrisk.simulation as sim
from portrisk import blas
from portrisk.simulation import _run_task

from helpers import calibrated_market, write_panel_files

needs_control = pytest.mark.skipif(
    blas.blas_threads() is None,
    reason="no OpenBLAS thread control found in numpy's install; BLAS keeps its setting")

TINY_GRID = [pr.ExperimentCell(N=6, T=24, c=1.0, portfolios_per_rep=4,
                               estimators=("sample",))]


@pytest.fixture
def two_threads():
    """The caller runs BLAS on two threads; its own count comes back after."""
    set_threads, get_threads = blas._controls()
    before = get_threads()
    set_threads(2)
    yield
    set_threads(before)


def _task_on_one_thread(*args):
    # a module-level function, so a pool can pickle it under any start method
    if blas.blas_threads() != 1:
        raise AssertionError(f"task ran on {blas.blas_threads()} BLAS threads")
    return _run_task(*args)


@needs_control
@pytest.mark.parametrize("workers, start_method", [(1, None), (2, None), (2, "spawn")])
def test_every_task_runs_on_one_blas_thread(two_threads, monkeypatch, workers, start_method):
    # one replication per task, so two workers share four tasks; spawned
    # workers start from a fresh import, not from the parent's BLAS state
    monkeypatch.setattr(sim, "_BLOCK_BUDGET", 1)
    monkeypatch.setattr(sim, "_run_task", _task_on_one_thread)
    if start_method is not None:
        # run_experiment imports the pool class from concurrent.futures on its pool branch
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context(start_method)))
    report = pr.run_experiment(TINY_GRID, 4, workers=workers, base_seed=3)
    assert report.replications == 4
    assert blas.blas_threads() == 2


@needs_control
def test_run_experiment_restores_the_callers_count_when_it_raises(two_threads, monkeypatch):
    def fail(*args):
        raise RuntimeError("task failed")

    monkeypatch.setattr(sim, "_run_task", fail)
    with pytest.raises(RuntimeError, match="task failed"):
        pr.run_experiment(TINY_GRID, 2, workers=1)
    assert blas.blas_threads() == 2


@needs_control
def test_run_empirical_study_restores_the_callers_count(two_threads, monkeypatch):
    _, returns, factors = calibrated_market(10, 90, 17)
    config = pr.BacktestConfig(estimation_window=60, holding_window=15)
    seen = []
    real = backtest.min_variance

    def min_variance(estimate, c):
        seen.append(blas.blas_threads())
        return real(estimate, c)

    monkeypatch.setattr(backtest, "min_variance", min_variance)
    report = pr.run_empirical_study(returns, factors, config)
    assert report.records and set(seen) == {1}
    assert blas.blas_threads() == 2

    def fail(estimate, c):
        raise RuntimeError("solver failed")

    monkeypatch.setattr(backtest, "min_variance", fail)
    with pytest.raises(RuntimeError, match="solver failed"):
        pr.run_empirical_study(returns, factors, config)
    assert blas.blas_threads() == 2


def test_missing_control_logs_one_note_and_changes_nothing(tmp_path, monkeypatch, caplog):
    # a numpy install without a bundled OpenBLAS
    monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    with caplog.at_level(logging.INFO, logger="portrisk.blas"):
        assert blas._controls.__wrapped__() is None
    assert [r.getMessage().split(";")[0] for r in caplog.records] == [
        f"no OpenBLAS thread control found under {tmp_path / 'numpy.libs'}"]

    monkeypatch.setattr(blas, "_controls", lambda: None)
    assert blas.blas_threads() is None
    blas.pin_single_thread()
    with blas.single_thread():
        report = pr.run_experiment(TINY_GRID, 2, workers=1)
    assert report.replications == 2


SIM_CONFIG = """Ns = 300
Ts = 300
cs = 1
portfolios_per_rep = 10
replications = 2
"""


def _fresh_interpreter(script, cwd=None, env=None):
    """Run the script in a fresh interpreter that imports this tree's portrisk."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"} | (env or {})
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(pr.__file__))
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, encoding="utf-8", timeout=300)
    assert proc.returncode == 0, proc.stderr


# the console script imports the CLI first, so OpenBLAS loads with one
# thread; a caller that loaded numpy first runs main on its own count
_LEGS = {
    "cli first": "from portrisk.cli import main\n"
                 "from portrisk import blas\n"
                 "assert blas.blas_threads() == 1\n",
    "numpy first": "import numpy\n"
                   "from portrisk import blas\n"
                   "blas._controls()[0](2)\n"
                   "assert blas.blas_threads() == 2\n"
                   "from portrisk.cli import main\n",
}


def _run_cli(commands, cwd, leg):
    """Run main on each argument list, in order, in one fresh interpreter."""
    _fresh_interpreter(_LEGS[leg] + f"for argv in {commands!r}:\n"
                                    "    assert main(argv) == 0, argv", cwd)


@needs_control
def test_cli_loads_openblas_with_one_thread_and_no_helper():
    # whatever OPENBLAS_NUM_THREADS asks for; a second entry in
    # /proc/self/task would be an OpenBLAS helper thread
    _fresh_interpreter(
        "import os\n"
        "import portrisk.cli\n"
        "from portrisk import blas\n"
        "assert blas.blas_threads() == 1, blas.blas_threads()\n"
        "if os.path.isdir('/proc/self/task'):\n"
        "    assert len(os.listdir('/proc/self/task')) == 1, os.listdir('/proc/self/task')\n",
        env={"OPENBLAS_NUM_THREADS": "4"})


@pytest.mark.parametrize("blas_env", [None, "4"])
def test_cli_imported_after_numpy_leaves_the_environment_alone(blas_env):
    _fresh_interpreter(
        "import os\n"
        "import numpy\n"
        "before = dict(os.environ)\n"
        "import portrisk.cli\n"
        "assert dict(os.environ) == before\n",
        env={} if blas_env is None else {"OPENBLAS_NUM_THREADS": blas_env})


@needs_control
def test_outputs_do_not_depend_on_the_blas_thread_setting(tmp_path):
    # sizes where OpenBLAS threads its products unless told otherwise:
    # N=300 markets, and a 150-asset panel on 100-row windows
    (tmp_path / "grid.cfg").write_text(SIM_CONFIG, encoding="utf-8")
    write_panel_files(tmp_path, *calibrated_market(150, 140, 29)[1:])

    names = ("experiment_cells.csv", "experiment_figures.csv",
             "backtest_records.csv", "backtest_summary.csv")
    outputs = {}
    for leg in _LEGS:
        out = tmp_path / leg.replace(" ", "-")
        _run_cli([["--output-dir", str(out), "--threads", "1", "simulate",
                   "--config", "grid.cfg"],
                  ["--output-dir", str(out), "empirical", "--returns", "returns.csv",
                   "--factors", "factors.csv", "--estimation-window", "100",
                   "--holding-window", "20"]], tmp_path, leg)
        outputs[leg] = [(out / name).read_bytes() for name in names]
    assert outputs["cli first"] == outputs["numpy first"]


@needs_control
def test_estimate_and_hclub_outputs_do_not_depend_on_the_blas_thread_setting(tmp_path):
    # a 300-asset panel on 260 rows, where OpenBLAS threads the fits and
    # the eigenvalue problems unless told otherwise
    write_panel_files(tmp_path, *calibrated_market(300, 260, 31)[1:])
    estimators = ("sample", "factor", "poet")
    names = [f"covariance_{name}.csv" for name in estimators]
    names += [f"assessment_{name}.csv" for name in estimators]
    outputs = {}
    for leg in _LEGS:
        out = tmp_path / leg.replace(" ", "-")
        flags = ["--returns", "returns.csv", "--factors", "factors.csv"]
        commands = [["--output-dir", str(out), "estimate", *flags, "--estimator", name]
                    for name in estimators]
        commands += [["--output-dir", str(out), "hclub", *flags, "--estimator", name,
                      "--equal-weight", "--out", f"assessment_{name}.csv"]
                     for name in estimators]
        _run_cli(commands, tmp_path, leg)
        outputs[leg] = [(out / name).read_bytes() for name in names]
    assert outputs["cli first"] == outputs["numpy first"]
