"""End-to-end and per-layer benchmark of the portrisk command line.

Run from the repository root:

    python3 perfbench/run.py --workload mc_wide_grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each invocation of the program is a fresh interpreter that imports
portrisk.cli from src/ and runs ``portrisk.cli.main(argv)`` on inputs this
script writes from --seed (see child.py).  A run repeats invocations for
--seconds and reports medians over them.  With --trace 0 it reports the
end-to-end metrics named in BENCHMARK.json; with --trace 1 it alternates
untraced and traced invocations (tracing.py) and reports the per-layer
metrics, the tracing overhead among them.

Every invocation's output files are checked: invariants of the results,
exact counts, and agreement with the reference stored for this seed
(reference/, written by make_reference.py) within RTOL.  Byte equality
with the reference is reported as outputs_identical and is not required.
References are stored for REFERENCE_SEEDS input sets per scale; a larger
--seed uses the input set of its residue, so every run is checked against
a stored reference, and a missing one fails the run.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the
details: environment, per-invocation figures and check messages.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gzip
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"
WORK_DIR = ROOT / ".perfbench_work"

# Relative tolerance of the reference comparison.  It admits last-digit
# drift from reordered sums (~1e-15) and solver paths that stop at a
# different iterate, and catches a changed formula or estimator.
RTOL = 1e-6
# Compared as text: counts and identifiers must match exactly.
EXACT_COLUMNS = {"n_records", "replications", "clamped_count", "n_windows",
                 "index", "N", "T", "L", "estimator", "strategy", "hold_start"}
CHILD_TIMEOUT_S = 150

WIDE_CS = "1.0, 1.2, 1.4, 1.6, 1.8, 2.0"

# Shapes are fixed by the workload's purpose; replication counts, panel
# length and the number of cases set the work.  A run cycles over `cases`
# input sets drawn from the seed, because the cost of one input set moves
# with the markets it holds (backtest panels by 10-15%), and a median
# over several sets moves less.  "tiny" keeps every shape property
# (window shorter than N, six cells per market, ...) at a size the smoke
# test can afford.
WORKLOADS = {
    "full": {
        # the paper's wide regime: six exposure cells share each market
        "mc_wide_grid": {"threads": 1, "cases": 4, "grid": {
            "Ns": "600", "Ts": "300", "cs": WIDE_CS, "estimators": "sample",
            "portfolios_per_rep": "200", "replications": "3"}},
        # one cell per market, few portfolios, every estimator
        "mc_three_estimators": {"threads": 1, "cases": 4, "grid": {
            "Ns": "100", "Ts": "300", "cs": "1.0",
            "estimators": "sample, factor, poet",
            "portfolios_per_rep": "20", "replications": "100"}},
        # the only workload through the worker pool; enough replications
        # that a pool which works can beat its own start-up cost
        "mc_figure1_pool": {"threads": 2, "cases": 4,
                            "base_config": "configs/figure1.cfg",
                            "grid": {"replications": "20"}},
        # min-variance solves, PD repair and per-window fits; no simulation
        "backtest_wide": {"cases": 8, "panel": (300, 252 + 21 * 2), "window": 252,
                          "hold": 21, "exposures": "1,1.6,2"},
    },
    "tiny": {
        "mc_wide_grid": {"threads": 1, "cases": 2, "grid": {
            "Ns": "40", "Ts": "30", "cs": WIDE_CS, "estimators": "sample",
            "portfolios_per_rep": "5", "replications": "2"}},
        "mc_three_estimators": {"threads": 1, "cases": 2, "grid": {
            "Ns": "12", "Ts": "40", "cs": "1.0",
            "estimators": "sample, factor, poet",
            "portfolios_per_rep": "4", "replications": "3"}},
        "mc_figure1_pool": {"threads": 2, "cases": 2,
                            "base_config": "configs/figure1.cfg",
                            "grid": {"replications": "1", "portfolios_per_rep": "4"}},
        "backtest_wide": {"cases": 2, "panel": (30, 24 + 6 * 3), "window": 24,
                          "hold": 6, "exposures": "1,1.6,2"},
    },
}
# Input sets with a stored reference, per scale: --seed s runs on the
# input set of s % REFERENCE_SEEDS[scale].  make_reference.py --seeds
# 0-(n-1) stores n of them.
REFERENCE_SEEDS = {"full": 20, "tiny": 1}
# Simulations of case k of input set s use base_seed CASE_STRIDE * s + k.
CASE_STRIDE = 1000
# Backtest panels share one market (loadings and error covariance drawn
# from this seed); the benchmark seed and the case draw the factor path
# and the errors.  Across market draws the backtest's cost moves by ~17%.
MARKET_SEED = 0
ESTIMATORS = ("sample", "factor", "poet")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, bad arguments)."""


def _import_portrisk():
    if not (SRC / "portrisk" / "cli.py").is_file():
        raise BenchError(f"no portrisk sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import portrisk
    return portrisk


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh) if row and not row[0].startswith("#")]


# ---------------------------------------------------------------- inputs

@functools.lru_cache(maxsize=None)
def _market(N: int):
    import numpy as np
    pr = _import_portrisk()

    params = pr.default_calibration()
    instance = pr.build_model_instance(params, N, np.random.default_rng(MARKET_SEED))
    return params, instance, np.linalg.cholesky(instance.Sigma_u)


class Inputs:
    """The files one case of a workload reads, written from seed and case."""

    def __init__(self, spec: dict, seed: int, case: int, where: Path):
        self.spec, self.seed, self.case = spec, seed, case
        where = where / f"case{case}"
        where.mkdir()
        if "panel" in spec:
            self._write_panel(where)
        else:
            self._write_config(where)

    def _write_config(self, where: Path):
        lines = []
        override = dict(self.spec["grid"], base_seed=str(CASE_STRIDE * self.seed + self.case))
        if "base_config" in self.spec:
            for line in (ROOT / self.spec["base_config"]).read_text().splitlines():
                key = line.split("#", 1)[0].partition("=")[0].strip()
                if key not in override:
                    lines.append(line)
        lines.extend(f"{k} = {v}" for k, v in override.items())
        self.config_text = "\n".join(lines) + "\n"
        self.config = where / "grid.cfg"
        self.config.write_text(self.config_text)
        self.files = [self.config]

    def _write_panel(self, where: Path):
        import numpy as np
        pr = _import_portrisk()

        N, T = self.spec["panel"]
        params, instance, chol = _market(N)
        rng = np.random.default_rng([self.seed, self.case])
        F = pr.generate_var1_factors(params, T, rng)
        Y = F @ instance.B.T + rng.standard_normal((T, N)) @ chol.T
        dates = [f"d{t:05d}" for t in range(T)]
        self.returns, self.factors = where / "returns.csv", where / "factors.csv"
        for path, names, values in (
            (self.returns, [f"a{i:04d}" for i in range(N)], Y),
            (self.factors, ["f1", "f2", "f3"], F),
        ):
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["date"] + names)
                for date, row in zip(dates, values):
                    writer.writerow([date] + [repr(float(v)) for v in row])
        self.files = [self.returns, self.factors]

    def sha256(self) -> str:
        digest = hashlib.sha256()
        for path in self.files:
            digest.update(path.read_bytes())
        return digest.hexdigest()

    def argv(self, outdir: Path, threads: int | None = None) -> list:
        if "panel" in self.spec:
            return ["--output-dir", str(outdir), "empirical",
                    "--returns", str(self.returns), "--factors", str(self.factors),
                    "--estimators", ",".join(ESTIMATORS),
                    "--estimation-window", str(self.spec["window"]),
                    "--holding-window", str(self.spec["hold"]),
                    "--exposures", self.spec["exposures"], "--out-prefix", "backtest"]
        threads = self.spec["threads"] if threads is None else threads
        return ["--threads", str(threads), "--output-dir", str(outdir),
                "simulate", "--config", str(self.config), "--out-prefix", "experiment"]

    def output_names(self) -> tuple:
        if "panel" in self.spec:
            return ("backtest_records.csv", "backtest_summary.csv")
        return ("experiment_cells.csv", "experiment_figures.csv")


# ---------------------------------------------------------------- checks

def _simulate_expectations(inputs: Inputs) -> list:
    """(N, T, estimator, n_records, replications) per cells row, in grid order."""
    cfg = _import_portrisk().parse_grid_config(inputs.config_text)
    return [(cell.N, cell.T, name, cfg.replications * cell.portfolios_per_rep,
             cfg.replications)
            for cell in cfg.cells for name in cell.estimators]


def expected_assessments(inputs: Inputs) -> int:
    """Risk numbers with their H-CLUB bound one invocation must produce."""
    if "panel" not in inputs.spec:
        return sum(row[3] for row in _simulate_expectations(inputs))
    N, T = inputs.spec["panel"]
    windows = (T - inputs.spec["window"]) // inputs.spec["hold"]
    n_exposures = len(inputs.spec["exposures"].split(","))
    per_window = len(ESTIMATORS) * (1 + n_exposures)
    # the window is shorter than N, so the sample covariance is singular
    # and each sample min-variance case is skipped; all others complete
    if not inputs.spec["window"] < N:
        raise BenchError("backtest workloads need a window shorter than N")
    return windows * (per_window - n_exposures)


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _invariants(inputs: Inputs, rows: dict, problems: list) -> None:
    if "panel" in inputs.spec:
        header, *records = rows["backtest_records.csv"]
        if len(records) != expected_assessments(inputs):
            problems.append(f"{len(records)} backtest records, expected "
                            f"{expected_assessments(inputs)}")
        header, *summary = rows["backtest_summary.csv"]
        col = {name: i for i, name in enumerate(header)}
        if sum(int(r[col["n_windows"]]) for r in summary) != len(records):
            problems.append("summary n_windows do not add up to the records")
        for r in summary:
            if not 0.0 <= float(r[col["coverage"]]) <= 1.0:
                problems.append(f"coverage {r[col['coverage']]} outside [0, 1]")
        return

    header, *cells = rows["experiment_cells.csv"]
    col = {name: i for i, name in enumerate(header)}
    expected = _simulate_expectations(inputs)
    if len(cells) != len(expected):
        problems.append(f"{len(cells)} cell rows, expected {len(expected)}")
    for r, (N, T, name, n_records, reps) in zip(cells, expected):
        where = f"cell {name} N={N} c={r[col['c']]}"
        if (int(r[col["N"]]), int(r[col["T"]]), r[col["estimator"]]) != (N, T, name):
            problems.append(f"{where}: row out of grid order")
        if int(r[col["n_records"]]) != n_records or int(r[col["replications"]]) != reps:
            problems.append(f"{where}: n_records/replications "
                            f"{r[col['n_records']]}/{r[col['replications']]}")
        if not float(r[col["mean_xi"]]) >= float(r[col["mean_delta"]]):
            problems.append(f"{where}: mean_xi below mean_delta")
        if not 0.0 <= float(r[col["coverage"]]) <= 1.0:
            problems.append(f"{where}: coverage outside [0, 1]")
        if not 0 <= int(r[col["clamped_count"]]) <= n_records:
            problems.append(f"{where}: clamped_count out of range")
    if len(rows["experiment_figures.csv"]) != len(rows["experiment_cells.csv"]):
        problems.append("figures and cells tables differ in length")


def _compare(name: str, want: list, got: list, problems: list) -> None:
    if len(want) != len(got) or want[0] != got[0]:
        problems.append(f"{name}: shape or header differs from the reference")
        return
    header = want[0]
    for i, (a, b) in enumerate(zip(want[1:], got[1:]), start=1):
        for column, x, y in zip(header, a, b):
            if x == y:
                continue
            fx, fy = _number(x), _number(y)
            if (column in EXACT_COLUMNS or fx is None or fy is None
                    or not math.isclose(fx, fy, rel_tol=RTOL, abs_tol=1e-12)):
                problems.append(f"{name} row {i} {column}: {y} vs reference {x}")
                if len(problems) > 20:
                    return


def snapshot(inputs: Inputs, outdir: Path) -> dict:
    """Rows and sha256 of every output file of one invocation."""
    out = {}
    for name in inputs.output_names():
        path = outdir / name
        out[name] = {"sha256": _sha256(path), "rows": _read_rows(path)}
    return out


def check_outputs(inputs: Inputs, outdir: Path, reference: dict) -> tuple:
    """(problems, identical) for one invocation's output directory."""
    problems = []
    try:
        got = snapshot(inputs, outdir)
    except FileNotFoundError as exc:
        return [f"missing output: {exc.filename}"], False
    try:
        _invariants(inputs, {k: v["rows"] for k, v in got.items()}, problems)
    except (ValueError, KeyError, IndexError) as exc:
        problems.append(f"malformed output: {exc!r}")
    for name, entry in reference["files"].items():
        _compare(name, entry["rows"], got[name]["rows"], problems)
    identical = all(got[k]["sha256"] == v["sha256"]
                    for k, v in reference["files"].items())
    return problems, identical


def reference_key(scale: str, seed: int, case: int) -> str:
    return f"{scale}:{seed}:{case}"


def load_references(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json.gz"
    if not path.exists():
        return {}
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


# ----------------------------------------------------------- invocations

class Invoker:
    """Spawns child.py invocations inside one scratch directory."""

    def __init__(self, where: Path):
        self.where = where
        self.count = 0

    def __call__(self, argv_for, trace: bool) -> tuple:
        """Run one invocation; returns (result dict or None, outdir, log)."""
        self.count += 1
        outdir = self.where / f"out{self.count:04d}"
        outdir.mkdir()
        result_path = self.where / f"result{self.count:04d}.json"
        log_path = self.where / f"log{self.count:04d}.txt"
        cmd = [sys.executable, str(HERE / "child.py"), str(SRC), str(result_path),
               "1" if trace else "0", "--", *argv_for(outdir)]
        with open(log_path, "wb") as log:
            spawned = time.monotonic()
            # a session of its own, so a hung run goes down with its workers
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    cwd=self.where, start_new_session=True)
            try:
                proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
            finally:
                if proc.returncode is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
        result = None
        if proc.returncode == 0 and result_path.exists():
            result = json.loads(result_path.read_text())
            result_path.unlink()
            if result["exit_code"] == 0:
                result["setup_s"] = result["imported_at"] - spawned
            else:
                result = None
        return result, outdir, log_path

    @staticmethod
    def discard(outdir: Path, log_path: Path):
        shutil.rmtree(outdir, ignore_errors=True)
        log_path.unlink(missing_ok=True)


def _tail(path: Path, lines: int = 15) -> str:
    try:
        return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


def environment(threads: int | None) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    env = {k: os.environ.get(k) for k in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PRL_THREADS")}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": env,
        "workers": threads,
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(name: str, scale: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = WORKLOADS[scale][name]
    _import_portrisk()
    WORK_DIR.mkdir(exist_ok=True)
    where = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR))
    try:
        return _run(name, spec, scale, seed, seconds, trace, where)
    finally:
        shutil.rmtree(where, ignore_errors=True)


def _run(name, spec, scale, seed, seconds, trace, where) -> dict:
    input_seed = seed % REFERENCE_SEEDS[scale]
    cases = [Inputs(spec, input_seed, k, where) for k in range(spec["cases"])]
    stored = load_references(name)
    references = [stored.get(reference_key(scale, input_seed, k))
                  for k in range(len(cases))]
    per_run = expected_assessments(cases[0])
    invoke = Invoker(where)
    pool = spec.get("threads", 1) > 1

    # modes run back to back on each case: (label, threads or None, traced)
    if not trace:
        modes = [("run", None, False)]
    elif pool:
        # forked workers keep their spans, so the layer split comes from a
        # traced serial run of the same grid
        modes = [("run", None, False), ("serial", 1, False), ("traced", 1, True)]
    else:
        modes = [("run", None, False), ("traced", None, True)]

    results = {label: [] for label, _, _ in modes}
    problems = [f"no stored reference for {name} {reference_key(scale, input_seed, k)}"
                for k, ref in enumerate(references) if ref is None]
    identical = []
    attempted = failed = 0
    deadline = time.monotonic() + seconds
    visits = 0
    # every case at least once, then round robin until the deadline
    while visits < len(cases) or time.monotonic() < deadline:
        k = visits % len(cases)
        inputs, visits = cases[k], visits + 1
        for label, threads, traced in modes:
            result, outdir, log_path = invoke(
                lambda d: inputs.argv(d, threads=threads), traced)
            attempted += per_run
            if result is None:
                failed += per_run
                problems.append(f"{label} invocation failed:\n{_tail(log_path)}")
            elif references[k] is None:
                failed += per_run
            else:
                found, same = check_outputs(inputs, outdir, references[k])
                if found:
                    failed += per_run
                    problems.extend(f"{label} case {k}: {p}" for p in found)
                else:
                    results[label].append(result)
                identical.append(same)
            invoke.discard(outdir, log_path)
        if problems:
            break

    runs = results["run"]
    walls = [r["wall_s"] for r in runs]
    end_to_end = {
        "setup_s": _median([r["setup_s"] for r in runs]),
        "wall_s": _median(walls),
        "assessments_per_s": _median([per_run / w for w in walls]),
        "cpu_s": _median([r["cpu_s"] for r in runs]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in runs]),
        "failed_frac": failed / attempted,
    }
    checked = [(r, c) for r, c in zip(references, cases) if r]
    detail = {
        "workload": name, "scale": scale, "seed": seed, "input_seed": input_seed,
        "trace": trace, "cases": len(cases),
        "invocations": {label: len(v) for label, v in results.items()},
        "assessments_per_invocation": per_run,
        "stored_references": len(checked),
        # None when no invocation was checked
        "outputs_identical": all(identical) if identical else None,
        "inputs_identical": all(r["inputs_sha256"] == c.sha256() for r, c in checked),
        "environment": environment(spec.get("threads")),
        "wall_s_each": walls,
        "problems": problems,
        "end_to_end": end_to_end,
    }
    if trace:
        detail["per_layer"] = layer_metrics(results, pool, spec.get("threads", 1))
    return {"detail": detail, "correct": not problems and failed == 0,
            "attempted": attempted, "failed": failed}


def layer_metrics(results: dict, pool: bool, workers: int) -> dict:
    traced = [r["trace"] for r in results["traced"]]
    untraced = results["serial"] if pool else results["run"]

    def span(name, field):
        return _median([t["spans"].get(name, {}).get(field, 0) for t in traced])

    def counter(name):
        return _median([t["counters"].get(name, 0) for t in traced])

    out = {}
    for layer in ("simulation.generate_error_cov", "simulation.generate_var1_factors",
                  "simulation.build_model_instance", "simulation.run_replication",
                  "simulation.run_experiment", "estimators.sample_covariance",
                  "estimators.factor_fit", "estimators.poet_fit",
                  "estimators.ensure_positive_definite",
                  "portfolios.sample_random_portfolio", "portfolios.min_variance",
                  "assessment.autocov", "assessment.hclub",
                  "backtest.run_empirical_study", "panels.load", "reporting.write",
                  "cli.main"):
        out[f"{layer}.calls"] = span(layer, "calls")
        out[f"{layer}.self_s"] = span(layer, "self_s")
    for name in ("estimators.pd_repairs", "portfolios.min_variance.failed",
                 "assessment.autocov.clamped", "backtest.records", "backtest.skipped",
                 "panels.load.bytes", "reporting.write.bytes"):
        out[name] = counter(name)
    builds = out["simulation.build_model_instance.calls"]
    out["simulation.market_reuse"] = (
        out["simulation.run_replication.calls"] / builds if builds else 0.0)
    if pool:
        # serial wall over pool wall, untraced
        pool_wall = _median([r["wall_s"] for r in results["run"]])
        speedup = (_median([r["wall_s"] for r in results["serial"]]) / pool_wall
                   if pool_wall else 0.0)
        out["simulation.pool.speedup"] = speedup
        out["simulation.pool.efficiency"] = speedup / workers
    out["tracing_overhead_s"] = (_median([r["wall_s"] for r in results["traced"]])
                                 - _median([r["wall_s"] for r in untraced]))
    return out


# ---------------------------------------------------------------- output

def _declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def report(outcome: dict, declared: dict) -> dict:
    """Print the human-readable block; return the contract's JSON object."""
    detail = outcome["detail"]
    values = detail["per_layer"] if detail["trace"] else detail["end_to_end"]
    metrics = {}
    for name, unit in declared[detail["trace"]].items():
        metrics[name] = {"value": values[name], "unit": unit}
    print(f"workload {detail['workload']} seed {detail['seed']} "
          f"trace {int(detail['trace'])}: invocations {detail['invocations']}, "
          f"correct {outcome['correct']}, stored references "
          f"{detail['stored_references']}/{detail['cases']}, "
          f"outputs_identical {detail['outputs_identical']}")
    if not detail["trace"]:
        print(f"  {'failed_frac':<28} {detail['end_to_end']['failed_frac']:.6g} fraction")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:.6g} {m['unit']}")
    for name in ("simulation.pool.speedup", "simulation.pool.efficiency"):
        if detail["trace"] and name in values:
            print(f"  {name:<28} {values[name]:.6g} ratio (not in BENCHMARK.json)")
    for problem in detail["problems"]:
        print(f"  problem: {problem}", file=sys.stderr)
    return {"correct": outcome["correct"], "attempted": outcome["attempted"],
            "failed": outcome["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(WORKLOADS['full'])}, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(WORKLOADS), default="full",
                        help="tiny shrinks every workload for the smoke test")
    args = parser.parse_args(argv)
    # unwind on SIGTERM too, so running invocations are killed and the
    # scratch directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = list(WORKLOADS[args.scale]) if args.workload == "all" else [args.workload]
    try:
        if any(n not in WORKLOADS[args.scale] for n in names):
            raise BenchError(f"unknown workload {args.workload!r}")
        if args.seed < 0:
            raise BenchError("--seed must be nonnegative")
        declared = _declared_metrics()
        outcomes = [run_workload(n, args.scale, args.seed, args.seconds, bool(args.trace))
                    for n in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for outcome in outcomes:
        final = report(outcome, declared)
        print(json.dumps(outcome["detail"]))
        print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
