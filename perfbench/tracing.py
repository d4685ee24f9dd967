"""In-memory spans around the public functions of each portrisk layer.

Every wrapper is installed on the module where the caller looks the
function up (``from .estimators import sample_covariance`` binds a name in
``portrisk.simulation``, so that is the attribute replaced).  A span keeps
its name, the index of its parent span and its start and end times; self
time is the span's duration minus the time its direct children cover.
Nothing is written until ``summary`` is called at the end of a run.
"""

from __future__ import annotations

import functools
import os
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []          # [name, parent index or -1, start, end]
        self.counters = Counter()
        self._stack = []

    def wrap(self, module, attr, name, observe=None, on_error=None):
        """Replace module.attr with a traced version recording span `name`.

        observe(result, args, kwargs) runs after a successful call, outside
        the span; on_error names a counter bumped when the call raises.
        """
        fn = getattr(module, attr)
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if on_error:
                    counters[on_error] += 1
                raise
            finally:
                span[3] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(result, args, kwargs)
            return result

        setattr(module, attr, traced)

    def summary(self) -> dict:
        """Calls and self seconds per span name, plus the counters."""
        covered = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for (name, _, start, end), child_time in zip(self.spans, covered):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += end - start - child_time
        return {"spans": out, "counters": dict(self.counters)}


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the CLI's simulate and empirical paths."""
    from portrisk import backtest, cli, estimators, simulation

    def count_if(counter, predicate):
        def observe(result, args, kwargs):
            if predicate(result, args):
                tracer.counters[counter] += 1
        return observe

    def add_bytes(counter, path_arg):
        def observe(result, args, kwargs):
            tracer.counters[counter] += os.path.getsize(args[path_arg])
        return observe

    # the estimators module itself: poet_covariance recomputes S through
    # its own sample_covariance, and ensure_positive_definite re-thresholds
    # through the factor_covariance / poet_covariance globals
    layers = {
        "sample_covariance": "estimators.sample_covariance",
        "ols_factor_fit": "estimators.factor_fit",
        "factor_covariance": "estimators.factor_fit",
        "pca_factor_fit": "estimators.poet_fit",
        "poet_covariance": "estimators.poet_fit",
        "select_num_factors": "estimators.poet_fit",
    }
    for module in (simulation, backtest, estimators):
        for attr, name in layers.items():
            if hasattr(module, attr):
                tracer.wrap(module, attr, name)
    clamped = count_if("assessment.autocov.clamped", lambda r, a: r.clamped)
    for module in (simulation, backtest):
        for attr in ("autocov_sample", "autocov_factor", "autocov_poet"):
            tracer.wrap(module, attr, "assessment.autocov", observe=clamped)
    tracer.wrap(simulation, "hclub_z", "assessment.hclub")
    tracer.wrap(backtest, "hclub", "assessment.hclub")
    tracer.wrap(backtest, "ensure_positive_definite",
                "estimators.ensure_positive_definite",
                observe=count_if("estimators.pd_repairs", lambda r, a: r is not a[0]))
    tracer.wrap(backtest, "min_variance", "portfolios.min_variance",
                on_error="portfolios.min_variance.failed")
    tracer.wrap(simulation, "sample_random_portfolio",
                "portfolios.sample_random_portfolio")
    for attr in ("build_model_instance", "generate_error_cov",
                 "generate_var1_factors", "run_replication"):
        tracer.wrap(simulation, attr, f"simulation.{attr}")

    def backtest_counts(report, args, kwargs):
        tracer.counters["backtest.records"] += len(report.records)
        tracer.counters["backtest.skipped"] += len(report.skipped)

    tracer.wrap(cli, "run_experiment", "simulation.run_experiment")
    tracer.wrap(cli, "run_empirical_study", "backtest.run_empirical_study",
                observe=backtest_counts)
    for attr in ("load_returns_csv", "load_factors_csv"):
        tracer.wrap(cli, attr, "panels.load", observe=add_bytes("panels.load.bytes", 0))
    for attr in ("experiment_cells_csv", "experiment_figures_csv",
                 "backtest_records_csv", "backtest_summary_csv"):
        tracer.wrap(cli, attr, "reporting.write",
                    observe=add_bytes("reporting.write.bytes", 1))
