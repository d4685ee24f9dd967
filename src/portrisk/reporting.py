"""Tables and summaries for experiment and backtest results.

Each CSV writer but the figures table writes one row per result record,
its columns the fields of the record's dataclass in declared order;
markdown renderers produce compact tables for terminal or report use.
Risk columns marked annual are scaled by sqrt(periods per year) and keep
the units of the underlying data.
"""

from __future__ import annotations

from dataclasses import fields
from typing import TYPE_CHECKING

from .backtest import BacktestReport, RebalanceRecord, StrategyAggregate, annualize_risk
from .portfolios import DEFAULT_PERIODS_PER_YEAR
from .serialization import write_csv

if TYPE_CHECKING:
    from .simulation import ExperimentReport

__all__ = [
    "experiment_cells_csv",
    "experiment_figures_csv",
    "experiment_markdown",
    "backtest_records_csv",
    "backtest_summary_csv",
    "backtest_markdown",
]


def _write_table(path, header_lines, cls, items):
    """One row per item of dataclass cls; the columns are cls's fields."""
    columns = tuple(f.name for f in fields(cls))
    write_csv(path, header_lines, columns,
              (tuple(getattr(item, col) for col in columns) for item in items))


def experiment_cells_csv(report: ExperimentReport, path, header_lines=()):
    """One row per (cell, estimator) aggregate, in grid order."""
    from .simulation import CellAggregate

    _write_table(path, header_lines, CellAggregate, report.cells)


def experiment_figures_csv(report: ExperimentReport, path,
                           periods_per_year=DEFAULT_PERIODS_PER_YEAR, header_lines=()):
    """Per-cell means of Delta, U, xi plus the annualized true risk."""
    cols = ("N", "T", "c", "estimator", "mean_delta", "mean_u", "mean_xi",
            "annual_true_risk")
    rows = [
        (agg.N, agg.T, agg.c, agg.estimator, agg.mean_delta, agg.mean_u,
         agg.mean_xi, annualize_risk(agg.mean_true_risk, periods_per_year))
        for agg in report.cells
    ]
    write_csv(path, header_lines, cols, rows)


def _markdown_table(columns, rows) -> str:
    out = ["| " + " | ".join(columns) + " |",
           "|" + "|".join("---" for _ in columns) + "|"]
    out.extend("| " + " | ".join(rows_cells) + " |" for rows_cells in rows)
    return "\n".join(out)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _markdown(columns, items) -> str:
    """A markdown table of items: a (label, field) pair per column."""
    return _markdown_table([label for label, _ in columns],
                           ([_fmt(getattr(item, field)) for _, field in columns]
                            for item in items))


# (label, CellAggregate field) per column; `portrisk report` shows the same
# fields of a saved cells table, under their field names
_EXPERIMENT_MARKDOWN = (
    ("estimator", "estimator"), ("N", "N"), ("T", "T"), ("c", "c"),
    ("mean Delta", "mean_delta"), ("mean U", "mean_u"), ("mean xi", "mean_xi"),
    ("RE1", "mean_re1"), ("RE2", "mean_re2"), ("coverage", "coverage"),
)


def experiment_markdown(report: ExperimentReport) -> str:
    """Markdown summary: one table row per (cell, estimator)."""
    head = (f"Replication study: {report.replications} replications per cell, "
            f"base seed {report.base_seed}.\n\n")
    return head + _markdown(_EXPERIMENT_MARKDOWN, report.cells) + "\n"


def backtest_records_csv(report: BacktestReport, path, header_lines=()):
    _write_table(path, header_lines, RebalanceRecord, report.records)


def backtest_summary_csv(report: BacktestReport, path, header_lines=()):
    _write_table(path, header_lines, StrategyAggregate, report.aggregates)


# (label, StrategyAggregate field) per column
_BACKTEST_MARKDOWN = (
    ("strategy", "strategy"), ("estimator", "estimator"), ("windows", "n_windows"),
    ("predicted risk/yr", "mean_risk_hat_annual"),
    ("realized risk/yr", "mean_realized_risk_annual"),
    ("est. error/yr", "mean_estimated_error_annual"),
    ("realized error/yr", "mean_realized_error_annual"), ("coverage", "coverage"),
)


def backtest_markdown(report: BacktestReport) -> str:
    head = (f"Rolling study over {report.n_rebalances} rebalances of "
            f"{report.n_assets} assets, holding {report.config.holding_window} "
            f"periods from {report.first_hold_date} to {report.last_date}.\n")
    if report.skipped:
        head += f"Skipped cases: {len(report.skipped)}.\n"
    return head + "\n" + _markdown(_BACKTEST_MARKDOWN, report.aggregates) + "\n"
