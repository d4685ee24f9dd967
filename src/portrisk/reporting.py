"""Tables and summaries for experiment and backtest results.

CSV writers mirror the aggregate dataclasses one row per cell; markdown
renderers produce compact tables for terminal or report use.  Risk
columns marked annual are scaled by sqrt(periods per year) and keep the
units of the underlying data.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .backtest import BacktestReport, annualize_risk
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

_CELL_COLUMNS = (
    "estimator", "N", "T", "c", "L", "tau", "replications", "n_records",
    "mean_delta", "sd_delta", "mean_xi", "sd_xi", "mean_u", "sd_u",
    "mean_re1", "sd_re1", "mean_re2", "sd_re2",
    "mean_true_risk", "sd_true_risk", "coverage", "clamped_count",
)


def experiment_cells_csv(report: ExperimentReport, path, header_lines=()):
    """One row per (cell, estimator) aggregate, in grid order."""
    rows = [tuple(getattr(agg, col) for col in _CELL_COLUMNS) for agg in report.cells]
    write_csv(path, header_lines, _CELL_COLUMNS, rows)


def experiment_figures_csv(report: ExperimentReport, path, periods_per_year=252.0,
                           header_lines=()):
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


def experiment_markdown(report: ExperimentReport) -> str:
    """Markdown summary: one table row per (cell, estimator)."""
    cols = ("estimator", "N", "T", "c", "mean Delta", "mean U", "mean xi",
            "RE1", "RE2", "coverage")
    rows = [
        tuple(_fmt(v) for v in (
            agg.estimator, agg.N, agg.T, agg.c, agg.mean_delta, agg.mean_u,
            agg.mean_xi, agg.mean_re1, agg.mean_re2, agg.coverage,
        ))
        for agg in report.cells
    ]
    head = (f"Replication study: {report.replications} replications per cell, "
            f"base seed {report.base_seed}.\n\n")
    return head + _markdown_table(cols, rows) + "\n"


_RECORD_COLUMNS = (
    "index", "hold_start", "strategy", "estimator", "gross",
    "variance_hat", "risk_hat", "sigma2_hat", "u_variance", "u_risk",
    "realized_variance", "realized_risk", "risk_error", "covered", "clamped",
)


def backtest_records_csv(report: BacktestReport, path, header_lines=()):
    rows = [
        tuple(getattr(rec, col) for col in _RECORD_COLUMNS)
        for rec in report.records
    ]
    write_csv(path, header_lines, _RECORD_COLUMNS, rows)


_SUMMARY_COLUMNS = (
    "strategy", "estimator", "n_windows",
    "mean_risk_hat_annual", "mean_realized_risk_annual",
    "mean_estimated_error_annual", "mean_realized_error_annual", "coverage",
)


def backtest_summary_csv(report: BacktestReport, path, header_lines=()):
    rows = [
        tuple(getattr(agg, col) for col in _SUMMARY_COLUMNS)
        for agg in report.aggregates
    ]
    write_csv(path, header_lines, _SUMMARY_COLUMNS, rows)


def backtest_markdown(report: BacktestReport) -> str:
    cols = ("strategy", "estimator", "windows", "predicted risk/yr",
            "realized risk/yr", "est. error/yr", "realized error/yr", "coverage")
    rows = [
        tuple(_fmt(v) for v in (
            agg.strategy, agg.estimator, agg.n_windows,
            agg.mean_risk_hat_annual, agg.mean_realized_risk_annual,
            agg.mean_estimated_error_annual, agg.mean_realized_error_annual,
            agg.coverage,
        ))
        for agg in report.aggregates
    ]
    head = (f"Rolling study over {report.n_rebalances} rebalances of "
            f"{report.n_assets} assets, holding {report.config.holding_window} "
            f"periods from {report.first_hold_date} to {report.last_date}.\n")
    if report.skipped:
        head += f"Skipped cases: {len(report.skipped)}.\n"
    return head + "\n" + _markdown_table(cols, rows) + "\n"
