"""Return and factor panels: loading, alignment, pre-processing.

A panel is an immutable wrapper around an ordered list of date labels, a
list of column names, and a T x N value matrix.  Dates are opaque strings;
the only structure ever used is their sort order, so ISO-8601 or yyyymmdd
labels both work.  Values are per-period decimal returns unless a file is
loaded with ``percent_units=True``, in which case they are divided by 100
at parse time.  Missing or non-numeric cells are hard errors: the theory
downstream assumes a complete panel, so nothing is imputed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError
from .serialization import read_csv

__all__ = [
    "ParseConfig",
    "ReturnsPanel",
    "FactorPanel",
    "RateSeries",
    "load_returns_csv",
    "load_factors_csv",
    "load_rate_series",
    "compute_excess_returns",
    "align_panels",
    "demean",
]


@dataclass(frozen=True)
class ParseConfig:
    """Options for the CSV loaders.

    delimiter: field separator, default comma.
    percent_units: divide all values by 100 (Ken-French style files).
    riskfree_column: column dropped from factor files (load it separately
        with load_rate_series when excess returns are needed).
    excluded_columns: further columns to drop by name.
    """

    delimiter: str = ","
    percent_units: bool = False
    riskfree_column: str | None = None
    excluded_columns: tuple[str, ...] = ()


def _freeze(values: np.ndarray) -> np.ndarray:
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


def _check_dates(dates: tuple[str, ...]) -> None:
    for i in range(1, len(dates)):
        if dates[i] <= dates[i - 1]:
            raise DataError(
                f"dates must be strictly increasing: {dates[i]!r} follows {dates[i - 1]!r}"
            )


@dataclass(frozen=True)
class ReturnsPanel:
    """T x N panel of per-period returns for N assets."""

    dates: tuple[str, ...]
    assets: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "assets", tuple(self.assets))
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if values.shape != (len(self.dates), len(self.assets)):
            raise DataError(
                f"value matrix shape {values.shape} does not match "
                f"{len(self.dates)} dates x {len(self.assets)} assets"
            )
        if len(self.dates) < 2:
            raise DataError("a returns panel needs at least two rows")
        if len(self.assets) < 1:
            raise DataError("a returns panel needs at least one asset")
        if not np.all(np.isfinite(values)):
            t, n = np.argwhere(~np.isfinite(values))[0]
            raise DataError(
                f"non-finite value at date {self.dates[t]!r}, asset {self.assets[n]!r}"
            )
        _check_dates(self.dates)
        object.__setattr__(self, "values", _freeze(values))

    @property
    def T(self) -> int:
        return self.values.shape[0]

    @property
    def N(self) -> int:
        return self.values.shape[1]

    @property
    def demeaned_values(self) -> np.ndarray:
        """Column-demeaned copy of the values, computed once and cached."""
        cached = getattr(self, "_demeaned", None)
        if cached is None:
            cached = _freeze(self.values - self.values.mean(axis=0))
            object.__setattr__(self, "_demeaned", cached)
        return cached

    def slice_rows(self, start: int, stop: int) -> "ReturnsPanel":
        return ReturnsPanel(self.dates[start:stop], self.assets, self.values[start:stop])


@dataclass(frozen=True)
class FactorPanel:
    """T x K panel of factor observations."""

    dates: tuple[str, ...]
    factor_names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "factor_names", tuple(self.factor_names))
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if values.shape != (len(self.dates), len(self.factor_names)):
            raise DataError(
                f"value matrix shape {values.shape} does not match "
                f"{len(self.dates)} dates x {len(self.factor_names)} factors"
            )
        if len(self.factor_names) < 1:
            raise DataError("a factor panel needs at least one factor")
        if not np.all(np.isfinite(values)):
            t, k = np.argwhere(~np.isfinite(values))[0]
            raise DataError(
                f"non-finite value at date {self.dates[t]!r}, "
                f"factor {self.factor_names[k]!r}"
            )
        _check_dates(self.dates)
        object.__setattr__(self, "values", _freeze(values))

    @property
    def T(self) -> int:
        return self.values.shape[0]

    @property
    def K(self) -> int:
        return self.values.shape[1]

    def slice_rows(self, start: int, stop: int) -> "FactorPanel":
        return FactorPanel(self.dates[start:stop], self.factor_names, self.values[start:stop])


@dataclass(frozen=True)
class RateSeries:
    """A single per-period rate series, e.g. the risk-free rate."""

    dates: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dates", tuple(self.dates))
        values = np.asarray(self.values, dtype=float).reshape(-1)
        if values.shape[0] != len(self.dates):
            raise DataError("rate series length does not match its dates")
        if not np.all(np.isfinite(values)):
            raise DataError("non-finite value in rate series")
        _check_dates(self.dates)
        object.__setattr__(self, "values", _freeze(values))


def _read_table(path, config: ParseConfig):
    """Parse a delimited file into (dates, names, T x N floats).

    Errors name the offending data row (1-based, excluding the header) and
    column so a malformed cell can be found in the original file.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"file not found: {path}")
    rows = read_csv(path, config.delimiter)
    if len(rows) < 2:
        raise DataError(f"{path}: need a header row and at least one data row")
    header = [cell.strip() for cell in rows[0]]
    if len(header) < 2:
        raise DataError(f"{path}: header must contain a date column and data columns")
    names = header[1:]
    drop = set(config.excluded_columns)
    if config.riskfree_column is not None:
        drop.add(config.riskfree_column)
    keep = [j for j, name in enumerate(names) if name not in drop]
    if not keep:
        raise DataError(f"{path}: every data column was excluded")

    dates = []
    values = np.empty((len(rows) - 1, len(keep)))
    scale = 0.01 if config.percent_units else 1.0
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise DataError(
                f"{path}: row {i} has {len(row)} fields, header has {len(header)}"
            )
        date = row[0].strip()
        if not date:
            raise DataError(f"{path}: row {i} has an empty date")
        if dates and date <= dates[-1]:
            raise DataError(
                f"{path}: row {i} date {date!r} is not strictly after {dates[-1]!r}"
            )
        dates.append(date)
        for out_j, j in enumerate(keep):
            cell = row[1 + j].strip()
            try:
                values[i - 1, out_j] = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: row {i}, column {names[j]!r}: "
                    f"cannot parse {cell!r} as a number"
                ) from None
    return tuple(dates), tuple(names[j] for j in keep), values * scale


def load_returns_csv(path, config: ParseConfig | None = None) -> ReturnsPanel:
    """Load an asset-return panel from a delimited text file.

    The first column holds date labels, the header row holds asset names.
    """
    config = config or ParseConfig()
    dates, assets, values = _read_table(path, config)
    return ReturnsPanel(dates, assets, values)


def load_factors_csv(path, config: ParseConfig | None = None) -> FactorPanel:
    """Load a factor panel; the risk-free column, if named, is dropped."""
    config = config or ParseConfig()
    dates, names, values = _read_table(path, config)
    return FactorPanel(dates, names, values)


def load_rate_series(path, column: str, config: ParseConfig | None = None) -> RateSeries:
    """Pull one named column (e.g. the risk-free rate) out of a file."""
    config = config or ParseConfig()
    base = ParseConfig(
        delimiter=config.delimiter,
        percent_units=config.percent_units,
    )
    dates, names, values = _read_table(path, base)
    if column not in names:
        raise DataError(f"{path}: no column named {column!r}")
    return RateSeries(dates, values[:, names.index(column)])


def compute_excess_returns(returns: ReturnsPanel, riskfree: RateSeries) -> ReturnsPanel:
    """Subtract the same-date risk-free rate from every asset's return."""
    if len(riskfree.dates) != returns.T:
        raise DataError(
            f"risk-free series has {len(riskfree.dates)} rows, panel has {returns.T}"
        )
    for d_panel, d_rate in zip(returns.dates, riskfree.dates):
        if d_panel != d_rate:
            raise DataError(
                f"risk-free date {d_rate!r} does not match panel date {d_panel!r}"
            )
    return ReturnsPanel(
        returns.dates, returns.assets, returns.values - riskfree.values[:, None]
    )


def align_panels(returns: ReturnsPanel, factors: FactorPanel):
    """Restrict both panels to their common dates, in order.

    Returns the pair (returns, factors) on the intersection; raises if the
    intersection has fewer than two dates.
    """
    common = sorted(set(returns.dates) & set(factors.dates))
    if len(common) < 2:
        raise DataError("panels share fewer than two dates")
    if tuple(common) == returns.dates == factors.dates:
        return returns, factors
    keep = set(common)
    r_idx = [i for i, d in enumerate(returns.dates) if d in keep]
    f_idx = [i for i, d in enumerate(factors.dates) if d in keep]
    out_r = ReturnsPanel(
        [returns.dates[i] for i in r_idx], returns.assets, returns.values[r_idx]
    )
    out_f = FactorPanel(
        [factors.dates[i] for i in f_idx], factors.factor_names, factors.values[f_idx]
    )
    return out_r, out_f


def demean(panel: ReturnsPanel) -> ReturnsPanel:
    """Remove each column's sample mean."""
    return ReturnsPanel(panel.dates, panel.assets, panel.demeaned_values)
