"""Return and factor panels: loading, alignment, pre-processing.

A panel is an immutable wrapper around an ordered list of date labels, a
list of column names, and a T x N value matrix.  Dates are opaque strings;
the only structure ever used is their sort order, so ISO-8601 or yyyymmdd
labels both work.  Values are per-period decimal returns unless a file is
loaded with ``percent_units=True``, in which case they are multiplied by
0.01 at parse time.  Files are read by serialization.read_table, the one
reader of labeled numeric tables; this module adds the panel's checks
(nonblank, strictly increasing dates, distinct names, finite values).
Missing or non-numeric cells are hard errors naming their row and column:
the theory downstream assumes a complete panel, so nothing is imputed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError
from .serialization import _check_distinct, read_table

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
    percent_units: multiply all values by 0.01 (Ken-French style files).
    riskfree_column: column dropped from factor files (load it separately
        with load_rate_series when excess returns are needed).
    excluded_columns: further columns to drop by name.
    """

    delimiter: str = ","
    percent_units: bool = False
    riskfree_column: str | None = None
    excluded_columns: tuple[str, ...] = ()


def _check_dates(dates: tuple[str, ...]) -> None:
    for i in range(1, len(dates)):
        if dates[i] <= dates[i - 1]:
            raise DataError(
                f"dates must be strictly increasing: {dates[i]!r} follows {dates[i - 1]!r}"
            )


class _Panel:
    """Checks and row slicing shared by ReturnsPanel and FactorPanel: a
    subclass names its column-label field (_COLUMNS), one column (_NOUN),
    the panel (_KIND) and, with _MIN_ROWS = 2, needs at least two rows.
    Column labels must be distinct, so each maps back to one column."""

    _MIN_ROWS = 0

    def __post_init__(self):
        dates, names = tuple(self.dates), tuple(getattr(self, self._COLUMNS))
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, self._COLUMNS, names)
        values = np.atleast_2d(np.array(self.values, dtype=float))
        if values.shape != (len(dates), len(names)):
            raise DataError(
                f"value matrix shape {values.shape} does not match "
                f"{len(dates)} dates x {len(names)} {self._NOUN}s"
            )
        if len(dates) < self._MIN_ROWS:
            raise DataError(f"a {self._KIND} panel needs at least two rows")
        if not names:
            raise DataError(f"a {self._KIND} panel needs at least one {self._NOUN}")
        _check_distinct(names, self._NOUN, f"a {self._KIND} panel")
        if not np.all(np.isfinite(values)):
            t, j = np.argwhere(~np.isfinite(values))[0]
            raise DataError(
                f"non-finite value at date {dates[t]!r}, {self._NOUN} {names[j]!r}"
            )
        _check_dates(dates)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def T(self) -> int:
        return self.values.shape[0]

    def slice_rows(self, start: int, stop: int):
        """The panel on rows start:stop."""
        return replace(self, dates=self.dates[start:stop], values=self.values[start:stop])


@dataclass(frozen=True)
class ReturnsPanel(_Panel):
    """T x N panel of per-period returns for N assets."""

    dates: tuple[str, ...]
    assets: tuple[str, ...]
    values: np.ndarray

    _COLUMNS, _NOUN, _KIND, _MIN_ROWS = "assets", "asset", "returns", 2

    @property
    def N(self) -> int:
        return self.values.shape[1]

    @property
    def demeaned_values(self) -> np.ndarray:
        """Column-demeaned copy of the values, computed once and cached.

        A column whose values are all equal demeans to exact zeros: its
        computed mean can miss the value by a rounding, which would leave
        it a variance of ~1e-31 instead of the zero the estimators reject.
        """
        cached = getattr(self, "_demeaned", None)
        if cached is None:
            cached = self.values - self.values.mean(axis=0)
            cached[:, self.values.min(axis=0) == self.values.max(axis=0)] = 0.0
            cached.setflags(write=False)
            object.__setattr__(self, "_demeaned", cached)
        return cached


@dataclass(frozen=True)
class FactorPanel(_Panel):
    """T x K panel of factor observations."""

    dates: tuple[str, ...]
    factor_names: tuple[str, ...]
    values: np.ndarray

    _COLUMNS, _NOUN, _KIND = "factor_names", "factor", "factor"

    @property
    def K(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class RateSeries:
    """A single per-period rate series, e.g. the risk-free rate."""

    dates: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dates", tuple(self.dates))
        values = np.array(self.values, dtype=float).reshape(-1)
        if values.shape[0] != len(self.dates):
            raise DataError("rate series length does not match its dates")
        if not np.all(np.isfinite(values)):
            raise DataError("non-finite value in rate series")
        _check_dates(self.dates)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def _read_table(path, config: ParseConfig):
    """(dates, names, T x N floats) of a panel file: serialization.read_table
    with the excluded and risk-free columns dropped, labels and names
    stripped, dates nonblank and strictly increasing, and percent values
    multiplied by 0.01.  Errors name the data row (1-based, after the
    header) and column, so a malformed cell can be found in the file.
    """
    drop = {*config.excluded_columns, config.riskfree_column} - {None}
    header, labels, values = read_table(path, config.delimiter, drop)
    if len(header) < 2:
        raise DataError(f"{path}: header must contain a date column and data columns")
    dates = [label.strip() for label in labels]
    for i, date in enumerate(dates, start=1):
        if not date:
            raise DataError(f"{path}: row {i} has an empty date")
        if i > 1 and date <= dates[i - 2]:
            raise DataError(f"{path}: row {i} date {date!r} is not strictly after "
                            f"{dates[i - 2]!r}")
    names = tuple(name.strip() for name in header[1:])
    return tuple(dates), names, values * (0.01 if config.percent_units else 1.0)


def load_returns_csv(path, config: ParseConfig | None = None) -> ReturnsPanel:
    """Load an asset-return panel from a delimited text file.

    The first column holds date labels, the header row holds asset names.
    """
    return ReturnsPanel(*_read_table(path, config or ParseConfig()))


def load_factors_csv(path, config: ParseConfig | None = None) -> FactorPanel:
    """Load a factor panel; the risk-free column, if named, is dropped."""
    return FactorPanel(*_read_table(path, config or ParseConfig()))


def load_rate_series(path, column: str, config: ParseConfig | None = None) -> RateSeries:
    """Pull one named column (e.g. the risk-free rate) out of a file."""
    base = replace(config or ParseConfig(), riskfree_column=None, excluded_columns=())
    dates, names, values = _read_table(path, base)
    if column not in names:
        raise DataError(f"{path}: no column named {column!r}")
    if names.count(column) > 1:
        raise DataError(f"{path}: column {column!r} appears twice")
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
    return tuple(replace(panel, dates=[d for d in panel.dates if d in keep],
                         values=panel.values[[d in keep for d in panel.dates]])
                 for panel in (returns, factors))


def demean(panel: ReturnsPanel) -> ReturnsPanel:
    """Remove each column's sample mean."""
    return ReturnsPanel(panel.dates, panel.assets, panel.demeaned_values)
