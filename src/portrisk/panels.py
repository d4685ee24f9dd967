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

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DataError
from .serialization import _check_distinct, read_csv

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
        """Column-demeaned copy of the values, computed once and cached."""
        cached = getattr(self, "_demeaned", None)
        if cached is None:
            cached = self.values - self.values.mean(axis=0)
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
    """Parse a delimited file into (dates, names, T x N floats).

    A plain file (see _read_plain_table) has its numbers parsed by one
    np.loadtxt call; any other file, and every file with an error, goes
    through read_csv and a row-by-row parser.  Both give the same dates,
    names and values, bit for bit.  Errors name the offending data row
    (1-based, excluding the header) and column so a malformed cell can be
    found in the original file.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"file not found: {path}")
    table = _read_plain_table(path, config)
    return table if table is not None else _parse_rows(path, config)


# ASCII characters np.loadtxt strips around a number as whitespace and
# float() does not, and the ones csv.reader gives a meaning of its own
_NOT_PLAIN = ('"', "\0", "\x1c", "\x1d", "\x1e", "\x1f")


def _read_plain_table(path: Path, config: ParseConfig):
    """_read_table's result for a plain file, or None for any other file.

    A file is plain when it is UTF-8 text (a leading byte-order mark is
    dropped) without a quote, NUL, lone carriage return or ASCII separator
    (\\x1c-\\x1f), its delimiter is one character other than whitespace,
    '"' and '#', no column is dropped, and after the comment and empty
    lines the header has two fields or more and every line after it has
    the header's field count, a nonblank date later than the one before
    and numbers np.loadtxt parses.  On such
    a file splitting at newlines and at the delimiter cuts where csv.reader
    does, and loadtxt takes a number exactly when float() does and gives
    the same double, except for underscores and non-ASCII digits, which
    it rejects; so a file it reads gets the row parser's result, and
    every other file, error messages included, is left to the row parser.
    """
    sep = config.delimiter
    if len(sep) != 1 or sep.isspace() or sep in '"#':
        return None
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        return None
    if any(ch in text for ch in _NOT_PLAIN):
        return None
    if "\r" in text:
        if text.count("\r") != text.count("\r\n"):
            return None
        text = text.replace("\r\n", "\n")
    lines = [line for line in text.split("\n") if line and not line.lstrip().startswith("#")]
    if len(lines) < 2:
        return None
    names = [cell.strip() for cell in lines[0].split(sep)[1:]]
    drop = set(config.excluded_columns) | {config.riskfree_column}
    if not names or drop.intersection(names):
        return None
    dates, cells = [], []
    for line in lines[1:]:
        date, _, rest = line.partition(sep)
        date = date.strip()
        if (line.count(sep) != len(names) or not date or not rest
                or (dates and date <= dates[-1])):
            return None
        dates.append(date)
        cells.append(rest)
    try:
        values = np.loadtxt(cells, delimiter=sep, comments=None, ndmin=2)
    except ValueError:
        return None
    return tuple(dates), tuple(names), values * (0.01 if config.percent_units else 1.0)


def _parse_rows(path: Path, config: ParseConfig):
    """_read_table on the rows of read_csv, one row at a time."""
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
        cells = row[1:] if len(keep) == len(names) else [row[1 + j] for j in keep]
        try:
            # numpy converts each str with float(): padding, underscores,
            # Unicode digits and nan/inf parse as they do there
            values[i - 1] = cells
        except ValueError:
            for j, cell in zip(keep, cells):
                try:
                    float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: row {i}, column {names[j]!r}: "
                        f"cannot parse {cell.strip()!r} as a number"
                    ) from None
            raise
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
