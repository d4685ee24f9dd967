"""File formats: covariance matrices, portfolios, panels, assessment rows.

All text formats are UTF-8 CSV with optional comment lines marked by '#'
(indentation allowed); a leading byte-order mark, as spreadsheet "CSV
UTF-8" exports write, is accepted and dropped.  write_csv is the package's
only CSV writer.  read_table is the one reader of labeled numeric tables:
return and factor panels, covariance matrices and portfolios; read_csv
reads the other tables (the report's cells) as rows of strings.  Floats
are written as repr(float(v)), which round-trips doubles exactly, so
write/read cycles are lossless.  The binary covariance format stores
the lower triangle only:

    bytes 0..3   magic "PRL1"
    bytes 4..7   N as little-endian uint32
    then         N*(N+1)/2 little-endian float64, rows of the lower
                 triangle in row-major order

No timestamps or hostnames go into headers; outputs are a pure function
of inputs so runs can be diffed byte for byte.
"""

from __future__ import annotations

import csv
import io
import struct
from pathlib import Path

import numpy as np

from ._version import __version__
from .errors import DataError

__all__ = [
    "write_csv",
    "read_csv",
    "read_table",
    "make_header_lines",
    "default_asset_labels",
    "write_covariance_csv",
    "read_covariance_csv",
    "write_covariance_binary",
    "read_covariance_binary",
    "write_portfolio_csv",
    "read_portfolio_csv",
    "write_returns_csv",
    "ASSESSMENT_COLUMNS",
    "write_assessment_csv",
]

_MAGIC = b"PRL1"

ASSESSMENT_COLUMNS = (
    "estimator", "N", "T", "c", "L", "tau",
    "variance_hat", "risk_hat", "sigma2_hat",
    "u_variance", "u_risk", "xi", "delta", "re1", "re2", "clamped",
)


def write_csv(path, header_lines, columns, rows):
    """Comment lines, a column row, then rows; float cells as repr(float(v))."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for line in header_lines:
            fh.write(line.rstrip("\n") + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


def _read_text(path) -> str:
    """The text of a UTF-8 file, a leading byte-order mark dropped."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return fh.read()
    except FileNotFoundError:
        raise DataError(f"file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _csv_rows(text: str, delimiter: str) -> list:
    return [row for row in csv.reader(io.StringIO(text, newline=""), delimiter=delimiter)
            if row and not row[0].lstrip().startswith("#")]


def read_csv(path, delimiter=",") -> list:
    """Parsed rows without blank rows and rows whose first cell starts
    with '#' after whitespace; a leading byte-order mark is dropped, and a
    file that is not UTF-8 raises DataError."""
    return _csv_rows(_read_text(path), delimiter)


def _plain_table(text: str, delimiter: str, drop):
    """read_table's result for plain text, None for any other text.

    Text is plain when str.splitlines and the delimiter cut it into
    csv.reader's rows and cells, every row has the header's width and a
    kept cell, and np.loadtxt parses every kept cell: no quote or NUL, no
    line break other than \\n, \\r and \\r\\n, no \\x1f (loadtxt strips it
    around a number, float() does not), and a one-character delimiter
    other than whitespace, '"' and '#'.  loadtxt gives float()'s double
    for every number it takes, and rejects the ones float() reads its own
    way (underscores, non-ASCII digits) as it rejects bad cells.
    """
    if (len(delimiter) != 1 or delimiter.isspace() or delimiter in '"#'
            or any(ch in text for ch in '"\0\v\f\x1c\x1d\x1e\x1f\x85\u2028\u2029')):
        return None
    lines = [line for line in text.splitlines() if line and not line.lstrip().startswith("#")]
    header = lines[0].split(delimiter) if lines else []
    keep = [j for j, name in enumerate(header) if j and name.strip() not in drop]
    if not keep or len(lines) < 2 or any(line.count(delimiter) != len(header) - 1
                                         for line in lines[1:]):
        return None
    labels, tails = zip(*(line.split(delimiter, 1) for line in lines[1:]))
    if "" in tails:  # loadtxt skips an empty row
        return None
    try:
        values = np.loadtxt(tails, delimiter=delimiter, comments=None, ndmin=2,
                            usecols=[j - 1 for j in keep])
    except ValueError:
        return None
    return tuple(header[:1] + [header[j] for j in keep]), labels, values


def read_table(path, delimiter=",", drop=()):
    """(header, labels, values) of a labeled numeric table.

    The first row (comment and blank rows skipped as read_csv skips them)
    is the header, and every later row a label and one number per further
    header cell.  header holds the label column's cell and the kept
    columns', labels every row's first cell, both as csv.reader gives
    them, and values the kept numbers, parsed as float() parses them.  A
    column whose stripped header cell is in drop is left out unparsed.
    The file is read once; text that _plain_table declines is cut by
    csv.reader, with the same result bit for bit.  A file without a data
    row is an error, and errors name the data row (1-based, after the
    header) and a bad cell's column.
    """
    text = _read_text(path)
    table = _plain_table(text, delimiter, drop)
    if table is not None:
        return table
    rows = _csv_rows(text, delimiter)
    if len(rows) < 2:
        raise DataError(f"{path}: no data rows")
    header, rows = rows[0], rows[1:]
    for i, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise DataError(f"{path}: row {i} has {len(row)} fields, header has {len(header)}")
    keep = [j for j, name in enumerate(header) if j and name.strip() not in drop]
    if drop and len(header) > 1 and not keep:
        raise DataError(f"{path}: every data column was excluded")
    try:
        values = np.array([[row[j] for j in keep] for row in rows], dtype=float)
    except ValueError:
        for i, row in enumerate(rows, start=1):
            for j in keep:
                try:
                    float(row[j])
                except ValueError:
                    raise DataError(f"{path}: row {i}, column {header[j].strip()!r}: "
                                    f"cannot parse {row[j].strip()!r} as a number") from None
        raise
    return tuple(header[:1] + [header[j] for j in keep]), tuple(row[0] for row in rows), values


def make_header_lines(seed=None, config_hash=None, extra=()) -> list:
    """Comment lines identifying the producing run (no timestamps)."""
    lines = [f"# portrisk {__version__}"]
    if seed is not None:
        lines.append(f"# seed={seed}")
    if config_hash is not None:
        lines.append(f"# config_sha256={config_hash}")
    lines.extend(f"# {x}" for x in extra)
    return lines


def default_asset_labels(n: int) -> tuple:
    """The names a0000, a0001, ... written for n unnamed assets."""
    return tuple(f"a{i:04d}" for i in range(n))


def _matrix_and_names(estimate_or_matrix, assets):
    matrix = np.asarray(getattr(estimate_or_matrix, "matrix", estimate_or_matrix),
                        dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DataError(f"covariance must be square, got shape {matrix.shape}")
    n = matrix.shape[0]
    if assets is None:
        assets = default_asset_labels(n)
    assets = tuple(str(a) for a in assets)
    if len(assets) != n:
        raise DataError(f"{len(assets)} asset names for a {n}x{n} matrix")
    return matrix, assets


def _check_distinct(names, noun, where):
    """Raise DataError naming the first label that appears twice."""
    if len(set(names)) != len(names):
        repeated = next(name for i, name in enumerate(names) if name in names[:i])
        raise DataError(f"{noun} {repeated!r} appears twice in {where}")


def write_covariance_csv(path, estimate_or_matrix, assets=None, header_lines=()):
    matrix, names = _matrix_and_names(estimate_or_matrix, assets)
    write_csv(path, header_lines, ("asset",) + names,
              ([name, *row] for name, row in zip(names, matrix)))


def read_covariance_csv(path):
    """Matrix and asset names from the CSV layout written above."""
    header, labels, matrix = read_table(path)
    names = header[1:]
    _check_distinct(names, "asset", path)
    if len(labels) != len(names):
        raise DataError(f"{path}: header names {len(names)} assets but file has {len(labels)} rows")
    for i, (label, name) in enumerate(zip(labels, names), start=1):
        if label != name:
            raise DataError(f"{path}: row {i} is labeled {label!r}, expected {name!r}")
    return matrix, names


def write_covariance_binary(path, estimate_or_matrix):
    matrix, _ = _matrix_and_names(estimate_or_matrix, None)
    n = matrix.shape[0]
    tril = matrix[np.tril_indices(n)].astype("<f8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", n))
        fh.write(tril.tobytes())


def read_covariance_binary(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < 8 or raw[:4] != _MAGIC:
        raise DataError(f"{path}: not a {_MAGIC.decode()} covariance file")
    (n,) = struct.unpack("<I", raw[4:8])
    want = n * (n + 1) // 2
    body = np.frombuffer(raw, dtype="<f8", offset=8)
    if body.size != want:
        raise DataError(
            f"{path}: expected {want} lower-triangle values for N={n}, found {body.size}"
        )
    matrix = np.zeros((n, n))
    matrix[np.tril_indices(n)] = body
    return matrix + np.tril(matrix, -1).T


def write_portfolio_csv(path, portfolio, assets=None, header_lines=()):
    weights = np.asarray(getattr(portfolio, "weights", portfolio), dtype=float)
    if assets is None:
        assets = default_asset_labels(weights.size)
    if len(assets) != weights.size:
        raise DataError(f"{len(assets)} asset names for {weights.size} weights")
    write_csv(path, header_lines, ("asset", "weight"), zip(assets, weights))


def read_portfolio_csv(path):
    header, names, weights = read_table(path)
    if header != ("asset", "weight"):
        raise DataError(f"{path}: expected an 'asset,weight' header row")
    _check_distinct(names, "asset", path)
    return weights[:, 0], names


def write_returns_csv(path, panel, header_lines=()):
    write_csv(path, header_lines, ("date",) + panel.assets,
              ([date, *row] for date, row in zip(panel.dates, panel.values)))


def write_assessment_csv(path, rows, header_lines=()):
    """Rows are mappings with the ASSESSMENT_COLUMNS keys."""
    write_csv(path, header_lines, ASSESSMENT_COLUMNS,
              ([row[col] for col in ASSESSMENT_COLUMNS] for row in rows))
