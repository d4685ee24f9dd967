"""File formats: covariance matrices, portfolios, panels, assessment rows.

All text formats are UTF-8 CSV with optional comment lines marked by '#'
(indentation allowed); a leading byte-order mark, as spreadsheet "CSV
UTF-8" exports write, is accepted and dropped.  write_csv and read_csv are
the package's only CSV writer and reader, except that the panel loaders
parse a plain file's numbers with np.loadtxt (see panels._read_table).
Floats are written as repr(float(v)), which round-trips doubles exactly,
so write/read cycles are lossless.  The binary covariance format stores
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
import struct
from pathlib import Path

import numpy as np

from ._version import __version__
from .errors import DataError

__all__ = [
    "write_csv",
    "read_csv",
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


def read_csv(path, delimiter=",") -> list:
    """Parsed rows without blank rows and rows whose first cell starts
    with '#' after whitespace; a leading byte-order mark is dropped, and a
    file that is not UTF-8 raises DataError."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return [row for row in csv.reader(fh, delimiter=delimiter)
                    if row and not row[0].lstrip().startswith("#")]
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


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
    rows = read_csv(path)
    if not rows:
        raise DataError(f"{path}: no data rows")
    names = tuple(rows[0][1:])
    _check_distinct(names, "asset", path)
    n = len(names)
    if len(rows) - 1 != n:
        raise DataError(f"{path}: header names {n} assets but file has {len(rows) - 1} rows")
    matrix = np.empty((n, n))
    for i, row in enumerate(rows[1:]):
        if len(row) != n + 1:
            raise DataError(f"{path}: row {i + 1} has {len(row) - 1} values, expected {n}")
        if row[0] != names[i]:
            raise DataError(f"{path}: row {i + 1} is labeled {row[0]!r}, expected {names[i]!r}")
        try:
            matrix[i] = [float(v) for v in row[1:]]
        except ValueError as exc:
            raise DataError(f"{path}: row {i + 1}: {exc}") from None
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
    matrix = matrix + np.tril(matrix, -1).T
    return matrix


def write_portfolio_csv(path, portfolio, assets=None, header_lines=()):
    weights = np.asarray(getattr(portfolio, "weights", portfolio), dtype=float)
    if assets is None:
        assets = default_asset_labels(weights.size)
    if len(assets) != weights.size:
        raise DataError(f"{len(assets)} asset names for {weights.size} weights")
    write_csv(path, header_lines, ("asset", "weight"), zip(assets, weights))


def read_portfolio_csv(path):
    rows = read_csv(path)
    if not rows or rows[0][:2] != ["asset", "weight"]:
        raise DataError(f"{path}: expected an 'asset,weight' header row")
    names, weights = [], []
    for i, row in enumerate(rows[1:]):
        if len(row) != 2:
            raise DataError(f"{path}: row {i + 1} has {len(row)} fields, expected 2")
        names.append(row[0])
        try:
            weights.append(float(row[1]))
        except ValueError:
            raise DataError(f"{path}: row {i + 1}: bad weight {row[1]!r}") from None
    _check_distinct(names, "asset", path)
    return np.asarray(weights), tuple(names)


def write_returns_csv(path, panel, header_lines=()):
    write_csv(path, header_lines, ("date",) + panel.assets,
              ([date, *row] for date, row in zip(panel.dates, panel.values)))


def write_assessment_csv(path, rows, header_lines=()):
    """Rows are mappings with the ASSESSMENT_COLUMNS keys."""
    write_csv(path, header_lines, ASSESSMENT_COLUMNS,
              ([row[col] for col in ASSESSMENT_COLUMNS] for row in rows))
