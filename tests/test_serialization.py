"""Round-trips and byte-level contracts for the file formats."""

import os
import re
import struct
import subprocess
import sys
import textwrap
from unittest import mock

import numpy as np
import pytest

import portrisk as pr
from helpers import calibrated_market
from portrisk import serialization as ser
from portrisk.cli import main
from portrisk.serialization import ASSESSMENT_COLUMNS, make_header_lines


def _spd(n, seed):
    rng = pr.derive_rng(seed, "serial")
    A = rng.standard_normal((n, n))
    return A @ A.T + n * np.eye(n)


def test_covariance_csv_round_trip_is_exact(tmp_path):
    # repr() round-trips doubles, so the awkward values survive verbatim
    M = _spd(5, 211)
    M[0, 1] = M[1, 0] = 1.0 / 3.0
    M[2, 3] = M[3, 2] = 1e-17
    path = tmp_path / "cov.csv"
    ser.write_covariance_csv(path, M, assets=("aa", "bb", "cc", "dd", "ee"))
    got, names = ser.read_covariance_csv(path)
    assert np.array_equal(got, M)
    assert names == ("aa", "bb", "cc", "dd", "ee")


def test_covariance_csv_accepts_estimates_and_defaults_names(tmp_path):
    est = pr.CovarianceEstimate(_spd(3, 213), "sample")
    path = tmp_path / "cov.csv"
    ser.write_covariance_csv(path, est, header_lines=make_header_lines(seed=7))
    got, names = ser.read_covariance_csv(path)
    assert np.array_equal(got, est.matrix)
    assert names == ("a0000", "a0001", "a0002")
    first = path.read_text().splitlines()[0]
    assert first.startswith("# portrisk ")


def test_covariance_csv_read_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# only comments\n")
    with pytest.raises(pr.DataError, match="no data rows"):
        ser.read_covariance_csv(path)
    path.write_text("asset,x,y\nx,1.0,2.0\n")
    with pytest.raises(pr.DataError, match="2 assets but file has 1 rows"):
        ser.read_covariance_csv(path)
    path.write_text("asset,x,y\nx,1.0,2.0\nz,2.0,3.0\n")
    with pytest.raises(pr.DataError, match="labeled 'z', expected 'y'"):
        ser.read_covariance_csv(path)
    path.write_text("asset,x,y\nx,1.0,2.0\ny,2.0,oops\n")
    with pytest.raises(pr.DataError, match="row 2"):
        ser.read_covariance_csv(path)
    # 'asset,a,a' used to load as names ('a', 'a')
    path.write_text("asset,a,a\na,1.0,0.5\na,0.5,1.0\n")
    with pytest.raises(pr.DataError, match=re.escape(f"asset 'a' appears twice in {path}")):
        ser.read_covariance_csv(path)
    with pytest.raises(pr.DataError, match="square"):
        ser.write_covariance_csv(tmp_path / "c.csv", np.ones((2, 3)))
    with pytest.raises(pr.DataError, match="asset names"):
        ser.write_covariance_csv(tmp_path / "c.csv", np.eye(2), assets=("a",))


def test_covariance_binary_layout(tmp_path):
    M = _spd(4, 217)
    path = tmp_path / "cov.bin"
    ser.write_covariance_binary(path, M)
    raw = path.read_bytes()
    assert raw[:4] == b"PRL1"
    assert struct.unpack("<I", raw[4:8])[0] == 4
    assert len(raw) == 8 + 10 * 8
    body = np.frombuffer(raw, dtype="<f8", offset=8)
    assert np.array_equal(body, M[np.tril_indices(4)])
    got = ser.read_covariance_binary(path)
    assert np.array_equal(got, M)


def test_covariance_binary_rejects_corruption(tmp_path):
    M = _spd(3, 219)
    path = tmp_path / "cov.bin"
    ser.write_covariance_binary(path, M)
    raw = path.read_bytes()
    (tmp_path / "magic.bin").write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(pr.DataError, match="not a PRL1"):
        ser.read_covariance_binary(tmp_path / "magic.bin")
    (tmp_path / "short.bin").write_bytes(raw[:-8])
    with pytest.raises(pr.DataError, match="expected 6 lower-triangle values"):
        ser.read_covariance_binary(tmp_path / "short.bin")
    (tmp_path / "stub.bin").write_bytes(b"PR")
    with pytest.raises(pr.DataError):
        ser.read_covariance_binary(tmp_path / "stub.bin")


def test_portfolio_csv_round_trip(tmp_path):
    w = pr.sample_random_portfolio(6, 1.8, pr.derive_rng(221, "pf"))
    path = tmp_path / "w.csv"
    ser.write_portfolio_csv(path, w, header_lines=make_header_lines(seed=221))
    got, names = ser.read_portfolio_csv(path)
    assert np.array_equal(got, w.weights)
    assert names == tuple(f"a{i:04d}" for i in range(6))


def test_portfolio_csv_errors(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("asset,weight\nx,0.5\ny,oops\n")
    with pytest.raises(pr.DataError,
                       match=re.escape("row 2, column 'weight': cannot parse 'oops' as a number")):
        ser.read_portfolio_csv(path)
    path.write_text("foo,bar\nx,0.5\n")
    with pytest.raises(pr.DataError, match="header"):
        ser.read_portfolio_csv(path)
    path.write_text("asset,weight\na,0.5\nb,0.25\na,0.25\n")
    with pytest.raises(pr.DataError, match=re.escape(f"asset 'a' appears twice in {path}")):
        ser.read_portfolio_csv(path)
    with pytest.raises(pr.DataError, match="asset names"):
        ser.write_portfolio_csv(path, np.ones(3), assets=("a", "b"))


def _outcome(read, path):
    """read(path) with its arrays as (shape, bytes), or the DataError text."""
    try:
        out = read(path)
    except pr.DataError as exc:
        return str(exc)
    return tuple((x.shape, x.tobytes()) if isinstance(x, np.ndarray) else x for x in out)


def _through_both_cuts(read, path):
    """read(path)'s outcome, the same through read_table's plain cut and
    through csv.reader alone."""
    plain = _outcome(read, path)
    with mock.patch.object(ser, "_plain_table", lambda *args: None):
        assert _outcome(read, path) == plain
    return plain


# (file text, read_table's (header, labels, values) or the end of its error)
TABLE_CASES = {
    "crlf": ("asset,x,y\r\nx,1.0,0.5\r\ny,0.5,2.0\r\n",
             (("asset", "x", "y"), ("x", "y"), [[1.0, 0.5], [0.5, 2.0]])),
    "byte order mark": ("\ufeffasset,weight\na,0.25\nb,0.75\n",
                        (("asset", "weight"), ("a", "b"), [[0.25], [0.75]])),
    "comments": ("# portrisk\n  # indented\nasset,weight\n\n# note\na,1e-3\n",
                 (("asset", "weight"), ("a",), [[0.001]])),
    "quoted labels": ('asset,"x, y",z\n"x, y",1.0,0.5\nz,0.5,"2.0"\n',
                      (("asset", "x, y", "z"), ("x, y", "z"), [[1.0, 0.5], [0.5, 2.0]])),
    "bad cell": ("asset,x,y\r\nx,1.0,0.5\r\ny,0.5,oops\r\n",
                 "row 2, column 'y': cannot parse 'oops' as a number"),
    "bad quoted cell": ('asset,weight\n"a",0.5\nb,"1_0x"\n',
                        "row 2, column 'weight': cannot parse '1_0x' as a number"),
    "empty cell": ("asset,weight\na,\n", "row 1, column 'weight': cannot parse '' as a number"),
    "ragged": ("asset,x,y\nx,1.0\n", "row 1 has 2 fields, header has 3"),
    "header only": ("# note\nasset,weight\n", "no data rows"),
}


@pytest.mark.parametrize("case", TABLE_CASES)
def test_read_table_cuts_agree_with_their_messages(tmp_path, case):
    text, want = TABLE_CASES[case]
    path = tmp_path / "table.csv"
    path.write_bytes(text.encode("utf-8"))
    got = _through_both_cuts(ser.read_table, path)
    if isinstance(want, str):
        assert got == f"{path}: {want}"
    else:
        header, labels, values = want
        assert got == (header, labels, (np.shape(values), np.array(values).tobytes()))


def test_read_table_semicolon_through_both_cuts(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("asset;x;y\nx;1,5;0.5\n", encoding="utf-8")
    with mock.patch.object(ser, "_plain_table", lambda *args: None):
        want = _outcome(lambda p: ser.read_table(p, ";"), path)
    assert want == f"{path}: row 1, column 'x': cannot parse '1,5' as a number"
    assert _outcome(lambda p: ser.read_table(p, ";"), path) == want
    path.write_text("asset;x;y\r\nx;1.5;0.5\r\n", encoding="utf-8")
    header, labels, values = ser.read_table(path, ";")
    assert (header, labels, values.tolist()) == (("asset", "x", "y"), ("x",), [[1.5, 0.5]])


def test_read_table_never_parses_a_dropped_column(tmp_path):
    path = tmp_path / "table.csv"
    for text in ("date,a,note,b\nd1,1,first,2\nd2,3,,4\n",
                 'date,a,note,b\nd1,1,"first, second",2\nd2,3,,4\n'):
        path.write_text(text, encoding="utf-8")
        header, labels, values = _through_both_cuts(
            lambda p: ser.read_table(p, drop={"note"}), path)
        assert (header, labels) == (("date", "a", "b"), ("d1", "d2"))
        assert values == ((2, 2), np.array([[1.0, 2.0], [3.0, 4.0]]).tobytes())
        panel = pr.load_returns_csv(path, pr.ParseConfig(excluded_columns=("note",)))
        assert panel.assets == ("a", "b") and panel.values.tolist() == [[1, 2], [3, 4]]


@pytest.mark.parametrize("text", [
    "asset,x,y\r\nx,1.0,0.5\r\ny,0.5,2.0\r\n",
    "\ufeff# written by hand\r\nasset,x,y\r\n\r\nx,1.0,0.5\r\ny,0.5,2.0\r\n",
    'asset,x,"y"\n"x",1.0,0.5\ny,0.5,2.0\n',
])
def test_covariance_and_portfolio_files_through_both_cuts(tmp_path, text):
    path = tmp_path / "cov.csv"
    path.write_bytes(text.encode("utf-8"))
    got = _through_both_cuts(ser.read_covariance_csv, path)
    assert got == (((2, 2), np.array([[1.0, 0.5], [0.5, 2.0]]).tobytes()), ("x", "y"))
    book = text.replace("asset,x,y", "asset,weight").replace('asset,x,"y"', "asset,weight")
    book = book.replace(",1.0,0.5", ",0.25").replace(",0.5,2.0", ",0.75")
    path.write_bytes(book.encode("utf-8"))
    got = _through_both_cuts(ser.read_portfolio_csv, path)
    assert got == (((2,), np.array([0.25, 0.75]).tobytes()), ("x", "y"))
    path.write_bytes(book.replace("0.75", "0.75%").encode("utf-8"))
    assert _through_both_cuts(ser.read_portfolio_csv, path) == (
        f"{path}: row 2, column 'weight': cannot parse '0.75%' as a number")


def test_a_300_asset_covariance_from_estimate_reads_back_bit_exactly(tmp_path, capsys):
    _, panel, _ = calibrated_market(300, 40, 227)
    ser.write_returns_csv(tmp_path / "returns.csv", panel)
    for extra in ([], ["--binary"]):
        assert main(["--output-dir", str(tmp_path), "estimate", "--returns",
                     str(tmp_path / "returns.csv"), "--estimator", "sample", *extra]) == 0
    capsys.readouterr()
    path = tmp_path / "covariance_sample.csv"
    matrix, names = ser.read_covariance_csv(path)
    assert names == panel.assets
    # the binary file holds the estimate's own bits of the lower triangle
    lower = np.tril_indices(300)
    binary = ser.read_covariance_binary(tmp_path / "covariance_sample.bin")
    assert matrix[lower].tobytes() == binary[lower].tobytes()
    rows = ser.read_csv(path)[1:]
    assert matrix.tobytes() == np.array([[float(v) for v in row[1:]] for row in rows]).tobytes()
    assert _through_both_cuts(ser.read_covariance_csv, path) == (
        (matrix.shape, matrix.tobytes()), names)


def test_returns_csv_round_trip_bit_exact(tmp_path):
    values = pr.derive_rng(223, "ret").standard_normal((7, 3))
    panel = pr.ReturnsPanel(tuple(f"2020-01-0{i + 1}" for i in range(7)),
                            ("x", "y", "z"), values)
    path = tmp_path / "returns.csv"
    ser.write_returns_csv(path, panel)
    back = pr.load_returns_csv(path)
    assert back.dates == panel.dates
    assert back.assets == panel.assets
    assert np.array_equal(back.values, panel.values)


def test_assessment_csv_columns_and_values(tmp_path):
    row = {
        "estimator": "poet", "N": 50, "T": 100, "c": 1.6, "L": 5,
        "tau": 0.05, "variance_hat": 1.0 / 3.0, "risk_hat": 0.5773502691896257,
        "sigma2_hat": 0.25, "u_variance": 0.1, "u_risk": 0.05,
        "xi": 0.2, "delta": 0.01, "re1": 2.0, "re2": 0.075, "clamped": 0,
    }
    path = tmp_path / "assess.csv"
    ser.write_assessment_csv(path, [row], header_lines=make_header_lines(seed=1))
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == ",".join(ASSESSMENT_COLUMNS)
    fields = lines[1].split(",")
    assert fields[0] == "poet"
    assert float(fields[ASSESSMENT_COLUMNS.index("variance_hat")]) == 1.0 / 3.0
    assert float(fields[ASSESSMENT_COLUMNS.index("risk_hat")]) == 0.5773502691896257


def test_make_header_lines_is_pure():
    a = make_header_lines(seed=3, config_hash="ab12", extra=("note",))
    b = make_header_lines(seed=3, config_hash="ab12", extra=("note",))
    assert a == b
    assert a == [f"# portrisk {pr.__version__}", "# seed=3",
                 "# config_sha256=ab12", "# note"]
    assert make_header_lines() == [f"# portrisk {pr.__version__}"]


def test_write_csv_and_read_csv(tmp_path):
    path = tmp_path / "t.csv"
    ser.write_csv(path, ["# one", "# two\n"], ("name", "x", "n"),
                  [("a", np.float64(0.1), 3), ("b,c", 1.0 / 3.0, np.int64(4))])
    assert path.read_bytes() == (b"# one\n# two\nname,x,n\r\n"
                                 b"a,0.1,3\r\n\"b,c\",0.3333333333333333,4\r\n")
    path.write_bytes(b"  # indented\n\n" + path.read_bytes() + b"\n\t#tail\n")
    assert ser.read_csv(path) == [["name", "x", "n"], ["a", "0.1", "3"],
                                  ["b,c", "0.3333333333333333", "4"]]
    path.write_text("x;y\n1,5;2\n", encoding="utf-8")
    assert ser.read_csv(path, delimiter=";") == [["x", "y"], ["1,5", "2"]]


def test_text_formats_are_utf8_under_the_c_locale(tmp_path):
    # the writers used the locale encoding, so an asset name outside ASCII
    # raised UnicodeEncodeError where load_returns_csv reads UTF-8
    script = textwrap.dedent("""
        import sys
        import numpy as np
        import portrisk as pr
        from portrisk import serialization as ser
        out = sys.argv[1]
        assets = ("\\u00e9", "b")
        panel = pr.ReturnsPanel(("d1", "d2"), assets, [[0.1, -0.2], [0.3, 1 / 3]])
        ser.write_returns_csv(out + "/r.csv", panel)
        back = pr.load_returns_csv(out + "/r.csv")
        assert back.assets == assets and np.array_equal(back.values, panel.values)
        ser.write_covariance_csv(out + "/c.csv", np.eye(2) / 3, assets=assets)
        matrix, names = ser.read_covariance_csv(out + "/c.csv")
        assert names == assets and np.array_equal(matrix, np.eye(2) / 3)
    """)
    src = os.path.dirname(os.path.dirname(pr.__file__))
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
               PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for name, first in (("r.csv", "date,\u00e9,b"), ("c.csv", "asset,\u00e9,b")):
        assert (tmp_path / name).read_bytes().startswith(first.encode("utf-8"))
