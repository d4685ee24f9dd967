"""Round-trips and byte-level contracts for the file formats."""

import os
import struct
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import portrisk as pr
from portrisk import serialization as ser
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
    with pytest.raises(pr.DataError, match="bad weight"):
        ser.read_portfolio_csv(path)
    path.write_text("foo,bar\nx,0.5\n")
    with pytest.raises(pr.DataError, match="header"):
        ser.read_portfolio_csv(path)
    with pytest.raises(pr.DataError, match="asset names"):
        ser.write_portfolio_csv(path, np.ones(3), assets=("a", "b"))


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
