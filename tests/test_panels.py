"""Panel loading, alignment, and preprocessing."""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import portrisk as pr
from helpers import make_factor_panel, make_panel, write_text


@pytest.fixture
def returns_file(tmp_path):
    return write_text(tmp_path / "returns.csv", [
        "date,aaa,bbb",
        "2020-01-01,0.010,-0.020",
        "2020-01-02,0.005,0.015",
        "2020-01-03,-0.0125,0.000",
    ])


def test_load_returns_basic(returns_file):
    panel = pr.load_returns_csv(returns_file)
    assert panel.T == 3 and panel.N == 2
    assert panel.assets == ("aaa", "bbb")
    assert panel.dates[0] == "2020-01-01"
    assert panel.values[2, 0] == -0.0125


def test_load_returns_missing_file(tmp_path):
    with pytest.raises(pr.DataError, match="not found"):
        pr.load_returns_csv(tmp_path / "nope.csv")


def test_blank_cell_error_names_row_and_column(tmp_path):
    path = write_text(tmp_path / "bad.csv", [
        "date,aaa,bbb",
        "2020-01-01,0.01,0.02",
        "2020-01-02,,0.02",
    ])
    with pytest.raises(pr.DataError, match=r"row 2, column 'aaa'"):
        pr.load_returns_csv(path)


def test_non_numeric_cell_error(tmp_path):
    path = write_text(tmp_path / "bad.csv", [
        "date,aaa",
        "2020-01-01,x1",
    ])
    with pytest.raises(pr.DataError, match="cannot parse 'x1'"):
        pr.load_returns_csv(path)


def test_ragged_row_error(tmp_path):
    path = write_text(tmp_path / "ragged.csv", [
        "date,aaa,bbb",
        "2020-01-01,0.01,0.02",
        "2020-01-02,0.01",
    ])
    with pytest.raises(pr.DataError, match="row 2 has 2 fields"):
        pr.load_returns_csv(path)


def test_percent_units_flag(tmp_path):
    path = write_text(tmp_path / "pct.csv", [
        "date,aaa",
        "2020-01-01,1.25",
        "2020-01-02,-0.40",
    ])
    panel = pr.load_returns_csv(path, pr.ParseConfig(percent_units=True))
    assert panel.values[0, 0] == 0.0125
    assert panel.values[1, 0] == -0.004
    # never auto-detected
    plain = pr.load_returns_csv(path)
    assert plain.values[0, 0] == 1.25


# the loader takes a cell exactly when float() takes it after stripping;
# these pin that contract for any faster parser

def test_underscores_and_padding_parse_as_float_does(tmp_path):
    path = write_text(tmp_path / "tokens.csv", [
        "date , aaa ,bbb",
        "2020-01-01,1_000,  0.5 ",
        " 2020-01-02 ,\t-2e-3,+.25",
    ])
    panel = pr.load_returns_csv(path)
    assert panel.dates == ("2020-01-01", "2020-01-02")
    assert panel.assets == ("aaa", "bbb")
    assert panel.values.tolist() == [[1000.0, 0.5], [-0.002, 0.25]]


@pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-Infinity"])
def test_non_finite_tokens_parse_then_fail_the_panel(tmp_path, token):
    path = write_text(tmp_path / "nf.csv", [
        "date,aaa,bbb",
        "2020-01-01,0.1,0.2",
        f"2020-01-02,0.3,{token}",
    ])
    with pytest.raises(pr.DataError, match="non-finite value at date '2020-01-02', asset 'bbb'"):
        pr.load_returns_csv(path)
    with pytest.raises(pr.DataError, match="non-finite value at date '2020-01-02', factor 'bbb'"):
        pr.load_factors_csv(path)


def test_percent_units_multiply_each_parsed_value_by_0_01(tmp_path):
    # ParseConfig(percent_units=True) is what --percent sets; float(t) / 100
    # differs in the last bit for some of these tokens
    tokens = ["26.23", "22.15", "-11.88", "1.25"]
    path = write_text(tmp_path / "pct.csv",
                      ["date,aaa"] + [f"d{i},{t}" for i, t in enumerate(tokens)])
    panel = pr.load_returns_csv(path, pr.ParseConfig(percent_units=True))
    assert panel.values[:, 0].tolist() == [float(t) * 0.01 for t in tokens]
    assert panel.values[:, 0].tolist() != [float(t) / 100 for t in tokens]


@pytest.mark.parametrize("token", ["", "1.5%", "0x10", "1,5"])
def test_tokens_float_rejects_name_row_and_column(tmp_path, token):
    path = write_text(tmp_path / "bad.csv", [
        "date;aaa;bbb",
        "2020-01-01;0.1;0.2",
        f"2020-01-02;0.3;{token}",
    ])
    with pytest.raises(pr.DataError, match=re.escape(
            f"row 2, column 'bbb': cannot parse {token!r} as a number")):
        pr.load_returns_csv(path, pr.ParseConfig(delimiter=";"))


def test_duplicate_date_error(tmp_path):
    path = write_text(tmp_path / "dup.csv", [
        "date,f1,f2,f3",
        "2020-01-01,0.1,0.2,0.3",
        "2020-01-01,0.1,0.2,0.3",
    ])
    with pytest.raises(pr.DataError, match="not strictly after"):
        pr.load_factors_csv(path)


def test_repeated_asset_label_error(tmp_path):
    # 'date,a,a,b' used to load as assets ('a', 'a', 'b'); the csv cut
    # (the quoted cell) and the plain cut both reach the panel's check
    for header in ("date,a,a,b", 'date,a,"a",b'):
        path = write_text(tmp_path / "dup.csv", [
            header, "2020-01-01,0.1,0.2,0.3", "2020-01-02,0.4,0.5,0.6"])
        with pytest.raises(pr.DataError, match="asset 'a' appears twice in a returns panel"):
            pr.load_returns_csv(path)


def test_repeated_factor_label_error():
    with pytest.raises(pr.DataError, match="factor 'f2' appears twice in a factor panel"):
        make_factor_panel(np.zeros((3, 4)), names=("f1", "f2", "f3", "f2"))
    # the labels of a slice are the panel's, so slicing keeps them distinct
    fpanel = make_factor_panel(np.zeros((3, 2)))
    assert fpanel.slice_rows(1, 3).factor_names == ("f1", "f2")


def test_byte_order_mark_is_dropped(tmp_path):
    # a spreadsheet's "CSV UTF-8" export starts with U+FEFF; a comment line
    # behind it is still a comment, through the plain cut and the csv cut
    lines = ["# exported", "date,aaa,bbb", "2020-01-01,0.5,1", "2020-01-02,0.25,2"]
    plain = pr.load_returns_csv(write_text(tmp_path / "plain.csv", lines))
    for name, body in (("fast", lines), ("rows", lines[:-1] + ['2020-01-02,0.25,"2"'])):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(b"\xef\xbb\xbf" + ("\n".join(body) + "\n").encode())
        panel = pr.load_returns_csv(path)
        assert (panel.dates, panel.assets) == (plain.dates, plain.assets)
        assert panel.values.tobytes() == plain.values.tobytes()


def test_factor_file_with_riskfree_excluded(tmp_path):
    path = write_text(tmp_path / "ff.csv", [
        "date,Mkt-RF,SMB,HML,RF",
        "2020-01-01,0.55,-0.10,0.20,0.002",
        "2020-01-02,-0.30,0.05,0.00,0.002",
    ])
    cfg = pr.ParseConfig(percent_units=True, riskfree_column="RF")
    fpanel = pr.load_factors_csv(path, cfg)
    assert fpanel.K == 3
    assert fpanel.factor_names == ("Mkt-RF", "SMB", "HML")
    rf = pr.load_rate_series(path, "RF", cfg)
    assert rf.values[0] == pytest.approx(2e-5, rel=0, abs=1e-18)


def test_rate_series_unknown_column(tmp_path):
    path = write_text(tmp_path / "f.csv", ["date,a", "2020-01-01,0.1"])
    with pytest.raises(pr.DataError, match="no column named 'RF'"):
        pr.load_rate_series(path, "RF")


def test_rate_series_repeated_column_error(tmp_path):
    # 'date,RF,RF' used to load the first RF column, [0.1, 0.2], without a word
    path = write_text(tmp_path / "rf.csv", ["date,RF,RF", "d1,0.1,0.9", "d2,0.2,0.8"])
    with pytest.raises(pr.DataError, match=re.escape(f"{path}: column 'RF' appears twice")):
        pr.load_rate_series(path, "RF")
    # a repeat among the other columns is not read, so it is no error
    path = write_text(tmp_path / "other.csv", ["date,RF,x,x", "d1,0.1,0,0", "d2,0.2,0,0"])
    assert pr.load_rate_series(path, "RF").values.tolist() == [0.1, 0.2]


def test_comment_lines_are_skipped(tmp_path):
    path = write_text(tmp_path / "c.csv", [
        "# generated by hand",
        "  # indented",
        "date,aaa",
        "2020-01-01,0.5",
        "2020-01-02,0.25",
    ])
    assert pr.load_returns_csv(path).T == 2


def test_excess_returns_subtracts_by_date():
    panel = make_panel([[0.02, 0.03], [0.01, -0.01]], dates=("d1", "d2"))
    rf = pr.RateSeries(("d1", "d2"), np.array([0.005, 0.0]))
    out = pr.compute_excess_returns(panel, rf)
    assert out.values[0, 0] == pytest.approx(0.015, abs=1e-15)
    assert out.values[0, 1] == pytest.approx(0.025, abs=1e-15)
    assert np.array_equal(out.values[1], panel.values[1])


def test_excess_returns_zero_rate_is_identity():
    panel = make_panel([[0.02, 0.03], [0.01, -0.01]])
    rf = pr.RateSeries(panel.dates, np.zeros(2))
    out = pr.compute_excess_returns(panel, rf)
    assert np.array_equal(out.values, panel.values)


def test_excess_returns_date_mismatch():
    panel = make_panel([[0.02], [0.01]], dates=("d1", "d2"))
    rf = pr.RateSeries(("d1", "d3"), np.zeros(2))
    with pytest.raises(pr.DataError, match="does not match"):
        pr.compute_excess_returns(panel, rf)


def test_align_identical_dates_returns_inputs():
    panel = make_panel([[0.1], [0.2]])
    fpanel = make_factor_panel([[1.0], [2.0]])
    r, f = pr.align_panels(panel, fpanel)
    assert r is panel and f is fpanel


def test_align_drops_extra_leading_date():
    panel = make_panel([[0.1], [0.2], [0.3]], dates=("d0", "d1", "d2"))
    fpanel = make_factor_panel([[1.0], [2.0]], dates=("d1", "d2"))
    r, f = pr.align_panels(panel, fpanel)
    assert r.dates == f.dates == ("d1", "d2")
    assert r.values[0, 0] == 0.2


def test_align_disjoint_dates_error():
    panel = make_panel([[0.1], [0.2]], dates=("d1", "d2"))
    fpanel = make_factor_panel([[1.0], [2.0]], dates=("e1", "e2"))
    with pytest.raises(pr.DataError, match="fewer than two"):
        pr.align_panels(panel, fpanel)


def test_demean_examples():
    panel = make_panel(np.array([[1.0, 0.01], [3.0, 0.02], [2.0, 0.03]]))
    out = pr.demean(panel)
    assert np.allclose(out.values[:, 1], [-0.01, 0.0, 0.01], atol=1e-18)
    two = pr.demean(make_panel([[1.0], [3.0]]))
    assert np.array_equal(two.values[:, 0], [-1.0, 1.0])


def test_demean_already_centered_is_stable():
    vals = np.array([[0.5, -1.0], [-0.5, 1.0]])
    out = pr.demean(make_panel(vals))
    assert np.max(np.abs(out.values - vals)) <= 1e-12 * np.max(np.abs(vals))


def test_demean_column_means_vanish():
    rng = pr.derive_rng(5, "demean")
    panel = make_panel(rng.standard_normal((37, 9)) * 40 + 3)
    out = pr.demean(panel)
    assert np.max(np.abs(out.values.mean(axis=0))) <= 1e-12 * np.max(np.abs(out.values))


def test_panel_rejects_nonfinite_and_bad_dates():
    with pytest.raises(pr.DataError):
        make_panel([[np.nan], [0.1]])
    with pytest.raises(pr.DataError):
        make_panel([[0.1], [0.2]], dates=("d2", "d1"))
    with pytest.raises(pr.DataError):
        make_panel(np.zeros((1, 2)))  # T must be at least 2


NAN = float("nan")


@pytest.mark.parametrize("cls, dates, names, values, message", [
    (pr.ReturnsPanel, ("d1", "d2"), ("a", "b"), [[1.0], [2.0]],
     "value matrix shape (2, 1) does not match 2 dates x 2 assets"),
    (pr.FactorPanel, ("d1", "d2"), ("f", "g"), [[1.0], [2.0]],
     "value matrix shape (2, 1) does not match 2 dates x 2 factors"),
    (pr.ReturnsPanel, ("d1",), (), np.zeros((1, 0)), "a returns panel needs at least two rows"),
    (pr.ReturnsPanel, ("d1", "d2"), (), np.zeros((2, 0)),
     "a returns panel needs at least one asset"),
    (pr.FactorPanel, ("d1",), (), np.zeros((1, 0)), "a factor panel needs at least one factor"),
    (pr.ReturnsPanel, ("d2", "d1"), ("a", "b"), [[1.0, 2.0], [3.0, NAN]],
     "non-finite value at date 'd1', asset 'b'"),
    (pr.FactorPanel, ("d2", "d1"), ("f", "g"), [[NAN, 2.0], [3.0, 4.0]],
     "non-finite value at date 'd2', factor 'f'"),
    (pr.FactorPanel, ("d2", "d1"), ("f",), [[1.0], [2.0]],
     "dates must be strictly increasing: 'd1' follows 'd2'"),
])
def test_panel_checks_in_order_with_their_messages(cls, dates, names, values, message):
    with pytest.raises(pr.DataError) as err:
        cls(dates, names, values)
    assert str(err.value) == message


def test_one_row_factor_panel_and_its_slice():
    fpanel = pr.FactorPanel(["d1", "d2", "d3"], ["f"], [[1.0], [2.0], [3.0]])
    part = fpanel.slice_rows(2, 3)
    assert type(part) is pr.FactorPanel and part.dates == ("d3",)
    assert part.factor_names == ("f",) and part.values.tolist() == [[3.0]]
    assert not part.values.flags.writeable


def test_slice_rows_keeps_labels():
    panel = make_panel([[0.1, 1.0], [0.2, 2.0], [0.3, 3.0], [0.4, 4.0]])
    part = panel.slice_rows(1, 3)
    assert part.T == 2
    assert part.dates == panel.dates[1:3]
    assert part.assets == panel.assets
    assert np.array_equal(part.values, panel.values[1:3])


# ------------------------------------------- the plain cut against the csv cut

def _parsed(parse, path, config):
    """(dates, names, shape, value bytes), or the DataError text."""
    try:
        dates, names, values = parse(path, config)
    except pr.DataError as exc:
        return str(exc)
    return dates, names, values.shape, values.tobytes()


def _assert_loaders_agree(path, config):
    """The plain cut of serialization.read_table gives the csv cut's
    panel or error; True when csv.reader never ran (the text was cut at
    newlines and delimiters, and np.loadtxt parsed its numbers)."""
    from portrisk import panels, serialization

    csv_rows = serialization._csv_rows
    ran = []
    with mock.patch.object(serialization, "_csv_rows",
                           lambda *args: ran.append(True) or csv_rows(*args)):
        got = _parsed(panels._read_table, path, config)
    with mock.patch.object(serialization, "_plain_table", lambda *args: None):
        want = _parsed(panels._read_table, path, config)
    assert got == want
    return not ran


PLAIN = pr.ParseConfig()

# (file text, config, whether the plain cut reads it without csv.reader)
LOADER_CASES = {
    "crlf": ("date,a,b\r\nd1,0.1,-0.2\r\nd2,1e-3,4\r\n", PLAIN, True),
    "padding": ("date , aaa ,bbb\n2020-01-01,  0.5 ,\t-2e-3\n 2020-01-02 ,\f1\v, 7 \n",
                PLAIN, False),
    "space and tab padding": ("date , aaa ,bbb\n2020-01-01,  0.5 ,\t-2e-3\n 2020-01-02 , 1\t, 7 \n",
                              PLAIN, True),
    "unicode padding": ("date,a\nd1,\u00a00.5\u2003\nd2,1\u2028\n", PLAIN, False),
    "unicode spaces": ("date,a\nd1,\u00a00.5\u2003\nd2,\u30001\u2009\n", PLAIN, True),
    "signs and zeros": ("date,a,b,c\nd1,+1,-0.0,+.25\nd2,-0,0e0,1.\n", PLAIN, True),
    "subnormals": ("date,a,b\nd1,5e-324,4.9e-324\nd2,2.2250738585072014e-308,1e-320\n",
                   PLAIN, True),
    "overflow": ("date,a\nd1,1e500\nd2,-1e500\n", PLAIN, True),
    "nan and inf": ("date,a,b\nd1,nan,-inf\nd2,+NaN,Infinity\n", PLAIN, True),
    "no final newline": ("date,a\nd1,1\nd2,2", PLAIN, True),
    "comments": ("# head\n  # indented\ndate,a\n\t# note\nd1,1\n\nd2,2\n", PLAIN, True),
    "percent": ("date,a,b\nd1,26.23,-11.88\nd2,1.25,22.15\n",
                pr.ParseConfig(percent_units=True), True),
    "semicolon": ("date;a;b\nd1;0.1;0.2\nd2;0.3;0.4\n", pr.ParseConfig(delimiter=";"), True),
    "byte order mark": ("\ufeffdate,a\nd1,1\nd2,2\n", PLAIN, True),
    "underscores": ("date,a,b\nd1,1_000,2\nd2,1_0.0_1,3\n", PLAIN, False),
    "non-ASCII digits": ("date,a\nd1,\u0661\u0662\nd2,\u0663.\u0665\n", PLAIN, False),
    "quoted cells": ('date,a,b\nd1,"0.5",2\n"d2",1,"3"\n', PLAIN, False),
    "quoted delimiter": ('date,a\nd1,"1,5"\n', PLAIN, False),
    "lone carriage return": ("date,a\rd1,1\rd2,2\r", PLAIN, True),
    "carriage return in a row": ("date,a,b\nd1\r,1,2\nd2,3,4\n", PLAIN, False),
    "NUL": ("date,a\nd1,1\x00\n", PLAIN, False),
    "ASCII separators": ("date,a\nd1,\x1c1.0\nd2,2\x1f\n", PLAIN, False),
    "unicode line breaks": ("date,a\nd1,1\x85\nd2,2\u2029\n", PLAIN, False),
    "form feed between rows": ("date,a\nd1,1\fd2,2\n", PLAIN, False),
    "trailing delimiter": ("date,a,b\nd1,0.1,0.2,\n", PLAIN, False),
    "trailing delimiter everywhere": ("date,a,b,\nd1,0.1,0.2,\n", PLAIN, False),
    "whitespace-only line": ("date,a\nd1,1\n   \nd2,2\n", PLAIN, False),
    "whitespace-only header": ("  \ndate,a\nd1,1\n", PLAIN, False),
    "empty cell": ("date,a,b\nd1,,2\n", PLAIN, False),
    "empty single cell": ("date,a\nd1,\nd2,2\n", PLAIN, False),
    "blank cell": ("date,a\nd1, \n", PLAIN, False),
    "two numbers in a cell": ("date,a\nd1,1.0 2.0\n", PLAIN, False),
    "hex and percent": ("date,a,b\nd1,0x10,1.5%\n", PLAIN, False),
    "ragged": ("date,a,b\nd1,1,2\nd2,1\n", PLAIN, False),
    "empty date": ("date,a\n ,1\n", PLAIN, True),
    "dates out of order": ("date,a\nd2,1\nd1,2\n", PLAIN, True),
    "header only": ("date,a\n", PLAIN, False),
    "no data columns": ("date\nd1\n", PLAIN, False),
    "only comments": ("# nothing\n", PLAIN, False),
    "excluded column": ("date,a,b\nd1,1,2\nd2,3,4\n",
                        pr.ParseConfig(excluded_columns=("a",)), True),
    "risk-free column": ("date,Mkt,RF\nd1,0.55,0.002\nd2,-0.3,0.002\n",
                         pr.ParseConfig(percent_units=True, riskfree_column="RF"), True),
    "every column excluded": ("date,a\nd1,1\n", pr.ParseConfig(excluded_columns=("a",)), False),
    "tab delimiter": ("date\ta\tb\nd1\t 1\t2\nd2\t3\t\t\n", pr.ParseConfig(delimiter="\t"), False),
    "hash delimiter": ("date#a\nd1#1\n#d2#2\n", pr.ParseConfig(delimiter="#"), False),
}


@pytest.mark.parametrize("case", LOADER_CASES)
def test_fast_loader_matches_the_row_parser(tmp_path, case):
    text, config, fast = LOADER_CASES[case]
    path = tmp_path / "panel.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _assert_loaders_agree(path, config) == fast


def test_fast_loader_leaves_non_utf8_files_to_the_row_parser(tmp_path):
    # the one read of the file fails before either cut, with one message
    path = tmp_path / "latin1.csv"
    path.write_bytes("date,café\nd1,1\n".encode("latin-1"))
    assert _assert_loaders_agree(path, PLAIN)
    with pytest.raises(pr.DataError, match=re.escape(f"{path}: not UTF-8 text")):
        pr.load_returns_csv(path)


# cells a parser might read differently: padding, signs, exponents, the
# edges of the double range, non-finite spellings and near-misses of each
_TOKENS = ["0", "-0.0", "+1", "1.", ".5", "1e-3", "-2E+2", " 7 ", "\t8", "9 ",
           "5e-324", "1e-400", "1.7976931348623157e308", "1e309", "nan", "-Inf",
           "1_0", "1__0", "", " ", "x", "1e", "--1", "0x1", "\u0661", "1 2", "1\x1e"]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.sampled_from(_TOKENS), min_size=2, max_size=2),
                min_size=1, max_size=4),
       st.booleans(), st.booleans())
def test_fast_loader_matches_the_row_parser_on_drawn_cells(tmp_path_factory, rows, crlf,
                                                           percent):
    newline = "\r\n" if crlf else "\n"
    text = newline.join(["date,a,b"] + [f"d{i},{x},{y}" for i, (x, y) in enumerate(rows)])
    path = tmp_path_factory.mktemp("drawn") / "panel.csv"
    path.write_bytes((text + newline).encode("utf-8"))
    _assert_loaders_agree(path, pr.ParseConfig(percent_units=percent))
