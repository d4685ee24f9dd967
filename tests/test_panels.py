"""Panel loading, alignment, and preprocessing."""

import re

import numpy as np
import pytest

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


def test_slice_rows_keeps_labels():
    panel = make_panel([[0.1, 1.0], [0.2, 2.0], [0.3, 3.0], [0.4, 4.0]])
    part = panel.slice_rows(1, 3)
    assert part.T == 2
    assert part.dates == panel.dates[1:3]
    assert part.assets == panel.assets
    assert np.array_equal(part.values, panel.values[1:3])
