import csv
from importlib import resources

import pytest
from hypothesis import given
from hypothesis import strategies as st

from clustersmith.errors import ValidationError
from clustersmith.pricing import break_even, coverage_months, coverage_table_cells

NSFC = 68200.0


def test_coverage_gcp_cpu():
    assert coverage_months(NSFC, 3751.82) == 18.18


def test_coverage_azure_cpu():
    assert coverage_months(NSFC, 3055.20) == 22.32


def test_coverage_vocational_aws_gpu():
    assert coverage_months(3800.0, 15054.79) == 0.25


def test_coverage_rounds_half_up():
    assert coverage_months(100.0, 32.0) == 3.13  # 3.125 up


@given(st.floats(1.0, 1e7), st.floats(1.0, 1e6), st.integers(2, 100))
def test_coverage_homogeneous(amount, monthly, k):
    base = coverage_months(amount, monthly)
    scaled = coverage_months(amount * k, monthly * k)
    assert abs(scaled - base) <= 0.01  # rounding of equal true ratios


def test_all_bundled_cells_within_tolerance():
    cells = coverage_table_cells()
    assert len(cells) == 36
    by_table = {t: sum(1 for c in cells if c.table == t) for t in ("cpu", "gpu")}
    assert by_table == {"cpu": 24, "gpu": 12}
    for c in cells:
        # Tencent NSFC prints 39.87 (truncated) vs computed 39.88: delta is
        # exactly 0.01, the difference of the two 2-decimal values
        assert abs(c.delta) <= 0.01, (c.provider, c.funding_label, c.delta)
    assert {c.delta for c in cells} == {-0.01, 0.0, 0.01}


def test_funding_table_contents():
    text = resources.files("clustersmith.data").joinpath(
        "reference_tables.csv").read_text()
    rows = list(csv.DictReader(text.splitlines()))
    fundings = [r for r in rows if r["table"] == "funding"]
    quotes = [r for r in rows if r["table"] != "funding"]
    assert [float(r["price_usd"]) for r in fundings] == [
        68200.0, 61400.0, 18400.0, 3800.0]
    assert len(quotes) == 9
    # each quote row against each funding row, in file order
    assert [(c.table, c.provider, c.funding_label)
            for c in coverage_table_cells()] == [
        (q["table"], q["row"], f["row"]) for q in quotes for f in fundings]


def test_break_even_examples():
    assert break_even(100000.0, 0.0, 3751.82) == 27
    assert break_even(0.0, 0.0, 100.0) == 1


def test_break_even_never():
    with pytest.raises(ValidationError,
                       match="rent never overtakes ownership cost"):
        break_even(1000.0, 100.0, 100.0)


@given(st.floats(1, 1e6), st.floats(100, 1e5))
def test_break_even_monotone(capex, rent):
    m = break_even(capex, 0.0, rent)
    # nonincreasing in rent, nondecreasing in capex
    assert break_even(capex, 0.0, rent * 2) <= m
    assert break_even(capex * 2, 0.0, rent) >= m

