import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from infodrift import compute_returns, correlation_matrix, describe
from infodrift.errors import DegenerateSeries, TooFewSamples
from infodrift.stats import ReturnsMatrix

from conftest import iso_days, make_panel


def returns_of(values, ids=None):
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    ids = tuple(ids) if ids else tuple(f"A{i}" for i in range(values.shape[1]))
    return ReturnsMatrix(asset_ids=ids, values=values, kind="log")


def test_constant_prices_zero_log_returns():
    panel = make_panel([[100.0], [100.0], [100.0]])
    r = compute_returns(panel, "log")
    assert np.array_equal(r.values, np.zeros((2, 1)))


def test_log_and_simple_returns_analytic():
    panel = make_panel([[100.0], [110.0], [121.0]])
    log_r = compute_returns(panel, "log")
    assert log_r.values[:, 0] == pytest.approx([math.log(1.1)] * 2, abs=1e-12)
    simple_r = compute_returns(panel, "simple")
    assert simple_r.values[:, 0] == pytest.approx([0.1, 0.1], abs=1e-12)


def test_unknown_return_kind_is_refused():
    with pytest.raises(ValueError) as err:
        compute_returns(make_panel([[1.0], [2.0], [3.0]]), "bogus")
    assert str(err.value) == "kind must be one of ('log', 'simple')"


def test_return_dates_are_second_of_each_pair():
    panel = make_panel([[1.0], [2.0], [3.0]], start="2020-01-01")
    r = compute_returns(panel)
    assert iso_days(r.days) == ["2020-01-02", "2020-01-03"]


@given(st.floats(min_value=0.001, max_value=1000.0))
@settings(max_examples=30, deadline=None)
def test_log_returns_scale_invariant(scale):
    prices = np.array([[100.0], [104.0], [99.0], [101.5]])
    base = compute_returns(make_panel(prices), "log")
    scaled = compute_returns(make_panel(prices * scale), "log")
    assert np.allclose(base.values, scaled.values, atol=1e-12)


def test_describe_symmetric_column():
    col = np.array([-1.0, 1.0] * 50)
    summary = describe(returns_of(col))
    assert summary.mean[0] == pytest.approx(0.0, abs=1e-15)
    assert summary.skewness[0] == pytest.approx(0.0, abs=1e-15)
    assert summary.excess_kurtosis[0] == pytest.approx(-2.0, abs=1e-12)  # two-point mass


def test_describe_constant_column_degenerate():
    with pytest.raises(DegenerateSeries):
        describe(returns_of(np.zeros(10)))


def test_describe_too_few_rows():
    with pytest.raises(TooFewSamples):
        describe(returns_of(np.array([1.0, 2.0, 3.0])))


def _brute_force_describe(col):
    n = len(col)
    mean = sum(col) / n
    var = sum((v - mean) ** 2 for v in col) / (n - 1)
    m2 = sum((v - mean) ** 2 for v in col) / n
    m3 = sum((v - mean) ** 3 for v in col) / n
    m4 = sum((v - mean) ** 4 for v in col) / n
    return mean, math.sqrt(var), m3 / m2**1.5, m4 / m2**2 - 3.0


@given(
    arrays(np.float64, st.integers(8, 40),
           elements=st.floats(-0.25, 0.25, allow_nan=False, width=32).map(float))
)
@settings(max_examples=60, deadline=None)
def test_describe_matches_two_pass(col):
    if np.ptp(col) < 1e-9:
        return
    summary = describe(returns_of(col))
    mean, std, skew, kurt = _brute_force_describe([float(v) for v in col])
    assert summary.mean[0] == pytest.approx(mean, abs=1e-12)
    assert summary.std[0] == pytest.approx(std, abs=1e-12)
    assert summary.skewness[0] == pytest.approx(skew, rel=1e-9, abs=1e-9)
    assert summary.excess_kurtosis[0] == pytest.approx(kurt, rel=1e-9, abs=1e-9)


def test_correlation_duplicated_column():
    rng = np.random.default_rng(1)
    col = rng.normal(size=50)
    m = correlation_matrix(returns_of(np.column_stack([col, col])))
    assert m.values[0, 1] == 1.0
    assert m.values[0, 0] == 1.0


def test_correlation_negated_column():
    rng = np.random.default_rng(2)
    col = rng.normal(size=50)
    m = correlation_matrix(returns_of(np.column_stack([col, -col])))
    assert m.values[0, 1] == pytest.approx(-1.0, abs=1e-12)


def test_correlation_degenerate():
    with pytest.raises(DegenerateSeries):
        correlation_matrix(returns_of(np.column_stack([np.ones(10), np.arange(10.0)])))


def test_correlation_bounds_symmetry_unit_diagonal():
    rng = np.random.default_rng(3)
    m = correlation_matrix(returns_of(rng.normal(size=(200, 4))))
    assert np.array_equal(m.values, m.values.T)
    assert np.all(np.diag(m.values) == 1.0)
    assert np.all(np.abs(m.values) <= 1.0)


@given(st.floats(0.01, 100.0), st.floats(-5.0, 5.0))
@settings(max_examples=30, deadline=None)
def test_correlation_affine_invariance(scale, shift):
    rng = np.random.default_rng(4)
    x = rng.normal(size=(100, 3))
    base = correlation_matrix(returns_of(x))
    y = x.copy()
    y[:, 1] = scale * y[:, 1] + shift
    rescaled = correlation_matrix(returns_of(y))
    assert np.allclose(base.values, rescaled.values, atol=1e-10)
