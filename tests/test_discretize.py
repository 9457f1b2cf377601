import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from infodrift import bin_series, discretize, joint_histogram
from infodrift.discretize import SymbolSequence, bin_windows
from infodrift.errors import DegenerateSeries, EmptyOverlap, LengthMismatch, TooFewSamples


def test_quantile_median_split():
    seq = bin_series([1.0, 2.0, 3.0, 4.0], 2, "quantile")
    assert list(seq.symbols) == [0, 0, 1, 1]
    assert seq.bins == 2


def test_equal_width_hand_example():
    # width (0.99-0)/4 = 0.2475; edges 0, .2475, .495, .7425, .99
    seq = bin_series([0.0, 0.24, 0.5, 0.99], 4, "equal_width")
    assert list(seq.symbols) == [0, 0, 2, 3]


def test_constant_column_degenerate():
    with pytest.raises(DegenerateSeries):
        bin_series([3.0] * 10, 4)
    with pytest.raises(DegenerateSeries):
        bin_series([3.0] * 10, 4, "equal_width")


def test_too_few_samples_for_quantile():
    with pytest.raises(TooFewSamples):
        bin_series([1.0, 2.0, 3.0], 4, "quantile")


def test_interior_edge_ties_go_to_lower_bin():
    # values equal to the inner edge 2.0 land in bin 0
    seq = bin_series([1.0, 2.0, 2.0, 3.0], 2, "equal_width")
    assert list(seq.symbols) == [0, 0, 0, 1]


def test_maximum_lands_in_top_bin():
    seq = bin_series([0.0, 1.0, 2.0, 3.0], 3, "equal_width")
    assert seq.symbols[-1] == 2


def test_binary_valued_data_splits_even_when_quantile_edges_tie():
    # median of a 0/1 majority-zero sample collapses onto 0.0; the tie rule
    # must still separate the two values
    values = np.array([0.0] * 7 + [1.0] * 3)
    seq = bin_series(values, 2, "quantile")
    assert set(seq.symbols[values == 0.0]) == {0}
    assert set(seq.symbols[values == 1.0]) == {1}


@given(arrays(np.float64, st.integers(4, 60),
              elements=st.floats(-100, 100, allow_nan=False, width=16).map(float)))
@settings(max_examples=60, deadline=None)
def test_quantile_b2_occupancy(values):
    if np.ptp(values) == 0:
        return
    seq = bin_series(values, 2, "quantile")
    n = len(values)
    lower = int((seq.symbols == 0).sum())
    # half-and-half up to ties with the median
    ties = int((values == np.quantile(values, 0.5)).sum())
    assert abs(lower - n / 2) <= max(1, ties)


@given(st.lists(st.integers(-50, 50), min_size=8, max_size=40),
       st.sampled_from([2, 3, 4]))
@settings(max_examples=60, deadline=None)
def test_quantile_invariant_under_monotone_transform(ints, bins):
    values = np.array(ints, dtype=float)
    if len(np.unique(values)) < 2:
        return
    base = bin_series(values, bins, "quantile")
    transformed = bin_series(2.0 * values + 16.0, bins, "quantile")
    assert np.array_equal(base.symbols, transformed.symbols)


def _assign_ranks(values, bins):
    # the rank oracle: bin of value v = floor(mid_rank(v) * bins / n), ties
    # share their bin, found through np.unique and searchsorted
    n = values.size
    uniq, counts = np.unique(values, return_counts=True)
    start = np.concatenate([[0], np.cumsum(counts)[:-1]])
    uniq_bins = ((2 * start + counts - 1) * bins) // (2 * n)
    return uniq_bins[np.searchsorted(uniq, values)].astype(np.int64)


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


@st.composite
def tied_rows(draw):
    """(W, L) cent-rounded rows with ties, signed zeros and sometimes a constant row."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 6)), draw(st.integers(2, 60)))
    values = np.round(rng.normal(size=shape) * draw(st.sampled_from([0.004, 0.02, 1.0])), 2)
    values[rng.random(shape) < draw(st.sampled_from([0.0, 0.3]))] = -0.0
    if draw(st.booleans()):
        values[rng.integers(shape[0])] = draw(st.sampled_from([0.0, -0.0, 0.01]))
    return values


@given(tied_rows(), st.integers(2, 8), st.sampled_from(["quantile", "equal_width"]),
       st.sampled_from([discretize._BLOCK_VALUES, 1, 7, 60, 130]))
@settings(max_examples=150, deadline=None)
def test_bin_windows_rows_equal_the_one_row_oracles(values, bins, strategy, block):
    # blocks smaller than the rows put one row in each, larger ones several
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(discretize, "_BLOCK_VALUES", block)
        _check_rows_against_the_oracles(values, bins, strategy)


def _check_rows_against_the_oracles(values, bins, strategy):
    lo, hi = values.min(axis=1), values.max(axis=1)
    if strategy == "quantile" and values.shape[1] < bins:
        with pytest.raises(TooFewSamples, match=f"need at least {bins} samples"):
            bin_windows(values, bins, strategy)
        return
    if np.any(lo == hi):
        with pytest.raises(DegenerateSeries, match="^all values equal$") as err:
            bin_windows(values, bins, strategy)
        assert err.value.row == np.flatnonzero(lo == hi)[0]
        return
    symbols, edges = bin_windows(values, bins, strategy)
    for k, row in enumerate(values):
        lo_k, hi_k = float(row.min()), float(row.max())
        if strategy == "quantile":
            expected = np.quantile(row, np.arange(bins + 1) / bins)
            expected[0], expected[-1] = lo_k, hi_k
            assert np.array_equal(symbols[k], _assign_ranks(row, bins))
        else:
            expected = np.linspace(lo_k, hi_k, bins + 1)
            assert np.array_equal(symbols[k], np.searchsorted(expected[1:bins], row, side="left"))
        assert np.array_equal(bits(edges[k]), bits(expected))
        one = bin_series(row, bins, strategy)
        assert np.array_equal(one.symbols, symbols[k]) and np.array_equal(bits(one.edges), bits(edges[k]))


@pytest.mark.parametrize("zeros", ["positive", "negative", "mixed"])
@pytest.mark.parametrize("shape", ["block", "long-row"])
def test_tie_runs_across_bin_starts_and_signed_zeros_equal_the_oracles(monkeypatch, shape, zeros):
    # values drawn from {0, 1, 2}: each tie run spans two or more bin starts,
    # and a run of zeros holds +0.0, -0.0 or both, which np.sort may not keep apart
    rng = np.random.default_rng(6)
    if shape == "block":  # six rows of 40 in one block
        values = rng.permuted(np.tile(np.repeat([0.0, 1.0, 2.0], [14, 13, 13]), (6, 1)), axis=1)
    else:  # one row of 10**6, in a block of its own
        monkeypatch.setattr(discretize, "_BLOCK_VALUES", 1)
        values = rng.integers(0, 3, size=(1, 10**6)).astype(np.float64)
    zero = values == 0
    if zeros == "negative":
        values[zero] = -0.0
    elif zeros == "mixed":
        values[zero & (rng.random(values.shape) < 0.5)] = -0.0
    n = values.shape[1]
    assert all(np.unique(row, return_counts=True)[1].min() > 2 * n // 8 for row in values)
    _check_rows_against_the_oracles(values, 8, "quantile")


@pytest.mark.parametrize("strategy", ["quantile", "equal_width"])
def test_bin_windows_errors_keep_their_order_across_row_blocks(monkeypatch, strategy):
    monkeypatch.setattr(discretize, "_BLOCK_VALUES", 20)  # two rows of 10 per block
    values = np.random.default_rng(3).normal(size=(7, 10))
    values[5] = 0.25  # constant row 5, in the third block
    with pytest.raises(DegenerateSeries) as err:
        bin_windows(values, 4, strategy)
    assert err.value.row == 5
    values[6, 3] = np.nan  # a non-finite value in the last block beats it
    with pytest.raises(ValueError, match="^column must be finite$"):
        bin_windows(values, 4, strategy)
    values[1] = 0.5  # and so it does a constant row in the first block
    with pytest.raises(ValueError, match="^column must be finite$"):
        bin_windows(values, 4, strategy)
    with pytest.raises(ValueError, match="^column must be finite$"):  # and too few samples
        bin_windows(values, 12, strategy)
    values[6, 3] = 1.0
    with pytest.raises(TooFewSamples):  # which beat a constant row
        bin_windows(values, 12, "quantile")
    with pytest.raises(DegenerateSeries) as err:
        bin_windows(values, 4, strategy)
    assert err.value.row == 1
    with pytest.raises(TooFewSamples):  # rows too short to reduce are not reduced
        bin_windows(np.empty((3, 0)), 4, strategy)


def test_bin_series_memory_of_a_long_row():
    column = np.random.default_rng(4).normal(size=200_000)
    column[::5] = np.round(column[::5], 1)  # ties
    bin_series(column[:100], 8)
    tracemalloc.start()
    try:
        seq = bin_series(column, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seq.symbols.nbytes == column.nbytes
    assert peak <= 6 * column.nbytes, peak / column.nbytes


def test_equal_width_edges_of_a_subnormal_span_equal_scalar_linspace():
    # np.linspace spaces a span whose step underflows to zero another way
    values = np.array([[0.0, 5e-324, 1e-323], [0.0, 1.0, 2.0]])
    symbols, edges = bin_windows(values, 4, "equal_width")
    for k, row in enumerate(values):
        assert np.array_equal(bits(edges[k]), bits(np.linspace(row.min(), row.max(), 5)))


def seq_of(symbols, bins=2):
    edges = np.arange(bins + 1, dtype=float) - 0.5
    return SymbolSequence(symbols=np.asarray(symbols, dtype=np.int64), bins=bins, edges=edges)


def test_joint_single_sequence_counts():
    h = joint_histogram([seq_of([0, 1, 0, 1])], lags=[0])
    assert h.total == 4
    assert list(h.counts) == [2, 2]


def test_joint_lagged_pairs_hand_enumerated():
    # pairs (x_{t+1}, x_t) of [0,1,0,1]: (1,0), (0,1), (1,0)
    seq = seq_of([0, 1, 0, 1])
    h = joint_histogram([seq, seq], lags=[0, 1])
    assert h.total == 3
    assert h.counts[1, 0] == 2
    assert h.counts[0, 1] == 1
    assert h.counts[0, 0] == 0 and h.counts[1, 1] == 0


def test_joint_length_mismatch():
    with pytest.raises(LengthMismatch):
        joint_histogram([seq_of([0, 1]), seq_of([0, 1, 0])], lags=[0, 0])


def test_joint_empty_overlap():
    with pytest.raises(EmptyOverlap):
        joint_histogram([seq_of([0, 1])], lags=[2])


def test_probability_view_sums_to_one():
    h = joint_histogram([seq_of([0, 1, 1, 0, 1])], lags=[0])
    assert abs(h.probabilities().sum() - 1.0) < 1e-12


@given(
    st.lists(st.integers(0, 2), min_size=5, max_size=40),
    st.lists(st.integers(0, 3), min_size=5, max_size=40),
    st.integers(0, 2),
    st.integers(0, 2),
)
@settings(max_examples=60, deadline=None)
def test_marginalization_matches_direct_histogram(a, b, lag_a, lag_b):
    n = min(len(a), len(b))
    sa, sb = seq_of(a[:n], bins=3), seq_of(b[:n], bins=4)
    if n - max(lag_a, lag_b) < 1:
        return
    joint = joint_histogram([sa, sb], lags=[lag_a, lag_b])
    # marginal over axis 0 must equal the directly built lagged histogram
    direct_a = joint_histogram([sa], lags=[0])
    if lag_a == lag_b:
        # same alignment: marginals equal the plain (possibly truncated) counts
        marg_a = joint.marginal((0,))
        trunc = sa.symbols[max(lag_a, lag_b) - lag_a : len(sa) - lag_a]
        expected = np.bincount(trunc, minlength=3)
        assert np.array_equal(marg_a.counts, expected)
    assert joint.marginal((0,)).counts.sum() == joint.total
    assert joint.marginal((1,)).counts.sum() == joint.total
    assert np.array_equal(
        joint.marginal((0,)).counts,
        joint.counts.sum(axis=1),
    )


def test_marginal_axis_order():
    sa = seq_of([0, 1, 0, 1, 1], bins=2)
    sb = seq_of([2, 0, 1, 2, 0], bins=3)
    joint = joint_histogram([sa, sb], lags=[0, 0])
    swapped = joint.marginal((1, 0))
    assert swapped.dims == (3, 2)
    assert np.array_equal(swapped.counts, joint.counts.T)
