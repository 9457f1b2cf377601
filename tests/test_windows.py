from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infodrift import compute_matrix, evolve, gen_coupled_binary, gen_var1, infoflow, make_windows, windows
from infodrift.discretize import bin_series, joint_histogram
from infodrift.errors import DegenerateSeries, EstimatorError, LengthMismatch, TooFewSamples, WindowTooLarge
from infodrift.infoflow import entropy, mutual_information, self_conditional_entropy, transfer_entropy
from infodrift.stats import ReturnsMatrix
from infodrift.windows import WindowSpec


def returns_of(values, ids=None):
    values = np.asarray(values, dtype=float)
    ids = tuple(ids) if ids else tuple(f"A{i}" for i in range(values.shape[1]))
    return ReturnsMatrix(asset_ids=ids, values=values, kind="log")


def test_segmented_remainder_distribution():
    assert make_windows(10, WindowSpec(mode="segmented", segments=3)) == [(0, 4), (4, 7), (7, 10)]


def test_sliding_windows():
    spec = WindowSpec(mode="sliding", length=4, stride=3)
    assert make_windows(10, spec) == [(0, 4), (3, 7), (6, 10)]


def test_sliding_window_too_large():
    with pytest.raises(WindowTooLarge):
        make_windows(3, WindowSpec(mode="sliding", length=5, stride=1))


def test_segmented_more_segments_than_samples():
    with pytest.raises(WindowTooLarge):
        make_windows(3, WindowSpec(mode="segmented", segments=5))


@given(st.integers(1, 200), st.integers(1, 12))
@settings(max_examples=100, deadline=None)
def test_segmented_partition_exact(t, k):
    if t < k:
        return
    windows = make_windows(t, WindowSpec(mode="segmented", segments=k))
    assert len(windows) == k
    assert windows[0][0] == 0 and windows[-1][1] == t
    for (a, b), (c, d) in zip(windows, windows[1:]):
        assert b == c and a < b
    sizes = [b - a for a, b in windows]
    assert max(sizes) - min(sizes) <= 1
    assert sorted(sizes, reverse=True) == sizes


@given(st.integers(2, 60), st.integers(1, 20), st.integers(1, 10))
@settings(max_examples=100, deadline=None)
def test_sliding_windows_inside_range(t, length, stride):
    if length > t:
        with pytest.raises(WindowTooLarge):
            make_windows(t, WindowSpec(mode="sliding", length=length, stride=stride))
        return
    windows = make_windows(t, WindowSpec(mode="sliding", length=length, stride=stride))
    assert windows[0] == (0, length)
    for a, b in windows:
        assert 0 <= a < b <= t and b - a == length


def test_window_spec_parse():
    assert WindowSpec.parse("segmented:10").segments == 10
    spec = WindowSpec.parse("sliding:250:50")
    assert (spec.length, spec.stride) == (250, 50)
    with pytest.raises(ValueError):
        WindowSpec.parse("sliding:250")
    with pytest.raises(ValueError):
        WindowSpec.parse("weekly:3")


def test_single_segment_equals_full_sample_bitwise():
    panel = gen_var1(np.array([[0.4, 0.1], [0.0, 0.3]]), sigma=1.0, steps=500, seed=11)
    for measure in ("correlation", "mutual_information", "transfer_entropy", "km_drift"):
        full = compute_matrix(panel, measure, bins=4)
        windowed = evolve(panel, WindowSpec(mode="segmented", segments=1), measure, bins=4)
        assert len(windowed.entries) == 1
        assert np.array_equal(windowed.entries[0][4].values, full.values)


def test_window_labels_use_dates_when_present(csv_dir):
    import datetime as dt

    values = np.random.default_rng(0).normal(size=(10, 2))
    base = dt.date(2020, 1, 1).toordinal()
    dates = tuple(dt.date.fromordinal(base + i) for i in range(10))
    returns = ReturnsMatrix(asset_ids=("a", "b"), values=values, kind="log", dates=dates)
    result = evolve(returns, WindowSpec(mode="segmented", segments=2), "correlation")
    assert result.entries[0][0] == "2020-01-01"
    assert result.entries[1][1] == "2020-01-10"


def test_estimator_error_carries_window_index():
    rng = np.random.default_rng(1)
    values = np.vstack([rng.normal(size=(5, 2)), np.zeros((5, 2))])
    with pytest.raises(DegenerateSeries, match="window 1"):
        evolve(returns_of(values), WindowSpec(mode="segmented", segments=2), "correlation")


def _mean_offdiag_te_per_window(panel, k=10, bins=2):
    result = evolve(panel, WindowSpec(mode="segmented", segments=k), "transfer_entropy", bins=bins)
    mask = ~np.eye(panel.n_assets, dtype=bool)
    return np.array([e[4].values[mask].mean() for e in result.entries])


def test_constant_coupling_windowed_te_has_no_trend():
    # 50 independent panels with fixed coupling: the per-window mean TE may
    # fluctuate but must not drift with the window index
    slopes = []
    for run in range(50):
        x, y = gen_coupled_binary(0.35, 4000, seed=1000 + run)
        panel = returns_of(np.column_stack([x.symbols, y.symbols]).astype(float), ids=("x", "y"))
        means = _mean_offdiag_te_per_window(panel, k=10)
        idx = np.arange(len(means), dtype=float)
        slopes.append(np.polyfit(idx, means, 1)[0])
    slopes = np.array(slopes)
    t_stat = slopes.mean() / (slopes.std(ddof=1) / np.sqrt(len(slopes)))
    assert abs(t_stat) < 3.0


def test_regime_shift_raises_post_window_te():
    half = 3000
    x1, y1 = gen_coupled_binary(0.5, half, seed=77)   # decoupled
    x2, y2 = gen_coupled_binary(0.12, half, seed=78)  # strongly coupled
    x = np.concatenate([x1.symbols, x2.symbols]).astype(float)
    y = np.concatenate([y1.symbols, y2.symbols]).astype(float)
    panel = returns_of(np.column_stack([x, y]), ids=("x", "y"))
    means = _mean_offdiag_te_per_window(panel, k=10)
    assert means[5:].mean() > 2.0 * means[:5].mean()


def test_evolve_propagates_fixed_params_into_metadata():
    panel = gen_var1(np.array([[0.3]]), sigma=1.0, steps=200, seed=12)
    result = evolve(panel, WindowSpec(mode="segmented", segments=4), "te", bins=3)
    assert result.measure == "transfer_entropy"
    assert result.params["bins"] == 3
    assert result.params["bins_refit_per_window"] is True
    assert len(result.entries) == 4


# ---------------------------------------------------------------- window-batched estimation
# evolve bins every window of MI and TE at once and counts their rows
# together; bin_series and the per-pair functions, window by window, are the
# oracles. view(int64) also tells -0.0 from 0.0.

def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def oracle_window(values, ids, measure, bins, strategy, dt):
    """(values, bin_edges) of one window from bin_series and the per-pair functions."""
    seqs = []
    for k, asset in enumerate(ids):
        try:
            seqs.append(bin_series(values[:, k], bins, strategy))
        except DegenerateSeries as e:
            raise DegenerateSeries(f"{asset}: {e}") from e
    n = len(seqs)
    out = np.zeros((n, n))
    for i in range(n):
        if measure == "transfer_entropy":
            out[i, i] = self_conditional_entropy(seqs[i], dt=dt)
            for j in range(n):
                if j != i:
                    out[i, j] = transfer_entropy(seqs[j], seqs[i], dt=dt)
        else:
            out[i, i] = entropy(joint_histogram([seqs[i]], lags=[0]))
            for j in range(i + 1, n):
                out[i, j] = out[j, i] = mutual_information(seqs[i], seqs[j])
    return out, {asset: seq.edges.tolist() for asset, seq in zip(ids, seqs)}


def oracle_evolve(returns, spec, measure, bins, strategy, dt):
    """Every window's oracle result, or the first error the per-window loop meets."""
    found = []
    for idx, (start, end) in enumerate(make_windows(returns.n_samples, spec)):
        try:
            found.append(oracle_window(returns.values[start:end], returns.asset_ids, measure, bins, strategy, dt))
        except (EstimatorError, TooFewSamples) as e:
            return type(e)(f"{measure}: window {idx} [{start}:{end}): {e}")
        except ValueError as e:
            return e
    return found


@st.composite
def tied_panels(draw):
    """A cent-rounded (T, N) returns panel: ties, signed zeros, sometimes a flat stretch."""
    n = draw(st.integers(1, 5), label="n")
    t = draw(st.integers(6, 80), label="t")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    values = np.round(rng.normal(size=(t, n)) * draw(st.sampled_from([0.004, 0.01, 0.05])), 2)
    if draw(st.booleans()):
        a = draw(st.integers(0, t - 1))
        values[a : a + draw(st.integers(1, t)), draw(st.integers(0, n - 1))] = 0.0
    return returns_of(values)


@st.composite
def specs(draw, t):
    if draw(st.booleans()):
        return WindowSpec(mode="segmented", segments=draw(st.integers(1, min(t, 7))))
    return WindowSpec(mode="sliding", length=draw(st.integers(2, t)), stride=draw(st.integers(1, 6)))


@given(tied_panels(), st.data(), st.integers(2, 8), st.integers(1, 3),
       st.sampled_from(["quantile", "equal_width"]), st.sampled_from(["mutual_information", "transfer_entropy"]))
@settings(max_examples=150, deadline=None)
def test_evolve_equals_per_window_oracles_bit_for_bit(returns, data, bins, dt, strategy, measure):
    spec = data.draw(specs(returns.n_samples), label="spec")
    # small blocks also put window runs of one length into several blocks
    block = data.draw(st.sampled_from([1, 7, 40, 300, windows._BLOCK_SYMBOLS]), label="block")
    codes = []
    real = infoflow.joint_counts

    def recording(c, size):
        codes.append(len(c))
        return real(c, size)

    expected = oracle_evolve(returns, spec, measure, bins, strategy, dt)
    with mock.patch.object(windows, "_BLOCK_SYMBOLS", block), mock.patch.object(infoflow, "joint_counts", recording):
        if isinstance(expected, Exception):
            with pytest.raises(type(expected)) as err:
                evolve(returns, spec, measure, bins=bins, strategy=strategy, dt=dt)
            assert str(err.value) == str(expected)
            return
        result = evolve(returns, spec, measure, bins=bins, strategy=strategy, dt=dt)
    assert len(result.entries) == len(expected)
    for entry, (values, edges) in zip(result.entries, expected):
        matrix = entry[4]
        assert np.array_equal(bits(matrix.values), bits(values))
        assert list(matrix.params["bin_edges"]) == list(edges)
        for asset, row in edges.items():
            assert np.array_equal(bits(matrix.params["bin_edges"][asset]), bits(row))
        assert matrix.params["bins"] == bins and matrix.params["strategy"] == strategy
    assert max(codes) <= infoflow._MAX_CODES


def test_long_windows_are_counted_in_capped_calls():
    # windows longer than the code cap are counted in time chunks
    rng = np.random.default_rng(19)
    returns = returns_of(np.round(rng.normal(size=(40_001, 3)) * 0.01, 2))
    codes = []
    real = infoflow.joint_counts

    def recording(c, size):
        codes.append(len(c))
        return real(c, size)

    spec = WindowSpec(mode="segmented", segments=2)
    with mock.patch.object(infoflow, "joint_counts", recording):
        for measure in ("mutual_information", "transfer_entropy"):
            result = evolve(returns, spec, measure, bins=8)
            for (start, end), entry in zip(make_windows(returns.n_samples, spec), result.entries):
                expected = compute_matrix(returns.window(start, end), measure, bins=8)
                assert np.array_equal(bits(entry[4].values), bits(expected.values))
    assert max(codes) == infoflow._MAX_CODES


def _short_windows(flat_window):
    # four windows of 3 samples; asset A1 is constant in ``flat_window``
    values = np.round(np.random.default_rng(20).normal(size=(12, 2)), 2)
    values[3 * flat_window : 3 * flat_window + 3, 1] = 0.5
    return returns_of(values)


@pytest.mark.parametrize("flat_window, error, message", [
    (0, DegenerateSeries, "transfer_entropy: window 0 [0:3): A1: all values equal"),
    (1, LengthMismatch, "transfer_entropy: window 0 [0:3): need at least dt + 2 = 4 samples, got 3"),
], ids=["flat-first", "flat-later"])
def test_window_error_is_the_first_the_per_window_loop_met(flat_window, error, message):
    # window 0 is binned before its estimator checks the lag, and window 1 after
    spec = WindowSpec(mode="segmented", segments=4)
    with pytest.raises(error) as err:
        evolve(_short_windows(flat_window), spec, "te", bins=2, dt=2)
    assert str(err.value) == message
