import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infodrift import (align, compute_matrix, compute_returns, evolve, gen_coupled_binary, gen_var1, infoflow, kernels,
                       load_csv, make_windows, windows)
from infodrift.discretize import bin_series, joint_histogram
from infodrift.errors import DegenerateSeries, EstimatorError, TooFewSamples, WindowTooLarge
from infodrift.infoflow import entropy, mutual_information, self_conditional_entropy, transfer_entropy
from infodrift.stats import ReturnsMatrix
from infodrift.windows import WindowSpec

from conftest import assert_no_child_process, child_pythonpath


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
        assert windowed.values.shape == (1, 2, 2)
        assert np.array_equal(bits(windowed.values[0]), bits(full.values))
        assert (windowed.asset_ids, windowed.directed, windowed.units) == (full.asset_ids, full.directed, full.units)
        assert windowed.bounds.tolist() == [[0, panel.n_samples]]
        if "bin_edges" in full.params:
            assert (windowed.params["bins"], windowed.params["strategy"]) == (full.params["bins"], full.params["strategy"])
            assert list(full.params["bin_edges"]) == list(panel.asset_ids)
            assert np.array_equal(bits(windowed.edges[0]), bits(list(full.params["bin_edges"].values())))
        else:
            assert windowed.edges is None


def test_window_labels_use_dates_when_present(csv_dir):
    # a's first day is not b's, so align drops it; the first return is
    # realized on the second common day
    prices = np.exp(np.random.default_rng(0).normal(size=(12, 2)).cumsum(axis=0))
    days = [f"2019-12-{d}" for d in (30, 31)] + [f"2020-01-{d:02d}" for d in range(1, 11)]
    paths = [csv_dir(f"{asset}.csv", "Date,Adj Close\n" + "".join(
        f"{day},{price!r}\n" for day, price in zip(days[k:], prices[k:, k].tolist())))
        for k, asset in enumerate("ab")]
    returns = compute_returns(align([load_csv(path) for path in paths]))
    result = evolve(returns, WindowSpec(mode="segmented", segments=2), "correlation")
    assert result.labels == (("2020-01-01", "2020-01-05"), ("2020-01-06", "2020-01-10"))


def test_estimator_error_carries_window_index():
    rng = np.random.default_rng(1)
    values = np.vstack([rng.normal(size=(5, 2)), np.zeros((5, 2))])
    with pytest.raises(DegenerateSeries, match="window 1"):
        evolve(returns_of(values), WindowSpec(mode="segmented", segments=2), "correlation")


def _windowed(measure="mutual_information", values=None, bounds=((0, 5), (5, 10)), labels=(("a", "b"), ("c", "d")),
              edges=np.zeros((2, 2, 3))):
    values = np.array([[[1.0, 0.5], [0.5, 1.0]]] * 2) if values is None else values
    return windows.WindowedResult(
        measure=measure, asset_ids=("A", "B"), values=values, bounds=np.array(bounds), labels=labels,
        spec=WindowSpec(mode="segmented", segments=2), edges=edges,
    )


@pytest.mark.parametrize("change, message", [
    ({"values": np.array([[[1.0, 0.5], [0.25, 1.0]]] * 2)}, "undirected matrix is not symmetric"),
    ({"values": np.array([[[1.0, -0.5], [-0.5, 1.0]]] * 2)}, "mutual information off-diagonals must be >= 0"),
    ({"values": np.zeros((0, 2, 2)), "bounds": np.zeros((0, 2)), "labels": (), "edges": None},
     "windowed result cannot be empty"),
    ({"values": np.ones((2, 2))}, "values must be 2x2x2, got (2, 2)"),
    ({"bounds": ((0, 5),)}, "bounds must be 2x2, got (1, 2)"),
    ({"bounds": (0, 5)}, "bounds must be 2x2, got (2,)"),
    ({"labels": (("a", "b"),)}, "labels must hold 2 windows, got 1"),
    ({"edges": np.zeros((3, 2, 3))}, "edges must be 2x2x(bins + 1), got (3, 2, 3)"),
    ({"edges": np.zeros((2, 3))}, "edges must be 2x2x(bins + 1), got (2, 3)"),
    ({"measure": "entropy"}, "unknown measure 'entropy'"),
])
def test_windowed_result_refuses_what_no_window_matrix_could_hold(change, message):
    _windowed()  # the unchanged result is valid
    with pytest.raises(ValueError) as err:
        _windowed(**change)
    assert str(err.value) == message


def test_windowed_result_checks_each_window_as_its_matrix():
    # a directed TE stack may be asymmetric and hold NaN; the second window alone is refused for MI
    values = np.array([[[np.nan, 0.5], [0.25, 1.0]], [[1.0, 0.5], [0.25, 1.0]]])
    assert _windowed("transfer_entropy", values).values.shape == (2, 2, 2)
    with pytest.raises(ValueError, match="not symmetric"):
        _windowed(values=values[1:], bounds=((0, 5),), labels=(("a", "b"),), edges=None)


def _mean_offdiag_te_per_window(panel, k=10, bins=2):
    result = evolve(panel, WindowSpec(mode="segmented", segments=k), "transfer_entropy", bins=bins)
    mask = ~np.eye(panel.n_assets, dtype=bool)
    return np.array([values[mask].mean() for values in result.values])


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
    assert len(result.values) == len(result.bounds) == len(result.labels) == len(result.edges) == 4


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
    return out, np.array([seq.edges for seq in seqs])


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
    # in-process, so that every count reaches the recorder; the fork path is
    # held to the in-process one by test_fanned_out_evolve_equals_in_process
    with mock.patch.object(windows, "_BLOCK_SYMBOLS", block), mock.patch.object(infoflow, "joint_counts", recording), \
            mock.patch.object(kernels, "_cpus", lambda: 1):
        if isinstance(expected, Exception):
            with pytest.raises(type(expected)) as err:
                evolve(returns, spec, measure, bins=bins, strategy=strategy, dt=dt)
            assert str(err.value) == str(expected)
            return
        result = evolve(returns, spec, measure, bins=bins, strategy=strategy, dt=dt)
    assert len(result.values) == len(result.edges) == len(expected)
    for w, (values, edges) in enumerate(expected):
        assert np.array_equal(bits(result.values[w]), bits(values))
        assert np.array_equal(bits(result.edges[w]), bits(edges))
    assert result.params["bins"] == bins and result.params["strategy"] == strategy
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
    with mock.patch.object(infoflow, "joint_counts", recording), mock.patch.object(kernels, "_cpus", lambda: 1):
        for measure in ("mutual_information", "transfer_entropy"):
            result = evolve(returns, spec, measure, bins=8)
            for (start, end), values in zip(make_windows(returns.n_samples, spec), result.values):
                expected = compute_matrix(returns.window(start, end), measure, bins=8)
                assert np.array_equal(bits(values), bits(expected.values))
    assert max(codes) == infoflow._MAX_CODES


def _short_windows(flat_window):
    # four windows of 3 samples; asset A1 is constant in ``flat_window``
    values = np.round(np.random.default_rng(20).normal(size=(12, 2)), 2)
    values[3 * flat_window : 3 * flat_window + 3, 1] = 0.5
    return returns_of(values)


@pytest.mark.parametrize("flat_window, error, message", [
    (0, DegenerateSeries, "transfer_entropy: window 0 [0:3): A1: all values equal"),
    (1, TooFewSamples, "transfer_entropy: window 0 [0:3): need at least dt + 2 = 4 samples, got 3"),
], ids=["flat-first", "flat-later"])
def test_window_error_is_the_first_the_per_window_loop_met(flat_window, error, message):
    # window 0 is binned before its estimator checks the lag, and window 1 after
    spec = WindowSpec(mode="segmented", segments=4)
    with pytest.raises(error) as err:
        evolve(_short_windows(flat_window), spec, "te", bins=2, dt=2)
    assert str(err.value) == message


# ---------------------------------------------------------------- fan-out
# evolve estimates each block of windows as one kernels.fan_out task: two
# CPUs fork two workers, one CPU runs every block in-process, and both give
# the same bits and the same first error. 12 windows of 40 samples on 3
# assets, two windows to a block of 240 symbols, so six tasks.

def _fan_out_panel(flat=False):
    values = np.round(np.random.default_rng(21).normal(size=(480, 3)) * 0.01, 3)
    if flat:  # A1 constant in window 9, the second window of the fifth block
        values[360:400, 1] = 0.5
    return returns_of(values)


def _evolve_on(cpus, returns, measure, **kwargs):
    spec = WindowSpec(mode="segmented", segments=12)
    with mock.patch.object(kernels, "_cpus", lambda: cpus), mock.patch.object(windows, "_BLOCK_SYMBOLS", 240):
        return evolve(returns, spec, measure, bins=4, **kwargs)


def _assert_same_result(got, expected):
    assert len(got.values) == len(expected.values) == 12
    assert got.labels == expected.labels
    assert (got.directed, got.units) == (expected.directed, expected.units)
    for name in ("values", "bounds", "edges"):
        a, b = getattr(got, name), getattr(expected, name)
        if b is None:  # a measure that bins nothing
            assert a is None
            continue
        assert a.dtype == b.dtype and np.array_equal(a.view(np.int64), b.view(np.int64))
        assert not a.flags.writeable and not b.flags.writeable
    assert got.params == expected.params


@pytest.mark.parametrize("measure", ["mutual_information", "transfer_entropy", "correlation", "km_drift"])
def test_fanned_out_evolve_equals_in_process(measure):
    returns = _fan_out_panel()
    fanned, alone = (_evolve_on(cpus, returns, measure) for cpus in (2, 1))
    assert_no_child_process()
    assert (fanned.edges is None) == (alone.edges is None) == (measure not in ("mutual_information", "transfer_entropy"))
    _assert_same_result(fanned, alone)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("measure", ["mutual_information", "transfer_entropy"])
def test_evolve_of_a_block_whose_count_fails_is_its_per_window_loop(monkeypatch, measure, cpus):
    # a batched count that raises for every stack of more than one window
    # leaves each block to the per-window loop, which gives the same bits
    returns = _fan_out_panel()
    expected = _evolve_on(1, returns, measure)
    real = windows.binned_matrices

    def one_window_only(x, *args):
        if len(x) > returns.n_assets:
            raise EstimatorError("a stack of more than one window")
        return real(x, *args)

    monkeypatch.setattr(windows, "binned_matrices", one_window_only)
    _assert_same_result(_evolve_on(cpus, returns, measure), expected)
    assert_no_child_process()


def _no_memory(codes, size):
    raise MemoryError(f"cannot allocate {size} counts")


@pytest.mark.parametrize("case, error, message", [
    ("flat-later-block", DegenerateSeries, "transfer_entropy: window 9 [360:400): A1: all values equal"),
    ("lag", TooFewSamples, "transfer_entropy: window 0 [0:40): need at least dt + 2 = 41 samples, got 40"),
    # the rest of the message is that of compute_matrix on window 0 alone
    ("no-memory", EstimatorError, "transfer_entropy: window 0 [0:40): "),
    ("flat-corr", DegenerateSeries, "correlation: window 9 [360:400): A1: zero variance"),
    ("flat-km", EstimatorError, "km_drift: window 9 [360:400): condition inf above 1e+12; "),
])
def test_fanned_out_evolve_errors_equal_in_process(monkeypatch, case, error, message):
    # the first error of the in-process loop, raised in a worker and again,
    # from the rerun of its task, in the calling process
    returns, dt, measure = _fan_out_panel(flat=case.startswith("flat")), 1, message.split(":")[0]
    if case == "lag":
        dt = 39
    elif case == "no-memory":  # in every worker too
        monkeypatch.setattr(infoflow, "joint_counts", _no_memory)
        with pytest.raises(error) as err:
            compute_matrix(returns.window(0, 40), measure, bins=4)
        message += str(err.value)
    found = []
    for cpus in (2, 1):
        with pytest.raises(error) as err:
            _evolve_on(cpus, returns, measure, dt=dt)
        found.append(err.value)
    assert_no_child_process()
    fanned, alone = found
    assert str(fanned).startswith(message)
    assert type(fanned) is type(alone) and str(fanned) == str(alone)
    assert type(fanned.__cause__) is type(alone.__cause__)


@pytest.mark.parametrize("measure, spec, count", [
    ("km_drift", "sliding:50:2", 1476),  # 4.50 MiB of values
    ("transfer_entropy", "sliding:250:25", 111),  # 0.49 MiB of values and edges
])
def test_fanned_out_evolve_holds_no_copy_of_its_results_in_the_caller(monkeypatch, measure, spec, count):
    # the workers write the result arrays where the caller reads them, so the
    # caller's traced peak stays under their bytes (11.2 and 1.0 MiB when each
    # block's arrays came back pickled and were concatenated). Correlation is
    # left out: the symmetry check allocates about twice its values.
    # N=20, each asset driven by its own past and its neighbour's
    returns = gen_var1(0.3 * np.eye(20) + 0.2 * np.roll(np.eye(20), 1, axis=1), sigma=1.0, steps=3000, seed=24)
    monkeypatch.setattr(kernels, "_cpus", lambda: 2)
    tracemalloc.start()
    try:
        result = evolve(returns, WindowSpec.parse(spec), measure)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_no_child_process()
    assert len(result.values) == count
    assert peak < result.values.nbytes + (0 if result.edges is None else result.edges.nbytes)


def test_fanned_out_evolve_imports_no_multiprocessing():
    script = (
        "import sys\n"
        "from infodrift import evolve, gen_var1, kernels\n"
        "from infodrift.windows import WindowSpec\n"
        "kernels._cpus = lambda: 2\n"
        "returns = gen_var1([[0.5, 0.0], [0.1, 0.4]], sigma=1.0, steps=600, seed=3)\n"
        "assert len(evolve(returns, WindowSpec.parse('sliding:100:5'), 'te').values) == 101\n"
        "print('multiprocessing' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=child_pythonpath())
    found = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert found.returncode == 0, found.stderr
    assert found.stdout == "False\n"
