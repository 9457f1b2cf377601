import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infodrift import (
    entropy,
    infoflow,
    kernels,
    joint_histogram,
    mi_matrix,
    mutual_information,
    surrogate_floor,
    te_floor_matrix,
    te_matrix,
    transfer_entropy,
)
from infodrift.discretize import JointHistogram, SymbolSequence
from infodrift.errors import EmptyOverlap, EstimatorError, LengthMismatch, TooFewSamples
from infodrift.infoflow import self_conditional_entropy
from infodrift.synth import binary_entropy, gen_coupled_binary

from conftest import assert_no_child_process


def seq_of(symbols, bins):
    edges = np.arange(bins + 1, dtype=float) - 0.5
    return SymbolSequence(symbols=np.asarray(symbols, dtype=np.int64), edges=edges)


def hist_of(counts):
    return JointHistogram(np.asarray(counts, dtype=np.int64))


# ---------------------------------------------------------------- oracles
# Independent plug-in implementations: dict counting and scalar math.log2
# over probabilities, no shared code with the production path.

def brute_mi(x, y):
    n = len(x)
    joint = Counter(zip(x, y))
    px = Counter(x)
    py = Counter(y)
    total = 0.0
    for (a, b), c in joint.items():
        p_ab = c / n
        total += p_ab * math.log2(p_ab / ((px[a] / n) * (py[b] / n)))
    return total


def brute_te(src, tgt, dt=1):
    n = len(tgt) - dt
    triples = Counter((tgt[t + dt], tgt[t], src[t]) for t in range(n))
    pair_ps = Counter((tgt[t], src[t]) for t in range(n))
    pair_fp = Counter((tgt[t + dt], tgt[t]) for t in range(n))
    past = Counter(tgt[t] for t in range(n))
    total = 0.0
    for (a, b, c), cnt in triples.items():
        p_abc = cnt / n
        cond_full = (cnt / n) / (pair_ps[(b, c)] / n)
        cond_own = (pair_fp[(a, b)] / n) / (past[b] / n)
        total += p_abc * math.log2(cond_full / cond_own)
    return total


# ---------------------------------------------------------------- entropy

def test_entropy_uniform_two_cells():
    assert entropy(hist_of([2, 2])) == 1.0


def test_entropy_single_cell():
    assert entropy(hist_of([5])) == 0.0


def test_entropy_three_one_split():
    expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    assert entropy(hist_of([3, 1])) == pytest.approx(expected, abs=1e-12)
    assert entropy(hist_of([3, 1])) == pytest.approx(0.8113, abs=5e-5)


# ---------------------------------------------------------------- MI

def test_mi_of_identical_sequence_is_entropy():
    rng = np.random.default_rng(10)
    x = seq_of(rng.integers(0, 4, size=500), 4)
    h = entropy(joint_histogram([x], lags=[0]))
    assert mutual_information(x, x) == pytest.approx(h, abs=1e-12)


def test_mi_product_structure_exactly_zero():
    x = seq_of([0, 0, 1, 1], 2)
    y = seq_of([0, 1, 0, 1], 2)
    assert mutual_information(x, y) == 0.0


def test_mi_length_mismatch():
    with pytest.raises(LengthMismatch):
        mutual_information(seq_of([0, 1], 2), seq_of([0, 1, 1], 2))


@given(
    st.lists(st.integers(0, 3), min_size=4, max_size=50),
    st.lists(st.integers(0, 2), min_size=4, max_size=50),
)
@settings(max_examples=80, deadline=None)
def test_mi_matches_brute_force_and_is_symmetric(a, b):
    n = min(len(a), len(b))
    x, y = seq_of(a[:n], 4), seq_of(b[:n], 3)
    mi = mutual_information(x, y)
    assert mi >= 0.0
    assert mi == pytest.approx(brute_mi(tuple(a[:n]), tuple(b[:n])), abs=1e-12)
    assert mi == pytest.approx(mutual_information(y, x), abs=1e-12)


# ---------------------------------------------------------------- TE

def test_te_deterministic_target_exactly_zero():
    target = seq_of([0, 1] * 100, 2)
    rng = np.random.default_rng(11)
    source = seq_of(rng.integers(0, 2, size=200), 2)
    assert transfer_entropy(source, target) == 0.0


def test_te_shifted_source_one_bit():
    rng = np.random.default_rng(12)
    coin = rng.integers(0, 2, size=1001)
    tgt = seq_of(coin[:-1], 2)
    src = seq_of(coin[1:], 2)  # src_t = tgt_{t+1}
    te = transfer_entropy(src, tgt)
    assert te == pytest.approx(brute_te(tuple(coin[1:]), tuple(coin[:-1])), abs=1e-12)
    assert te == pytest.approx(1.0, abs=0.02)
    # reverse direction carries no information beyond the bias floor
    assert transfer_entropy(tgt, src) < 0.02


def test_te_needs_enough_samples():
    with pytest.raises(TooFewSamples):
        transfer_entropy(seq_of([0, 1], 2), seq_of([1, 0], 2))


@given(
    st.lists(st.integers(0, 2), min_size=6, max_size=50),
    st.lists(st.integers(0, 2), min_size=6, max_size=50),
    st.integers(1, 2),
)
@settings(max_examples=80, deadline=None)
def test_te_matches_brute_force_and_nonnegative(a, b, dt):
    n = min(len(a), len(b))
    if n < dt + 2:
        return
    src, tgt = seq_of(a[:n], 3), seq_of(b[:n], 3)
    te = transfer_entropy(src, tgt, dt=dt)
    assert te >= 0.0
    assert te == pytest.approx(brute_te(tuple(a[:n]), tuple(b[:n]), dt), abs=1e-12)


def test_te_coupled_binary_analytic():
    x, y = gen_coupled_binary(0.1, 30000, seed=21)
    assert transfer_entropy(x, y) == pytest.approx(1 - binary_entropy(0.1), abs=0.02)
    assert transfer_entropy(y, x) < 0.005


def test_te_coupled_binary_eps_zero_and_half():
    x, y = gen_coupled_binary(0.0, 5000, seed=22)
    assert transfer_entropy(x, y) == pytest.approx(1.0, abs=0.02)
    x, y = gen_coupled_binary(0.5, 5000, seed=23)
    assert transfer_entropy(x, y) < 0.005


def test_surrogate_floor_tracks_bias():
    x, y = gen_coupled_binary(0.5, 20000, seed=24)  # independent pair
    te = transfer_entropy(x, y)
    floor = surrogate_floor(x, y, shuffles=10, seed=1)
    assert floor < 0.005
    assert te < 0.005
    # shuffling a genuinely coupled source destroys the flow
    x, y = gen_coupled_binary(0.05, 20000, seed=25)
    assert surrogate_floor(x, y, shuffles=5, seed=2) < 0.01 < transfer_entropy(x, y)


# ---------------------------------------------------------------- matrices

def test_te_matrix_independent_sequences_small_offdiag():
    rng = np.random.default_rng(13)
    seqs = [seq_of(rng.integers(0, 2, size=20000), 2) for _ in range(2)]
    m = te_matrix(seqs)
    off = m.off_diagonal()
    assert np.all(off <= 0.01)
    assert m.directed
    assert m.units == "bits"


def test_te_matrix_orientation():
    # x drives y: strong entry must sit at values[target=y][source=x]
    x, y = gen_coupled_binary(0.05, 20000, seed=26)
    m = te_matrix([x, y], asset_ids=("x", "y"))
    assert m.values[1, 0] > 0.5
    assert m.values[0, 1] < 0.01


def test_te_matrix_single_sequence():
    rng = np.random.default_rng(14)
    s = seq_of(rng.integers(0, 2, size=500), 2)
    m = te_matrix([s])
    assert m.values.shape == (1, 1)
    assert m.values[0, 0] == pytest.approx(self_conditional_entropy(s), abs=1e-12)


def test_mi_matrix_diagonal_is_entropy():
    rng = np.random.default_rng(15)
    seqs = [seq_of(rng.integers(0, 4, size=400), 4) for _ in range(3)]
    m = mi_matrix(seqs, asset_ids=("a", "b", "c"))
    assert not m.directed
    for i, s in enumerate(seqs):
        assert m.values[i, i] == pytest.approx(entropy(joint_histogram([s], lags=[0])), abs=1e-12)
    assert np.array_equal(m.values, m.values.T)
    assert np.all(m.off_diagonal() >= 0)


# ---------------------------------------------------------------- batched matrices
# The matrix builders count all sources of a target at once; the per-pair
# functions are their oracles, and the values must agree bit for bit
# (view(int64) also tells -0.0 from 0.0).

def pairwise_te(seqs, dt):
    n = len(seqs)
    values = np.zeros((n, n))
    for i in range(n):
        values[i, i] = self_conditional_entropy(seqs[i], dt=dt)
        for j in range(n):
            if i != j:
                values[i, j] = transfer_entropy(seqs[j], seqs[i], dt=dt)
    return values


def pairwise_mi(seqs):
    n = len(seqs)
    values = np.zeros((n, n))
    for i in range(n):
        values[i, i] = entropy(joint_histogram([seqs[i]], lags=[0]))
        for j in range(i + 1, n):
            values[i, j] = values[j, i] = mutual_information(seqs[i], seqs[j])
    return values


def pairwise_floor(seqs, dt, shuffles, seed):
    n = len(seqs)
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                ss = np.random.SeedSequence(entropy=seed, spawn_key=(i, j))
                values[i, j] = surrogate_floor(seqs[j], seqs[i], dt=dt, shuffles=shuffles, seed=ss)
    return values


def stacked(seqs):
    """te_floor_matrix's (symbols, bins) of the sequences."""
    return np.stack([s.symbols for s in seqs]), max(s.bins for s in seqs)


def assert_bits_equal(a, b):
    assert np.array_equal(a.view(np.int64), b.view(np.int64)), (a, b)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_batched_matrices_equal_per_pair_oracles_bit_for_bit(data):
    n = data.draw(st.integers(1, 6), label="n")
    dt = data.draw(st.integers(1, 3), label="dt")
    length = data.draw(st.integers(dt + 2, 300), label="length")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    seqs = []
    for _ in range(n):
        bins = data.draw(st.integers(2, 5))
        used = data.draw(st.integers(1, bins))  # fewer symbols than bins: ties and empty cells
        seqs.append(seq_of(rng.integers(0, used, size=length), bins))
    assert_bits_equal(te_matrix(seqs, dt=dt).values, pairwise_te(seqs, dt))
    assert_bits_equal(mi_matrix(seqs).values, pairwise_mi(seqs))
    shuffles = data.draw(st.integers(1, 4), label="shuffles")
    floor = te_floor_matrix(*stacked(seqs), dt=dt, shuffles=shuffles, seed=7).values
    assert_bits_equal(floor, pairwise_floor(seqs, dt, shuffles, seed=7))


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_window_te_matrices_equal_per_pair_oracles_bit_for_bit(data):
    # the evolve shape: several windows at 6-8 bins and 150-300 samples, so
    # many rows have more than the 128 nonzero cells at which numpy's
    # pairwise sum splits in two
    bins = data.draw(st.integers(6, 8), label="bins")
    length = data.draw(st.integers(150, 300), label="length")
    n = data.draw(st.integers(2, 4), label="n")
    windows = data.draw(st.integers(2, 4), label="windows")
    dt = data.draw(st.integers(1, 2), label="dt")
    used = data.draw(st.integers(bins - 1, bins), label="used")  # an unused bin leaves empty cells
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    symbols = rng.integers(0, used, size=(windows, n, length))
    for win, values in zip(symbols, infoflow.te_matrices(symbols, bins, dt=dt)):
        assert_bits_equal(values, pairwise_te([seq_of(s, bins) for s in win], dt))


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_window_mi_matrices_equal_per_pair_oracles_bit_for_bit(data):
    # 12-16 bins give an MI row up to 256 cells, so many rows have more
    # than the 128 nonzero cells at which numpy's pairwise sum splits in two
    bins = data.draw(st.integers(12, 16), label="bins")
    length = data.draw(st.integers(300, 600), label="length")
    n = data.draw(st.integers(2, 4), label="n")
    windows = data.draw(st.integers(2, 4), label="windows")
    used = data.draw(st.integers(bins - 1, bins), label="used")  # an unused bin leaves empty cells
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    symbols = rng.integers(0, used, size=(windows, n, length))
    for win, values in zip(symbols, infoflow.mi_matrices(symbols, bins)):
        assert_bits_equal(values, pairwise_mi([seq_of(s, bins) for s in win]))


def _seqs(*lengths):
    rng = np.random.default_rng(16)
    return [seq_of(rng.integers(0, 3, size=t), 3) for t in lengths]


def _refused(message):
    """An oracle for a floor input that no per-pair call can be given."""
    def oracle():
        raise ValueError(message)
    return oracle


@pytest.mark.parametrize("build, oracle, error", [
    (lambda: te_matrix(_seqs(10, 10), dt=0),
     lambda: transfer_entropy(*_seqs(10, 10), dt=0), ValueError),
    (lambda: te_matrix(_seqs(10, 10, 12)),
     lambda: transfer_entropy(*_seqs(12, 10)), LengthMismatch),
    (lambda: te_matrix(_seqs(4, 4), dt=3),
     lambda: transfer_entropy(*_seqs(4, 4), dt=3), TooFewSamples),
    (lambda: te_matrix(_seqs(4, 4), dt=4),
     lambda: self_conditional_entropy(_seqs(4)[0], dt=4), EmptyOverlap),
    (lambda: te_floor_matrix(*stacked(_seqs(10, 10)), dt=0),
     lambda: surrogate_floor(*_seqs(10, 10), dt=0), ValueError),
    (lambda: te_floor_matrix(*stacked(_seqs(10, 10)), shuffles=0),
     lambda: surrogate_floor(*_seqs(10, 10), shuffles=0), ValueError),
    (lambda: te_floor_matrix(_seqs(10)[0].symbols, 3),
     _refused("symbols must be (assets, samples), got shape (10,)"), ValueError),
    (lambda: te_floor_matrix(np.zeros((2, 2, 10), dtype=np.int64), 3),
     _refused("symbols must be (assets, samples), got shape (2, 2, 10)"), ValueError),
    (lambda: te_floor_matrix(np.array([[0, 1, 2, 0], [1, 3, 0, 2]]), 3),
     lambda: seq_of([1, 3, 0, 2], 3), ValueError),
    (lambda: te_floor_matrix(np.array([[0, 1, 2, 0], [1, -1, 0, 2]]), 3),
     lambda: seq_of([1, -1, 0, 2], 3), ValueError),
    (lambda: infoflow.te_matrices([np.array([[0, 1, 2, 0], [1, 3, 0, 2], [2, 0, 1, 1]])], 3),
     lambda: seq_of([1, 3, 0, 2], 3), ValueError),
    (lambda: infoflow.mi_matrices([np.array([[0, 1, 2, 0], [1, -1, 0, 2], [2, 0, 1, 1]])], 3),
     lambda: seq_of([1, -1, 0, 2], 3), ValueError),
    (lambda: mi_matrix(_seqs(10, 10, 9)),
     lambda: mutual_information(*_seqs(10, 9)), LengthMismatch),
    (lambda: mi_matrix(_seqs(1, 1)),
     lambda: mutual_information(*_seqs(1, 1)), LengthMismatch),
], ids=["te-dt0", "te-lengths", "te-short", "te-no-overlap", "floor-dt0", "floor-no-shuffles",
        "floor-1d", "floor-3d", "floor-above-bins", "floor-below-0", "te-above-bins", "mi-below-0",
        "mi-lengths", "mi-short"])
def test_matrix_input_errors_are_the_per_pair_errors(build, oracle, error):
    with pytest.raises(error) as expected:
        oracle()
    with pytest.raises(error) as got:
        build()
    assert str(got.value) == str(expected.value)


def test_single_sequence_matrices_have_no_pairs():
    s = _seqs(50)
    assert te_matrix(s, dt=2).values[0, 0] == self_conditional_entropy(s[0], dt=2)
    assert mi_matrix(s).values[0, 0] == entropy(joint_histogram(s, lags=[0]))
    assert te_floor_matrix(*stacked(s), shuffles=0).values.tolist() == [[0.0]]


def test_floor_counts_the_given_symbols_where_they_lie(monkeypatch):
    seen = []
    target_counts = infoflow._target_counts

    def recording(sym, *args):
        seen.append(sym)
        return target_counts(sym, *args)

    monkeypatch.setattr(infoflow, "_target_counts", recording)
    symbols, bins = stacked(_seqs(10, 10, 10))
    te_floor_matrix(symbols, bins, shuffles=1)
    assert len(seen) == 1 and seen[0] is symbols


@pytest.fixture
def code_counts(monkeypatch):
    """The number of codes of every infoflow joint_counts call, in call order.

    Counts run in-process: a worker's calls would not reach the recorder.
    """
    monkeypatch.setattr(kernels, "_cpus", lambda: 1)
    sizes = []
    real = infoflow.joint_counts

    def recording(codes, size):
        sizes.append(len(codes))
        return real(codes, size)

    monkeypatch.setattr(infoflow, "joint_counts", recording)
    return sizes


def test_batched_counts_stay_under_the_code_cap(code_counts):
    # the cap keeps peak memory near the per-pair code's; a 10^5-sample row
    # is counted in time chunks, which must not change a bit
    rng = np.random.default_rng(17)
    seqs = [seq_of(rng.integers(0, 8, size=100_000), 8) for _ in range(3)]
    assert_bits_equal(te_matrix(seqs).values, pairwise_te(seqs, 1))
    assert_bits_equal(mi_matrix(seqs).values, pairwise_mi(seqs))
    short = [seq_of(rng.integers(0, 8, size=250), 8) for _ in range(3)]
    te_floor_matrix(*stacked(short), shuffles=100)
    # a 40,000-sample floor row has one shuffle per count, counted in time chunks
    long = [seq_of(rng.integers(0, 8, size=40_000), 8) for _ in range(3)]
    assert_bits_equal(te_floor_matrix(*stacked(long), shuffles=3).values, pairwise_floor(long, 1, 3, seed=0))
    assert code_counts and max(code_counts) <= infoflow._MAX_CODES


@pytest.mark.parametrize("dt", [1, 3])
def test_floor_drawn_over_several_counts_equals_the_per_pair_oracle(code_counts, dt):
    # 32 shuffles of a 250-sample row fill one count at B=8, so 70 take three;
    # each count's shuffles are drawn in place, one row after another. The
    # 5-bin sequence is counted at the stack's 8 bins.
    rng = np.random.default_rng(23)
    seqs = [seq_of(rng.integers(0, 8, size=250), 8) for _ in range(3)]
    seqs.append(seq_of(rng.integers(0, 5, size=250), 5))
    floor = te_floor_matrix(*stacked(seqs), dt=dt, shuffles=70, seed=5).values
    assert_bits_equal(floor, pairwise_floor(seqs, dt, 70, seed=5))
    assert len(code_counts) > 6 and max(code_counts) <= infoflow._MAX_CODES


def test_floor_memory_of_a_target_row(monkeypatch):
    # a count holds 6 shuffles of a 2,600-sample row at B=8, and a task keeps
    # three buffers of one count's size: its shuffles, its codes and the
    # target's code for each row. Drawing all 100 shuffles of a pair at once
    # holds at least 2 MiB, and fails.
    monkeypatch.setattr(kernels, "_cpus", lambda: 1)
    rng = np.random.default_rng(25)
    symbols = rng.integers(0, 8, size=(3, 2600))
    te_floor_matrix(symbols[:, :100], 8, shuffles=2)
    per = infoflow._per_count(2599, 8**3)
    tracemalloc.start()
    try:
        te_floor_matrix(symbols, 8, shuffles=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert per == 6
    assert peak <= 6 * per * 2600 * 8, peak  # 732 KiB


def test_window_te_matrix_shares_counts_across_targets(code_counts):
    # an N=20 window of 250 samples at B=8: the 20 targets' (future, past)
    # counts in one count, which also give every TE row its target marginals,
    # then the 380 ordered pairs 32 rows (2**14 cells) at a time, so a count
    # holds the rows of two or three targets (19 rows each)
    rng = np.random.default_rng(18)
    seqs = [seq_of(rng.integers(0, 8, size=250), 8) for _ in range(20)]
    te_matrix(seqs)
    assert code_counts == [20 * 249] + [32 * 249] * 11 + [28 * 249]


def test_fanned_out_floor_equals_in_process(monkeypatch):
    # one target row per fan_out task: two CPUs fork two workers, one CPU
    # counts every row in-process, and the bits are the same
    rng = np.random.default_rng(22)
    seqs = [seq_of(rng.integers(0, 4, size=120), 4) for _ in range(4)]
    found = []
    for cpus in (2, 1):
        monkeypatch.setattr(kernels, "_cpus", lambda cpus=cpus: cpus)
        found.append(te_floor_matrix(*stacked(seqs), shuffles=7, seed=3))
    assert_no_child_process()
    fanned, alone = found
    assert_bits_equal(fanned.values, alone.values)
    assert_bits_equal(fanned.values, pairwise_floor(seqs, 1, 7, seed=3))
    assert not fanned.values.flags.writeable


def test_count_allocation_failure_is_an_estimator_error(monkeypatch):
    # a count too large to allocate names the bins and the cells it needed
    def no_memory(codes, size):
        raise MemoryError(f"cannot allocate {size} counts")

    monkeypatch.setattr(infoflow, "joint_counts", no_memory)
    for build in (lambda s: te_matrix(s), mi_matrix, lambda s: te_floor_matrix(*stacked(s), shuffles=2)):
        with pytest.raises(EstimatorError, match=r"^bins 3: a count of [\d,]+ histogram cells does not fit in memory$"):
            build(_seqs(10, 10))
