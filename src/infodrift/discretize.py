"""Discretization of real-valued series and empirical joint histograms.

Quantile binning is rank-based: a run of identical values (an atom) always
occupies the single bin that holds the midpoint of its rank range. For
atom-free data this reduces to an even split at the empirical quantiles, and
it degrades gracefully on heavily tied data (a fat atom lands where its mass
sits instead of emptying bins), which pure edge assignment cannot do. The
empirical quantile edges are still carried on the sequence for reporting,
its ``bins`` is one fewer than its edges, and its symbols are in [0, bins)
by ``check_symbols``, as every batched estimator's are. A ``JointHistogram``
stores only its counts; ``dims`` and ``total`` are their shape and sum.
Equal-width binning is edge-based and right-closed: interior-edge ties go to
the lower bin, the maximum goes to the top bin. Both rules are deterministic
across platforms.

``bin_windows`` bins many rows at once: every column of a full-sample run,
every window of every column for a windowed one. It works through the rows
in blocks of at most ``_BLOCK_VALUES`` values (or one row, when a row is
longer), each made contiguous. A block's quantile ranks come from one
``np.sort``: bin b starts at the rank ceil(b * n / bins), a value's bin is
the number of those starts whose sorted value it reaches (bins - 1
vectorised compares), and a tie run that spans a start is then given its
midpoint bin, one start at a time through boolean masks. Its quantile edges
come from one ``np.quantile`` call, on the sorted copy, where partitioning
is cheap, unless the block holds zeros of both signs: ``np.sort`` may write
a zero with the sign of another zero it compares equal to, and the quantile
of such a copy can then be -0.0 where that of the block is 0.0. Min and max
come from the block. Its equal-width edges come from one ``np.linspace``
call, and its symbols and edges go straight into the preallocated outputs,
so memory beyond the (rows, length) symbols is a few blocks (or rows)
however many rows there are. Each row is bit-identical to ``bin_series`` of
that row, which is its one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSeries, EmptyOverlap, LengthMismatch, TooFewSamples
from .kernels import joint_counts
from .matrices import freeze

STRATEGIES = ("quantile", "equal_width")

# Values binned at once by bin_windows: 256 KiB of float64. A longer row is
# binned alone, with two row-sized temporaries (its contiguous copy, where
# the row is strided, and its sorted copy) and a boolean mask.
_BLOCK_VALUES = 2**15


def check_symbols(symbols: np.ndarray, bins: int) -> None:
    """Refuse an int array holding a symbol outside [0, bins)."""
    if symbols.size and (symbols.min() < 0 or symbols.max() >= bins):
        raise ValueError("symbols out of range")


@dataclass(frozen=True, eq=False)
class SymbolSequence:
    """Integer symbols in [0, bins) plus the bins + 1 edges that produced them."""

    symbols: np.ndarray
    edges: np.ndarray

    def __post_init__(self):
        symbols = freeze(self, "symbols", np.int64)
        edges = freeze(self, "edges")
        if edges.ndim != 1 or len(edges) < 2:
            raise ValueError("edges must be 1-D with at least 2 entries")
        if np.any(np.diff(edges) < 0):
            raise ValueError("edges must be non-decreasing")
        check_symbols(symbols, self.bins)

    @property
    def bins(self) -> int:
        return len(self.edges) - 1

    def __len__(self) -> int:
        return len(self.symbols)


@dataclass(frozen=True, eq=False)
class JointHistogram:
    """Dense joint occurrence counts over symbol axes; ``dims`` is their shape, ``total`` their sum."""

    counts: np.ndarray

    def __post_init__(self):
        if freeze(self, "counts", np.int64).sum() <= 0:
            raise ValueError("total must be positive")

    @property
    def dims(self) -> tuple[int, ...]:
        return self.counts.shape

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def probabilities(self) -> np.ndarray:
        return self.counts / float(self.total)

    def marginal(self, keep_axes: tuple[int, ...]) -> "JointHistogram":
        """Sum out every axis not listed in keep_axes (order preserved)."""
        keep = tuple(keep_axes)
        drop = tuple(a for a in range(len(self.dims)) if a not in keep)
        counts = self.counts.sum(axis=drop) if drop else self.counts
        return JointHistogram(np.transpose(counts, axes=[sorted(keep).index(a) for a in keep]))


def _check_bins(bins: int, strategy: str) -> None:
    if bins < 2:
        raise ValueError("bins must be >= 2")
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}")


def _rank_bins(values: np.ndarray, ordered: np.ndarray, bins: int, out: np.ndarray) -> None:
    # out[k] gets row k's bins: bin of value v = floor((2s + L - 1) * bins / 2n),
    # s values of its row below v and L equal to it, so ties share their bin.
    # Bin b starts at rank r_b = ceil(b * n / bins); a value outside a tie run
    # that spans a start has bin #{b >= 1 : ordered[r_b] <= v}, and each such
    # run (ordered[r_b - 1] == ordered[r_b]) is given its own bin afterwards.
    n = values.shape[1]
    starts = -(-np.arange(1, bins) * n // bins)
    firsts = ordered[:, starts]  # (rows, bins - 1)
    out[:] = 0
    mask = np.empty(values.shape, dtype=bool)
    for b in range(bins - 1):
        np.greater_equal(values, firsts[:, b, np.newaxis], out=mask)
        out += mask
    tied = ordered[:, starts - 1] == firsts
    for b in np.flatnonzero(tied.any(axis=0)):
        # NaN equals nothing, so rows without a run across this start keep their bins
        v = np.where(tied[:, b], firsts[:, b], np.nan)[:, np.newaxis]
        below = np.count_nonzero(np.less(values, v, out=mask), axis=1)
        np.equal(values, v, out=mask)
        run_bins = (2 * below + np.count_nonzero(mask, axis=1) - 1) * bins // (2 * n)
        np.copyto(out, run_bins[:, np.newaxis], where=mask)


def bin_windows(values, bins: int, strategy: str = "quantile") -> tuple[np.ndarray, np.ndarray]:
    """Discretize each row of a (W, L) array as ``bin_series`` does one column.

    Returns the (W, L) int64 symbols and the (W, bins + 1) edges, row k being
    ``bin_series(values[k])`` bit for bit. The rows are binned in blocks of
    at most ``_BLOCK_VALUES`` values, or one row: each block is made
    contiguous, its quantile rows ranked from one ``np.sort`` and their edges
    taken from one ``np.quantile`` call, its equal-width edges from one
    ``np.linspace`` call, and its results written straight into the output.
    A non-finite value anywhere raises ValueError; then a row too short to
    bin raises TooFewSamples; then a constant row raises DegenerateSeries
    whose ``row`` is the first such row of ``values``.
    """
    _check_bins(bins, strategy)
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("values must be two-dimensional")
    rows, n = values.shape
    short = n < 2 or (strategy == "quantile" and n < bins)
    symbols = np.empty((rows, n), dtype=np.int64)
    edges = np.empty((rows, bins + 1))
    flat_row = None  # the first constant row
    per = max(1, _BLOCK_VALUES // max(n, 1))
    for a in range(0, rows, per):
        b = min(a + per, rows)
        # min and max of a strided row can differ from those of a contiguous
        # one in the sign of a zero, so every row is reduced from a contiguous block
        block = np.ascontiguousarray(values[a:b])
        if not np.isfinite(block).all():
            raise ValueError("column must be finite")
        if short or flat_row is not None:
            continue  # a later block may still be non-finite
        lo, hi = block.min(axis=1), block.max(axis=1)
        flat = np.flatnonzero(lo == hi)
        if flat.size:
            flat_row = a + int(flat[0])
            continue
        out = edges[a:b]
        if strategy == "quantile":
            ordered = np.sort(block, axis=1)
            # np.sort may write a zero with the sign of another zero it equals,
            # so the quantiles come from the sorted copy only where that cannot show
            zero_signs = np.signbit(block[block == 0])
            mixed = zero_signs.any() and not zero_signs.all()
            out[:] = np.quantile(block if mixed else ordered, np.arange(bins + 1) / bins, axis=1).T
            out[:, 0], out[:, -1] = lo, hi
            _rank_bins(block, ordered, bins, symbols[a:b])
        else:
            # np.linspace takes another route when any step underflows to zero, so
            # rows with such a (subnormal) span are spaced apart from the others
            tiny = (hi - lo) / bins == 0
            for part in (tiny, ~tiny):
                if part.any():
                    out[part] = np.linspace(lo[part], hi[part], bins + 1, axis=1)
            # right-closed bins: interior-edge ties fall into the lower bin
            for k in range(b - a):
                symbols[a + k] = np.searchsorted(out[k, 1:bins], block[k], side="left")
    if short:
        raise TooFewSamples(f"need at least {bins} samples for {strategy} binning, got {n}")
    if flat_row is not None:
        raise DegenerateSeries("all values equal", row=flat_row)
    return symbols, edges


def bin_series(column, bins: int, strategy: str = "quantile") -> SymbolSequence:
    """Discretize one real-valued column into ``bins`` symbols.

    quantile: rank-midpoint assignment (equal occupancy up to ties, every
    distinct value separable); the empirical k/bins quantiles travel along as
    the reported edges. equal_width: uniform edges over [min, max]; the
    maximum lands in the top bin. This is ``bin_windows`` on one row.
    """
    _check_bins(bins, strategy)
    values = np.asarray(column, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("column must be one-dimensional")
    symbols, edges = bin_windows(values[np.newaxis], bins, strategy)
    return SymbolSequence(symbols=symbols[0], edges=edges[0])


def aligned_length(lengths, lags) -> int:
    """Samples left when sequences of these lengths are aligned at these lags,
    checked in joint_histogram's order: lags >= 0, equal lengths, overlap."""
    if any(lag < 0 for lag in lags):
        raise ValueError("lags must be >= 0")
    length = lengths[0]
    if any(n != length for n in lengths):
        raise LengthMismatch(f"sequence lengths differ: {list(lengths)}")
    max_lag = max(lags)
    eff = length - max_lag
    if eff < 1:
        raise EmptyOverlap(f"no samples left after lag alignment (length {length}, max lag {max_lag})")
    return eff


def joint_histogram(seqs: list[SymbolSequence], lags: list[int]) -> JointHistogram:
    """Joint counts of lagged symbols.

    Axis m takes seq[m] delayed by lags[m] steps relative to the leading
    edge: with max lag M, sample t contributes the tuple
    (seq_0[t + M - lags[0]], ..., seq_k[t + M - lags[k]]) for
    t = 0 .. T-1-M. lags [0, 1] over one sequence therefore count the pairs
    (x_{t+1}, x_t).
    """
    if len(seqs) != len(lags):
        raise ValueError("one lag per sequence required")
    if not seqs:
        raise ValueError("at least one sequence required")
    eff = aligned_length([len(s) for s in seqs], lags)
    max_lag = max(lags)

    dims = tuple(s.bins for s in seqs)
    codes = np.zeros(eff, dtype=np.int64)
    for seq, lag in zip(seqs, lags):
        offset = max_lag - lag
        codes *= seq.bins
        codes += seq.symbols[offset : offset + eff]
    counts = joint_counts(codes, int(np.prod(dims)))
    return JointHistogram(counts.reshape(dims))
