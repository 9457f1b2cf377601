"""Discretization of real-valued series and empirical joint histograms.

Quantile binning is rank-based: a run of identical values (an atom) always
occupies the single bin that holds the midpoint of its rank range. For
atom-free data this reduces to an even split at the empirical quantiles, and
it degrades gracefully on heavily tied data (a fat atom lands where its mass
sits instead of emptying bins), which pure edge assignment cannot do. The
empirical quantile edges are still carried on the sequence for reporting.
Equal-width binning is edge-based and right-closed: interior-edge ties go to
the lower bin, the maximum goes to the top bin. Both rules are deterministic
across platforms.

``bin_windows`` bins many rows at once (every window of every column for a
windowed run): quantile ranks come from one argsort, quantile edges from one
``np.quantile`` and equal-width edges from one ``np.linspace`` call, each row
bit-identical to ``bin_series`` of that row, which is its one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSeries, EmptyOverlap, LengthMismatch, TooFewSamples
from .kernels import joint_counts

STRATEGIES = ("quantile", "equal_width")


@dataclass(frozen=True, eq=False)
class SymbolSequence:
    """Integer symbols in [0, bins) plus the bin edges that produced them."""

    symbols: np.ndarray
    bins: int
    edges: np.ndarray

    def __post_init__(self):
        symbols = np.asarray(self.symbols, dtype=np.int64)
        edges = np.asarray(self.edges, dtype=np.float64)
        if self.bins < 1:
            raise ValueError("bins must be >= 1")
        if len(edges) != self.bins + 1:
            raise ValueError("edges must have bins + 1 entries")
        if np.any(np.diff(edges) < 0):
            raise ValueError("edges must be non-decreasing")
        if symbols.size and (symbols.min() < 0 or symbols.max() >= self.bins):
            raise ValueError("symbols out of range")
        symbols.flags.writeable = False
        edges.flags.writeable = False
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "edges", edges)

    def __len__(self) -> int:
        return len(self.symbols)


@dataclass(frozen=True, eq=False)
class JointHistogram:
    """Dense joint occurrence counts over one or more symbol axes."""

    dims: tuple[int, ...]
    counts: np.ndarray
    total: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != self.dims:
            raise ValueError(f"counts shape {counts.shape} != dims {self.dims}")
        if self.total <= 0:
            raise ValueError("total must be positive")
        if counts.sum() != self.total:
            raise ValueError("counts do not sum to total")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    def probabilities(self) -> np.ndarray:
        return self.counts / float(self.total)

    def marginal(self, keep_axes: tuple[int, ...]) -> "JointHistogram":
        """Sum out every axis not listed in keep_axes (order preserved)."""
        keep = tuple(keep_axes)
        drop = tuple(a for a in range(len(self.dims)) if a not in keep)
        counts = self.counts.sum(axis=drop) if drop else self.counts
        counts = np.transpose(counts, axes=[sorted(keep).index(a) for a in keep])
        return JointHistogram(
            dims=tuple(self.dims[a] for a in keep),
            counts=counts,
            total=self.total,
        )


def _check_bins(bins: int, strategy: str) -> None:
    if bins < 2:
        raise ValueError("bins must be >= 2")
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}")


def _rank_bins(values: np.ndarray, bins: int) -> np.ndarray:
    # bin of value v = floor(mid_rank(v) * bins / n) within its row, ties
    # share their bin; integer arithmetic on doubled ranks keeps the floor
    # exact. Tied values get one bin whatever their order, so any sort will do.
    rows, n = values.shape
    order = np.argsort(values, axis=1)
    ordered = np.take_along_axis(values, order, axis=1)
    first = np.ones((rows, n), dtype=bool)  # first of its tie run
    first[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    del ordered
    first = first.ravel()
    starts = np.flatnonzero(first)  # every row starts a run
    counts = np.diff(starts, append=first.size)
    run_bins = ((2 * (starts % n) + counts - 1) * bins) // (2 * n)
    symbols = np.empty((rows, n), dtype=np.int64)
    np.put_along_axis(symbols, order, run_bins[np.cumsum(first) - 1].reshape(rows, n), axis=1)
    return symbols


def bin_windows(values, bins: int, strategy: str = "quantile") -> tuple[np.ndarray, np.ndarray]:
    """Discretize each row of a (W, L) array as ``bin_series`` does one column.

    Returns the (W, L) int64 symbols and the (W, bins + 1) edges, row k being
    ``bin_series(values[k])`` bit for bit: quantile rows are ranked by one
    argsort and their edges come from one ``np.quantile`` call; equal-width
    edges come from one ``np.linspace`` call. A row too short to bin raises
    TooFewSamples; a constant row raises DegenerateSeries whose ``row`` is
    the first such row.
    """
    _check_bins(bins, strategy)
    # min and max of a strided row can differ from those of a contiguous one
    # in the sign of a zero, so every row is reduced from one contiguous layout
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("values must be two-dimensional")
    if not np.all(np.isfinite(values)):
        raise ValueError("column must be finite")
    rows, n = values.shape
    if n < 2 or (strategy == "quantile" and n < bins):
        raise TooFewSamples(f"need at least {bins} samples for {strategy} binning, got {n}")
    lo, hi = values.min(axis=1), values.max(axis=1)
    flat = np.flatnonzero(lo == hi)
    if flat.size:
        raise DegenerateSeries("all values equal", row=int(flat[0]))

    if strategy == "quantile":
        edges = np.quantile(values, np.arange(bins + 1) / bins, axis=1).T
        edges[:, 0], edges[:, -1] = lo, hi
        return _rank_bins(values, bins), edges
    edges = np.empty((rows, bins + 1))
    # np.linspace takes another route when any step underflows to zero, so
    # rows with such a (subnormal) span are spaced apart from the others
    tiny = (hi - lo) / bins == 0
    for part in (tiny, ~tiny):
        if part.any():
            edges[part] = np.linspace(lo[part], hi[part], bins + 1, axis=1)
    # right-closed bins: interior-edge ties fall into the lower bin
    symbols = np.empty((rows, n), dtype=np.int64)
    for k in range(rows):
        symbols[k] = np.searchsorted(edges[k, 1:bins], values[k], side="left")
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
    return SymbolSequence(symbols=symbols[0], bins=bins, edges=edges[0])


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
    return JointHistogram(dims=dims, counts=counts.reshape(dims), total=eff)
