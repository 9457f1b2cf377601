"""Time-resolved analysis over sliding or segmented windows.

Segmented mode splits the sample into K contiguous blocks covering it
exactly, the leftover T mod K samples going one apiece to the first blocks.
Sliding mode steps a fixed-length window by a fixed stride while it fits.
Window boundaries depend only on the sample count and the spec, never on the
data. Quantile bin edges are re-fitted inside each window because the series
cannot be assumed stationary; the choice is recorded in the result metadata.

``evolve`` is the windowed driver. Correlation and km_drift bin nothing, so
it calls ``compute_matrix`` once per window. For MI and TE it rank-bins
every window of every column with one ``bin_windows`` call per block of
windows and counts all their rows through ``mi_matrices``/``te_matrices``.
Each window's matrix is bit-identical to ``compute_matrix`` on that window,
which a single-window evolve therefore equals too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .discretize import bin_windows
from .errors import DegenerateSeries, EstimatorError, TooFewSamples, WindowTooLarge
from .infoflow import mi_matrices, te_matrices
from .measures import ENTROPY_MEASURES, canonical_measure, compute_matrix, with_bins
from .stats import ReturnsMatrix

# Symbols binned at once by evolve: 256 KiB of int64, six windows at the
# pipeline benchmark's evolve-sliding shape (N=20, 456 windows of 250), whose
# whole run peaks near 56 MB. Blocks of 2**17 symbols raised that peak by
# 1 MB and of 2**18 by 5 MB, at the same speed.
_BLOCK_SYMBOLS = 2**15


@dataclass(frozen=True)
class WindowSpec:
    mode: str  # sliding | segmented
    length: int | None = None
    stride: int | None = None
    segments: int | None = None

    def __post_init__(self):
        if self.mode == "sliding":
            if not self.length or self.length < 1:
                raise ValueError("sliding windows need length >= 1")
            if not self.stride or self.stride < 1:
                raise ValueError("sliding windows need stride >= 1")
        elif self.mode == "segmented":
            if not self.segments or self.segments < 1:
                raise ValueError("segmented windows need segments >= 1")
        else:
            raise ValueError(f"mode must be 'sliding' or 'segmented', got {self.mode!r}")

    @classmethod
    def parse(cls, text: str) -> "WindowSpec":
        """Parse 'segmented:K' or 'sliding:LENGTH:STRIDE'."""
        parts = text.strip().split(":")
        try:
            if parts[0] == "segmented" and len(parts) == 2:
                return cls(mode="segmented", segments=int(parts[1]))
            if parts[0] == "sliding" and len(parts) == 3:
                return cls(mode="sliding", length=int(parts[1]), stride=int(parts[2]))
        except ValueError:
            pass
        raise ValueError(f"bad window spec {text!r}; use segmented:K or sliding:LENGTH:STRIDE")

    def describe(self) -> dict:
        if self.mode == "sliding":
            return {"mode": "sliding", "length": self.length, "stride": self.stride}
        return {"mode": "segmented", "segments": self.segments}


@dataclass(frozen=True, eq=False)
class WindowedResult:
    """Ordered per-window matrices for one measure."""

    measure: str
    entries: tuple  # ((start_label, end_label, start_idx, end_idx, InteractionMatrix), ...)
    spec: WindowSpec
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.entries:
            raise ValueError("windowed result cannot be empty")


def make_windows(t: int, spec: WindowSpec) -> list[tuple[int, int]]:
    """Half-open index windows [start, end) within [0, t)."""
    if spec.mode == "segmented":
        k = spec.segments
        if t < k:
            raise WindowTooLarge(f"{k} segments need at least {k} samples, got {t}")
        base, extra = divmod(t, k)
        out, start = [], 0
        for i in range(k):
            size = base + (1 if i < extra else 0)
            out.append((start, start + size))
            start += size
        return out
    if spec.length > t:
        raise WindowTooLarge(f"window length {spec.length} exceeds sample count {t}")
    return [(s, s + spec.length) for s in range(0, t - spec.length + 1, spec.stride)]


def _labels(returns: ReturnsMatrix, start: int, end: int) -> tuple[str, str]:
    if returns.dates is not None:
        return returns.dates[start].isoformat(), returns.dates[end - 1].isoformat()
    return str(start), str(end - 1)


def _blocks(windows, n_assets: int):
    """Runs of consecutive equal-length windows as ((idx, start, end), ...),
    each holding at most _BLOCK_SYMBOLS symbols, or one window."""
    block = []
    for idx, (start, end) in enumerate(windows):
        length = end - start
        if block and (length != block[0][2] - block[0][1]
                      or (len(block) + 1) * n_assets * length > _BLOCK_SYMBOLS):
            yield block
            block = []
        block.append((idx, start, end))
    if block:
        yield block


def evolve(
    returns: ReturnsMatrix,
    spec: WindowSpec,
    measure: str,
    bins: int = 8,
    strategy: str = "quantile",
    dt: int = 1,
    step_duration: float = 1.0,
    ridge: float = 0.0,
) -> WindowedResult:
    """Apply one estimator per window; estimator parameters stay fixed.

    Each window's matrix equals ``compute_matrix`` on
    ``returns.window(start, end)`` bit for bit. An estimator failure or
    too-short window is the first error the per-window loop met, re-raised
    naming the measure and the window (and, for a constant column, the asset).
    """
    measure = canonical_measure(measure)
    windows = make_windows(returns.n_samples, spec)
    n = returns.n_assets

    def estimate(x):
        """Matrices of the windows whose columns are the rows of x, window-major."""
        symbols, edges = bin_windows(x, bins, strategy)
        symbols = symbols.reshape(-1, n, x.shape[1])
        if measure == "mutual_information":
            found = mi_matrices(symbols, bins, asset_ids=returns.asset_ids)
        else:
            found = te_matrices(symbols, bins, dt=dt, asset_ids=returns.asset_ids)
        edges = edges.tolist()
        return [with_bins(m, bins, strategy, edges[w * n : (w + 1) * n]) for w, m in enumerate(found)]

    matrices = []
    try:
        if measure not in ENTROPY_MEASURES:
            for idx, (start, end) in enumerate(windows):
                matrices.append(compute_matrix(
                    returns.window(start, end), measure, bins=bins, strategy=strategy, dt=dt,
                    step_duration=step_duration, ridge=ridge,
                ))
        else:
            for block in _blocks(windows, n):
                idx, start, end = block[0]
                x = np.stack([returns.values[s:e].T for _, s, e in block]).reshape(len(block) * n, end - start)
                try:
                    matrices += estimate(x)
                except DegenerateSeries as e:  # from bin_windows, which names the row
                    w, k = divmod(e.row, n)
                    if w:  # the per-window loop estimated the block's first window before binning this one
                        estimate(x[:n])
                    idx, start, end = block[w]
                    raise DegenerateSeries(f"{returns.asset_ids[k]}: {e}") from e
    except (EstimatorError, TooFewSamples) as e:
        raise type(e)(f"{measure}: window {idx} [{start}:{end}): {e}") from e
    entries = tuple(
        (*_labels(returns, start, end), start, end, matrix)
        for (start, end), matrix in zip(windows, matrices)
    )
    return WindowedResult(
        measure=measure,
        entries=entries,
        spec=spec,
        params={
            "bins": bins,
            "strategy": strategy,
            "dt": dt,
            "step_duration": step_duration,
            "bins_refit_per_window": True,
        },
    )
