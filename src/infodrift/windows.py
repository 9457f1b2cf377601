"""Time-resolved analysis over sliding or segmented windows.

Segmented mode splits the sample into K contiguous blocks covering it
exactly, the leftover T mod K samples going one apiece to the first blocks.
Sliding mode steps a fixed-length window by a fixed stride while it fits.
Window boundaries depend only on the sample count and the spec, never on the
data. Quantile bin edges are re-fitted inside each window because the series
cannot be assumed stationary; the choice is recorded in the result metadata.

``evolve`` is the windowed driver. Correlation and km_drift bin nothing, so
it calls ``compute_matrix`` once per window. For MI and TE it stacks each
block of windows window-major and hands it to ``measures.binned_matrices``,
the path that ``compute_matrix`` takes on the full sample as one window.
The blocks are independent, so each is one ``kernels.fan_out`` task, run on
every CPU the process may run on, which returns its windows' matrices. Each
window's matrix is therefore bit-identical to ``compute_matrix`` on that
window, however many workers there are.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSeries, EstimatorError, TooFewSamples, WindowTooLarge
from .kernels import fan_out
from .measures import ENTROPY_MEASURES, binned_matrices, canonical_measure, compute_matrix
from .stats import ReturnsMatrix

# Symbols binned at once by evolve: 256 KiB of int64, six windows at the
# pipeline benchmark's evolve-sliding shape (N=20, 456 windows of 250). When
# its whole run peaked near 56 MB (42.9 MB in late 2026), blocks of 2**17
# symbols raised that peak by 1 MB and of 2**18 by 5 MB, at the same speed.
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


def _in_window(e: Exception, measure: str, window) -> Exception:
    """e, of its own type, naming the measure and the (idx, start, end) window."""
    idx, start, end = window
    return type(e)(f"{measure}: window {idx} [{start}:{end}): {e}")


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

    if measure not in ENTROPY_MEASURES:
        matrices = []
        for idx, (start, end) in enumerate(windows):
            try:
                matrices.append(compute_matrix(
                    returns.window(start, end), measure, bins=bins, strategy=strategy, dt=dt,
                    step_duration=step_duration, ridge=ridge,
                ))
            except (EstimatorError, TooFewSamples) as e:
                raise _in_window(e, measure, (idx, start, end)) from e
    else:
        blocks = list(_blocks(windows, n))

        def estimate(b):
            """Matrices of block b's windows, its first error named as the per-window loop met it."""
            block = blocks[b]
            _, start, end = window = block[0]
            x = np.stack([returns.values[s:e].T for _, s, e in block]).reshape(len(block) * n, end - start)
            try:
                try:
                    return binned_matrices(x, measure, bins, strategy, dt, returns.asset_ids)[0]
                except DegenerateSeries as e:  # binned_matrices named its asset and kept its row
                    w = e.row // n
                    if w:  # the per-window loop estimated the block's first window before binning this one
                        binned_matrices(x[:n], measure, bins, strategy, dt, returns.asset_ids)
                    window = block[w]
                    raise
            except (EstimatorError, TooFewSamples) as e:
                raise _in_window(e, measure, window) from e

        matrices = [m for block in fan_out(estimate, len(blocks)) for m in block]
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
