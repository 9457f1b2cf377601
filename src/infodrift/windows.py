"""Time-resolved analysis over sliding or segmented windows.

Segmented mode splits the sample into K contiguous blocks covering it
exactly, the leftover T mod K samples going one apiece to the first blocks.
Sliding mode steps a fixed-length window by a fixed stride while it fits.
Window boundaries depend only on the sample count and the spec, never on the
data. Quantile bin edges are re-fitted inside each window because the series
cannot be assumed stationary; the choice is recorded in the result metadata.

``evolve`` is the windowed driver. It splits the windows into blocks, each
one ``kernels.fan_out`` task, run on every CPU the process may run on, which
writes its windows' values and MI and TE bin edges into result arrays shared
with the workers. The reference is the per-window loop, which estimates each
window of a block in order with ``compute_matrix`` and re-raises the first
error naming the window. Correlation and km_drift bin nothing and always
take it. For MI and TE a task first stacks its windows window-major and
hands them to ``measures.binned_matrices``, the path that ``compute_matrix``
takes on the full sample as one window; only if that raises does the task
run the loop. Each window's values are therefore bit-identical to
``compute_matrix`` on that window, however many workers there are.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EstimatorError, TooFewSamples, WindowTooLarge
from .ingest import _date
from .kernels import fan_out, shared
from .matrices import Measured, check_values, freeze
from .measures import ENTROPY_MEASURES, binned_matrices, canonical_measure, compute_matrix
from .stats import ReturnsMatrix

# Symbols binned at once by evolve: 256 KiB of int64, six windows at the
# pipeline benchmark's evolve-sliding shape (N=20, 456 windows of 250). When
# its whole run peaked near 56 MB, blocks of 2**17 symbols raised that peak by
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
class WindowedResult(Measured):
    """One measure's matrix of each window, stacked in window order: ``values``
    (W, N, N); ``bounds`` (W, 2) int64, each window's [start, end) samples;
    ``labels``, each window's (first, last) date, or sample index without
    dates; ``edges``, the (W, N, bins + 1) bin edges of MI and TE, None for a
    measure that bins nothing. The arrays are stored as read-only views and
    checked as each window's ``InteractionMatrix`` would be; ``directed`` and
    ``units`` are the measure's, from ``matrices.MEASURES``."""

    measure: str
    asset_ids: tuple[str, ...]
    values: np.ndarray
    bounds: np.ndarray
    labels: tuple  # ((start_label, end_label), ...)
    spec: WindowSpec
    params: dict = field(default_factory=dict)
    edges: np.ndarray | None = None

    def __post_init__(self):
        values = freeze(self, "values")
        count = len(values) if values.ndim else 0
        if not count:
            raise ValueError("windowed result cannot be empty")
        n = len(self.asset_ids)
        check_values(values, (count, n, n), self.measure)
        bounds = freeze(self, "bounds", np.int64)
        if bounds.shape != (count, 2):
            raise ValueError(f"bounds must be {count}x2, got {bounds.shape}")
        if len(self.labels) != count:
            raise ValueError(f"labels must hold {count} windows, got {len(self.labels)}")
        if self.edges is not None:
            edges = freeze(self, "edges")
            if edges.ndim != 3 or edges.shape[:2] != (count, n):
                raise ValueError(f"edges must be {count}x{n}x(bins + 1), got {edges.shape}")


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
    if returns.days is not None:
        return _date(returns.days[start]).isoformat(), _date(returns.days[end - 1]).isoformat()
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

    ``values[w]`` equals the values of ``compute_matrix`` on
    ``returns.window(start, end)`` bit for bit, and for MI and TE ``edges[w]``
    its ``bin_edges``, asset by asset. An estimator failure or
    too-short window is the first error the per-window loop meets, re-raised
    naming the measure and the window (and, for a constant column, the asset):
    a block whose batched MI or TE count raises is estimated again by that
    loop, which either raises or, if every window succeeds alone, writes the
    block's values and edges.
    """
    measure = canonical_measure(measure)
    windows = make_windows(returns.n_samples, spec)
    n = returns.n_assets
    blocks = list(_blocks(windows, n))

    values = shared((len(windows), n, n))
    edges = shared((len(windows), n, bins + 1)) if measure in ENTROPY_MEASURES else None

    def estimate(b):
        """Write block b's values and edges, or raise the first error of its per-window loop, naming the window."""
        block = blocks[b]
        if edges is not None:
            (first, start, end), last = block[0], block[-1][0] + 1
            x = np.stack([returns.values[s:e].T for _, s, e in block]).reshape(len(block) * n, end - start)
            try:
                values[first:last], (_, found) = binned_matrices(x, measure, bins, strategy, dt, returns.asset_ids)
                edges[first:last] = found.reshape(len(block), n, bins + 1)
                return
            except (EstimatorError, TooFewSamples):
                pass  # the per-window loop below meets the first error
        for idx, start, end in block:
            try:
                m = compute_matrix(
                    returns.window(start, end), measure, bins=bins, strategy=strategy, dt=dt,
                    step_duration=step_duration, ridge=ridge,
                )
            except (EstimatorError, TooFewSamples) as e:
                raise type(e)(f"{measure}: window {idx} [{start}:{end}): {e}") from e
            values[idx] = m.values
            if edges is not None:
                edges[idx] = list(m.params["bin_edges"].values())

    fan_out(estimate, len(blocks))
    return WindowedResult(
        measure=measure,
        asset_ids=returns.asset_ids,
        values=values,
        bounds=np.array(windows, dtype=np.int64),
        labels=tuple(_labels(returns, start, end) for start, end in windows),
        spec=spec,
        params={
            "bins": bins,
            "strategy": strategy,
            "dt": dt,
            "step_duration": step_duration,
            "bins_refit_per_window": True,
        },
        edges=edges,
    )
