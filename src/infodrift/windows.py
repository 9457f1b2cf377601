"""Time-resolved analysis over sliding or segmented windows.

Segmented mode splits the sample into K contiguous blocks covering it
exactly, the leftover T mod K samples going one apiece to the first blocks.
Sliding mode steps a fixed-length window by a fixed stride while it fits.
Window boundaries depend only on the sample count and the spec, never on the
data. Quantile bin edges are re-fitted inside each window because the series
cannot be assumed stationary; the choice is recorded in the result metadata.
``evolve`` hands all windows of a measure to ``measures.evaluate_windows``,
which bins and counts the windows of MI and TE together and gives each
window the matrix ``compute_matrix`` would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EstimatorError, TooFewSamples, WindowTooLarge
from .matrices import InteractionMatrix
from .measures import canonical_measure, evaluate_windows
from .stats import ReturnsMatrix


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

    def matrices(self) -> list[InteractionMatrix]:
        return [e[4] for e in self.entries]

    def values_stack(self) -> np.ndarray:
        return np.stack([e[4].values for e in self.entries])


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

    ``measures.evaluate_windows`` computes every window of the measure in
    one call. Estimator failures and too-short windows are re-raised naming
    the measure and the offending window.
    """
    measure = canonical_measure(measure)
    windows = make_windows(returns.n_samples, spec)
    try:
        matrices = evaluate_windows(
            returns, windows, measure, bins=bins, strategy=strategy, dt=dt,
            step_duration=step_duration, ridge=ridge,
        )
    except (EstimatorError, TooFewSamples) as e:
        raise type(e)(f"{measure}: {e}") from e
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
