"""Returns and per-asset descriptive statistics.

Returns are stored as dimensionless fractions; percent formatting belongs to
the presentation layer. Kurtosis is reported as excess kurtosis (normal = 0)
and the convention is flagged in the summary metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSeries, TooFewSamples
from .ingest import AlignedPanel, freeze_days
from .matrices import InteractionMatrix, freeze

RETURN_KINDS = ("log", "simple")


@dataclass(frozen=True, eq=False)
class ReturnsMatrix:
    """(T-1) x N matrix of returns; row t is the return realized on days[t].

    ``days`` holds ordinals as ``PriceSeries.days`` does, one per row, checked
    by the same rule; it is None for synthetic panels that have no calendar.
    """

    asset_ids: tuple[str, ...]
    values: np.ndarray
    kind: str
    days: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in RETURN_KINDS:
            raise ValueError(f"kind must be one of {RETURN_KINDS}")
        values = freeze(self, "values")
        if values.ndim != 2 or values.shape[1] != len(self.asset_ids):
            raise ValueError("values must be (T-1) x N")
        if self.days is not None:
            freeze_days(self, "values", "returns")
        if not np.all(np.isfinite(values)):
            raise ValueError("returns must be finite")

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_assets(self) -> int:
        return self.values.shape[1]

    def window(self, start: int, end: int) -> "ReturnsMatrix":
        """Row slice [start, end) as a new ReturnsMatrix."""
        return ReturnsMatrix(
            asset_ids=self.asset_ids,
            values=self.values[start:end],
            kind=self.kind,
            days=self.days[start:end] if self.days is not None else None,
        )


@dataclass(frozen=True, eq=False)
class StatsSummary:
    asset_ids: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray
    skewness: np.ndarray
    excess_kurtosis: np.ndarray
    params: dict = field(default_factory=lambda: {"kurtosis_convention": "excess"})

    def rows(self):
        for i, asset in enumerate(self.asset_ids):
            yield asset, self.mean[i], self.std[i], self.skewness[i], self.excess_kurtosis[i]


def compute_returns(panel: AlignedPanel, kind: str = "log") -> ReturnsMatrix:
    """log: r_t = ln(p_{t+1}/p_t); simple: r_t = p_{t+1}/p_t - 1."""
    p = panel.prices
    ratio = p[1:] / p[:-1]
    values = np.log(ratio) if kind == "log" else ratio - 1.0
    return ReturnsMatrix(
        asset_ids=panel.asset_ids,
        values=values,
        kind=kind,
        days=panel.days[1:],
    )


def describe(returns: ReturnsMatrix) -> StatsSummary:
    """Sample mean, sample std (n-1), and central-moment skew / excess kurtosis.

    skewness = m3 / m2^1.5 and excess_kurtosis = m4 / m2^2 - 3, with m_k the
    central sample moments (denominator n).
    """
    x = returns.values
    n = x.shape[0]
    if n < 4:
        raise TooFewSamples(f"describe needs at least 4 rows, got {n}")
    mean = x.mean(axis=0)
    centered = x - mean
    m2 = (centered**2).mean(axis=0)
    if np.any(m2 == 0):
        bad = returns.asset_ids[int(np.flatnonzero(m2 == 0)[0])]
        raise DegenerateSeries(f"{bad}: zero variance, skew/kurtosis undefined")
    m3 = (centered**3).mean(axis=0)
    m4 = (centered**4).mean(axis=0)
    return StatsSummary(
        asset_ids=returns.asset_ids,
        mean=mean,
        std=x.std(axis=0, ddof=1),
        skewness=m3 / m2**1.5,
        excess_kurtosis=m4 / m2**2 - 3.0,
    )


def correlation_matrix(returns: ReturnsMatrix) -> InteractionMatrix:
    """Pearson correlation of the return columns; symmetric, unit diagonal."""
    x = returns.values
    if x.shape[0] < 3:
        raise TooFewSamples(f"correlation needs at least 3 rows, got {x.shape[0]}")
    std = x.std(axis=0)
    if np.any(std == 0):
        bad = returns.asset_ids[int(np.flatnonzero(std == 0)[0])]
        raise DegenerateSeries(f"{bad}: zero variance")
    c = np.corrcoef(x, rowvar=False)
    c = np.atleast_2d(c)
    c = (c + c.T) / 2.0
    c = np.clip(c, -1.0, 1.0)
    np.fill_diagonal(c, 1.0)
    return InteractionMatrix(
        asset_ids=returns.asset_ids,
        values=c,
        measure="correlation",
        params={"kind": returns.kind},
    )
