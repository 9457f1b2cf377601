"""Uniform entry point: one returns panel in, one interaction matrix out.

Used by the windowing engine and the CLI so both evaluate a measure through
the exact same code path (a single-window evolve is bit-identical to the
full-sample call). Bin edges for the entropy measures are fitted on whatever
sample the function receives, so windowed callers automatically re-fit per
window.
"""

from __future__ import annotations

from .discretize import bin_series
from .infoflow import mi_matrix, te_matrix
from .kmdrift import km_drift_matrix
from .matrices import InteractionMatrix
from .stats import ReturnsMatrix, correlation_matrix

ALIASES = {
    "corr": "correlation",
    "correlation": "correlation",
    "mi": "mutual_information",
    "mutual_information": "mutual_information",
    "te": "transfer_entropy",
    "transfer_entropy": "transfer_entropy",
    "km": "km_drift",
    "km_drift": "km_drift",
}


def canonical_measure(name: str) -> str:
    try:
        return ALIASES[name.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown measure {name!r}; choose from {sorted(set(ALIASES.values()))}") from None


def bin_panel(returns: ReturnsMatrix, bins: int, strategy: str) -> list:
    """One BinnedSeries per asset column, in asset order."""
    return [bin_series(returns.values[:, k], bins, strategy) for k in range(returns.n_assets)]


def compute_matrix(
    returns: ReturnsMatrix,
    measure: str,
    bins: int = 8,
    strategy: str = "quantile",
    dt: int = 1,
    step_duration: float = 1.0,
    ridge: float = 0.0,
) -> InteractionMatrix:
    """Estimate one measure's full interaction matrix on the given sample."""
    measure = canonical_measure(measure)
    if measure == "correlation":
        return correlation_matrix(returns)
    if measure == "km_drift":
        return km_drift_matrix(returns, dt=dt, step_duration=step_duration, ridge=ridge)

    seqs = bin_panel(returns, bins, strategy)
    if measure == "mutual_information":
        m = mi_matrix(seqs, asset_ids=returns.asset_ids)
    else:
        m = te_matrix(seqs, dt=dt, asset_ids=returns.asset_ids)
    m.params.update(
        {
            "bins": bins,
            "strategy": strategy,
            "bin_edges": {
                asset: [float(v) for v in seq.edges]
                for asset, seq in zip(returns.asset_ids, seqs)
            },
        }
    )
    return m
