"""Uniform entry point: one returns panel in, one measure's result out.

``evaluate`` is the one driver from a sample to a measure's matrix and the
basis it was estimated from, which ``analyze`` reuses: the TE surrogate floor
shuffles the binned columns, and the drift estimate is written beside its
matrix. ``compute_matrix`` is its one-result form, called by the windowing
engine once per window, so a single-window evolve is bit-identical to the
full-sample call. Bin edges for the entropy measures are fitted on whatever
sample the driver receives, so windowed callers re-fit them per window.
"""

from __future__ import annotations

from .discretize import bin_series
from .infoflow import mi_matrix, te_matrix
from .kmdrift import drift_estimate, drift_matrix
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


def evaluate(
    returns: ReturnsMatrix,
    measure: str,
    bins: int,
    strategy: str,
    dt: int,
    step_duration: float = 1.0,
    ridge: float = 0.0,
) -> tuple[InteractionMatrix, object]:
    """(matrix, basis) of one canonical measure on the given sample.

    ``basis`` is what the matrix was estimated from: one SymbolSequence per
    asset column, in asset order, for MI and TE; the DriftEstimate for
    km_drift; None for correlation.
    """
    if measure == "correlation":
        return correlation_matrix(returns), None
    if measure == "km_drift":
        est = drift_estimate(returns, dt=dt, step_duration=step_duration, ridge=ridge)
        return drift_matrix(est, returns.asset_ids), est

    seqs = [bin_series(returns.values[:, k], bins, strategy) for k in range(returns.n_assets)]
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
    return m, seqs


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
    return evaluate(returns, canonical_measure(measure), bins, strategy, dt, step_duration, ridge)[0]
