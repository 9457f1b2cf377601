"""Uniform entry point: one returns panel in, one measure's result out.

``evaluate`` is the one driver from a sample to a measure's matrix and the
basis it was estimated from, which ``analyze`` reuses: the TE surrogate floor
shuffles the binned columns, a second entropy measure counts the first one's
binned columns, and the drift estimate is written beside its matrix.
``compute_matrix`` is its one-result form. Bin edges for the entropy
measures are fitted on whatever sample the driver receives; ``with_bins``
records them on the matrix. ``windows.evolve``, the windowed driver, records
its batched windows' edges through it too.
"""

from __future__ import annotations

from .discretize import bin_series
from .errors import DegenerateSeries
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

# the measures estimated from binned columns
ENTROPY_MEASURES = ("mutual_information", "transfer_entropy")


def canonical_measure(name: str) -> str:
    try:
        return ALIASES[name.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown measure {name!r}; choose from {sorted(set(ALIASES.values()))}") from None


def with_bins(matrix: InteractionMatrix, bins: int, strategy: str, edges) -> InteractionMatrix:
    """Record the binning of an entropy matrix; ``edges`` holds one list per asset."""
    matrix.params.update(
        {"bins": bins, "strategy": strategy, "bin_edges": dict(zip(matrix.asset_ids, edges))}
    )
    return matrix


def evaluate(
    returns: ReturnsMatrix,
    measure: str,
    bins: int,
    strategy: str,
    dt: int,
    step_duration: float = 1.0,
    ridge: float = 0.0,
    seqs=None,
) -> tuple[InteractionMatrix, object]:
    """(matrix, basis) of one canonical measure on the given sample.

    ``basis`` is what the matrix was estimated from: one SymbolSequence per
    asset column, in asset order, for MI and TE; the DriftEstimate for
    km_drift; None for correlation. An MI or TE call given ``seqs``, the
    basis of an entropy measure on the same sample, bins, and strategy,
    counts those instead of binning the columns again.
    """
    if measure == "correlation":
        return correlation_matrix(returns), None
    if measure == "km_drift":
        est = drift_estimate(returns, dt=dt, step_duration=step_duration, ridge=ridge)
        return drift_matrix(est, returns.asset_ids), est

    if seqs is None:
        seqs = []
        for k, asset in enumerate(returns.asset_ids):
            try:
                seqs.append(bin_series(returns.values[:, k], bins, strategy))
            except DegenerateSeries as e:
                raise DegenerateSeries(f"{asset}: {e}") from e
    if measure == "mutual_information":
        m = mi_matrix(seqs, asset_ids=returns.asset_ids)
    else:
        m = te_matrix(seqs, dt=dt, asset_ids=returns.asset_ids)
    return with_bins(m, bins, strategy, [seq.edges.tolist() for seq in seqs]), seqs


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
