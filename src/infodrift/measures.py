"""Uniform entry point: one returns panel in, one measure's result out.

``evaluate`` is the one driver from a sample to a measure's matrix and the
basis it was estimated from, which ``analyze`` reuses: the TE surrogate floor
shuffles the binned columns, a second entropy measure counts the first one's
binned columns, and the drift estimate is written beside its matrix.
``compute_matrix`` is its one-result form. Bin edges for the entropy
measures are fitted on whatever sample the driver receives; ``with_bins``
records them on the matrix. An entropy measure is the one-window case of
``windows.evolve``: one ``bin_windows`` call bins every column into one
(N, T) symbols array, ``mi_matrices`` or ``te_matrices`` count it without a
copy, and the basis sequences are row views of it (a measure given those
sequences stacks them once). ``evolve`` records its batched windows' edges
through ``with_bins`` too.
"""

from __future__ import annotations

import numpy as np

from .discretize import SymbolSequence, bin_windows
from .errors import DegenerateSeries
from .infoflow import as_mi_matrix, as_te_matrix, mi_matrices, te_matrices
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
        try:
            symbols, edges = bin_windows(returns.values.T, bins, strategy)
        except DegenerateSeries as e:  # bin_windows names the row, which is the column
            raise DegenerateSeries(f"{returns.asset_ids[e.row]}: {e}") from e
        seqs = [SymbolSequence(symbols=s, bins=bins, edges=e) for s, e in zip(symbols, edges)]
    else:
        symbols = np.stack([seq.symbols for seq in seqs])
    if measure == "mutual_information":
        m = as_mi_matrix(mi_matrices(symbols[np.newaxis], bins)[0], returns.asset_ids)
    else:
        m = as_te_matrix(te_matrices(symbols[np.newaxis], bins, dt)[0], dt, returns.asset_ids)
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
