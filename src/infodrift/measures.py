"""Uniform entry point: one returns panel in, one measure's result out.

``evaluate`` is the one driver from a sample to a measure's matrix and the
basis it was estimated from, which ``analyze`` reuses: the TE surrogate floor
shuffles the binned columns, a second entropy measure counts the first one's
binned columns, and the drift estimate is written beside its matrix.
``compute_matrix`` is its one-result form.

``binned_matrices`` is the one estimator of MI and TE, on the full sample as
one window (from ``evaluate``) and on each block of windows (from
``windows.evolve``): it bins a window-major stack of columns, fitting bin
edges on each window, and counts the symbols without a copy. It returns
plain arrays, each window's values and the edges it binned with; only
``evaluate`` makes the one window's matrix and records its binning there.
When a block's count raises, ``evolve`` estimates its windows one at a time
through ``compute_matrix`` to find the window at fault, so a batched error
needs to name only the asset.
"""

from __future__ import annotations

from .discretize import bin_windows
from .errors import DegenerateSeries
from .infoflow import as_mi_matrix, as_te_matrix, mi_matrices, te_matrices
from .kmdrift import drift_estimate, drift_matrix
from .matrices import MEASURES, InteractionMatrix
from .stats import ReturnsMatrix, correlation_matrix

ALIASES = {alias: name for name, (short, _, _) in MEASURES.items() for alias in (short, name)}

# the measures estimated from binned columns
ENTROPY_MEASURES = ("mutual_information", "transfer_entropy")


def canonical_measure(name: str) -> str:
    try:
        return ALIASES[name.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown measure {name!r}; choose from {sorted(MEASURES)}") from None


def binned_matrices(x, measure: str, bins: int, strategy: str, dt: int, asset_ids, basis=None):
    """(values, basis) of an entropy measure on the windows whose columns
    are the rows of the window-major (windows * N, T) stack ``x``: the
    (windows, N, N) values of each window's matrix.

    ``basis`` is the (symbols, edges) of ``bin_windows`` that were counted;
    given that of an earlier call on the same stack, bins and strategy, it
    bins nothing. A constant row raises DegenerateSeries naming its asset.
    """
    n = len(asset_ids)
    if basis is None:
        try:
            basis = bin_windows(x, bins, strategy)
        except DegenerateSeries as e:  # bin_windows names the row, which is window-major
            raise DegenerateSeries(f"{asset_ids[e.row % n]}: {e}") from e
    symbols = basis[0]
    windows = symbols.reshape(-1, n, symbols.shape[1])
    if measure == "mutual_information":
        return mi_matrices(windows, bins), basis
    return te_matrices(windows, bins, dt), basis


def evaluate(
    returns: ReturnsMatrix,
    measure: str,
    bins: int,
    strategy: str,
    dt: int,
    step_duration: float = 1.0,
    ridge: float = 0.0,
    basis=None,
) -> tuple[InteractionMatrix, object]:
    """(matrix, basis) of one canonical measure on the given sample.

    ``basis`` is what the matrix was estimated from: the (symbols, edges) of
    ``binned_matrices`` for MI and TE, which an MI or TE call on the same
    sample, bins and strategy counts again when given them; the
    DriftEstimate for km_drift; None for correlation.
    """
    if measure == "correlation":
        return correlation_matrix(returns), None
    if measure == "km_drift":
        est = drift_estimate(returns, dt=dt, step_duration=step_duration, ridge=ridge)
        return drift_matrix(est, returns.asset_ids), est
    ids = returns.asset_ids
    (values,), basis = binned_matrices(returns.values.T, measure, bins, strategy, dt, ids, basis)
    matrix = as_mi_matrix(values, ids) if measure == "mutual_information" else as_te_matrix(values, dt, ids)
    matrix.params.update(bins=bins, strategy=strategy, bin_edges=dict(zip(ids, basis[1].tolist())))
    return matrix, basis


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
