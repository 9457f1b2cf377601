"""Uniform entry point: one returns panel in, one measure's result out.

``evaluate`` is the one driver from a sample to a measure's matrix and the
basis it was estimated from, which ``analyze`` reuses: the TE surrogate floor
shuffles the binned columns, a second entropy measure counts the first one's
binned columns, and the drift estimate is written beside its matrix.
``compute_matrix`` is its one-result form.

``evaluate_windows`` is the windowed driver behind ``evolve``. Correlation
and km_drift bin nothing, so it calls ``compute_matrix`` once per window.
For MI and TE it rank-bins every window of every column with one
``bin_windows`` call per block of windows and counts all their rows through
``mi_matrices``/``te_matrices``. Each window's matrix is bit-identical to
``compute_matrix`` on that window, which a single-window evolve therefore
equals too. Bin edges for the entropy measures are fitted on whatever sample
(or window) the driver receives, so windowed callers re-fit them per window.
"""

from __future__ import annotations

import numpy as np

from .discretize import bin_series, bin_windows
from .errors import DegenerateSeries, EstimatorError, TooFewSamples
from .infoflow import mi_matrices, mi_matrix, te_matrices, te_matrix
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

# Symbols binned at once by evaluate_windows: 256 KiB of int64, six windows
# at the pipeline benchmark's evolve-sliding shape (N=20, 456 windows of
# 250), whose whole run peaks near 56 MB. Blocks of 2**17 symbols raised that
# peak by 1 MB and of 2**18 by 5 MB, at the same speed.
_BLOCK_SYMBOLS = 2**15


def canonical_measure(name: str) -> str:
    try:
        return ALIASES[name.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown measure {name!r}; choose from {sorted(set(ALIASES.values()))}") from None


def _with_bins(matrix: InteractionMatrix, bins: int, strategy: str, edges) -> InteractionMatrix:
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
    return _with_bins(m, bins, strategy, [seq.edges.tolist() for seq in seqs]), seqs


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


def evaluate_windows(
    returns: ReturnsMatrix,
    windows,
    measure: str,
    bins: int,
    strategy: str,
    dt: int,
    step_duration: float = 1.0,
    ridge: float = 0.0,
) -> list[InteractionMatrix]:
    """The matrix of one canonical measure in each [start, end) window, in order.

    Each equals ``compute_matrix`` on ``returns.window(start, end)`` bit for
    bit. An estimator failure or too-short window is the first error the
    per-window loop met, re-raised naming the window (and, for a constant
    column, the asset).
    """
    if measure not in ENTROPY_MEASURES:
        matrices = []
        for idx, (start, end) in enumerate(windows):
            try:
                matrices.append(compute_matrix(
                    returns.window(start, end), measure, bins=bins, strategy=strategy, dt=dt,
                    step_duration=step_duration, ridge=ridge,
                ))
            except (EstimatorError, TooFewSamples) as e:
                raise type(e)(f"window {idx} [{start}:{end}): {e}") from e
        return matrices

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
        return [_with_bins(m, bins, strategy, edges[w * n : (w + 1) * n]) for w, m in enumerate(found)]

    matrices = []
    for block in _blocks(windows, n):
        idx, start, end = block[0]
        x = np.stack([returns.values[s:e].T for _, s, e in block]).reshape(len(block) * n, end - start)
        try:
            try:
                matrices += estimate(x)
            except DegenerateSeries as e:  # from bin_windows, which names the row
                w, k = divmod(e.row, n)
                if w:  # the per-window loop estimated the block's first window before binning this one
                    estimate(x[:n])
                idx, start, end = block[w]
                raise DegenerateSeries(f"{returns.asset_ids[k]}: {e}") from e
        except (EstimatorError, TooFewSamples) as e:
            raise type(e)(f"window {idx} [{start}:{end}): {e}") from e
    return matrices
