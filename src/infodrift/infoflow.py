"""Plug-in estimators for entropy, mutual information, and transfer entropy.

All quantities are in bits and come straight from empirical histogram
frequencies; no bias correction is applied. Log ratios are computed from
integer count products, so structurally exact cancellations (a target that is
deterministic given its own past, a joint that factorizes exactly) yield an
exact 0.0. Tiny negative floating-point residue (> -1e-9) is clamped to zero;
anything more negative would be a bug and raises.

Transfer entropy uses single-step histories on both sides: the flow from
source j into target i is estimated from the triple distribution of
(i_{t+dt}, i_t, j_t). The matrix convention is values[i][j] = flow from
asset j into asset i; diagonals store the target's self conditional entropy
H(i_{t+dt} | i_t), which is flagged in the matrix metadata.

The matrix builders are batched through one counting core. Every row of a
count carries its own target part (the codes of the target's axes) plus one
source sequence, so rows of different targets, and in ``te_matrices`` and
``mi_matrices`` of different windows, share one ``joint_counts`` call. The
diagonals (self conditional entropy, own entropy) are rows of the same core.
From the counts they evaluate the same integer products, the same
``p * log2(num / den)`` terms and the same contiguous per-row ``.sum()``
and clamp as the per-pair functions. ``te_matrix`` and ``mi_matrix`` are the
one-window case of ``te_matrices`` and ``mi_matrices``; ``te_floor_matrix``
counts the shuffled sources of each pair. Their values are therefore
bit-identical to ``transfer_entropy``, ``self_conditional_entropy``,
``mutual_information``, ``entropy`` and ``surrogate_floor``, which stay the
public per-pair API and the reference oracles the tests compare against.
Sequences with fewer bins are padded to the largest bin count, which keeps
the nonzero cells and their row-major order.

Each count holds at most ``_MAX_CODES`` codes (a longer row is counted in
time chunks whose integer counts are added), and the estimates are formed
one such chunk at a time. The cap exists for memory: the pipeline
benchmark's surrogate-floor workload peaks at about 45 MB with a bound of
+10 %, and counting all 100 shuffles of a pair at once cost 8 MB there.
A count too large to allocate at all (``--bins 2000`` asks 8e9 TE cells per
row) raises EstimatorError naming the bins and the cells.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from .discretize import JointHistogram, SymbolSequence, joint_histogram
from .errors import EmptyOverlap, EstimatorError, LengthMismatch
from .kernels import joint_counts
from .matrices import ORIENTATION, InteractionMatrix

_NEG_TOL = -1e-9

# Codes per batched count: 128 KiB of int64. A 250-sample window at B=8
# puts 32 ordered pairs (2**14 cells) into one count.
_MAX_CODES = 2**14


def _clamp(value: float) -> float:
    if value < 0.0:
        if value < _NEG_TOL:
            raise AssertionError(f"plug-in estimate {value} below clamp tolerance")
        return 0.0
    return value


def _entropy_counts(counts: np.ndarray, total: int) -> float:
    c = counts[counts > 0].astype(np.float64)
    p = c / float(total)
    return _clamp(float(-(p * np.log2(p)).sum()))


def entropy(hist: JointHistogram) -> float:
    """Shannon entropy in bits of the histogram's empirical distribution."""
    return _entropy_counts(hist.counts, hist.total)


def mutual_information(x: SymbolSequence, y: SymbolSequence) -> float:
    """I(x; y) in bits from the empirical joint of the two sequences."""
    if len(x) != len(y):
        raise LengthMismatch(f"length {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise LengthMismatch("need at least 2 samples")
    hist = joint_histogram([x, y], lags=[0, 0])
    return mutual_information_from_joint(hist)


def mutual_information_from_joint(hist: JointHistogram) -> float:
    """Plug-in MI of a 2-axis histogram."""
    if len(hist.dims) != 2:
        raise ValueError("mutual information needs a 2-axis histogram")
    c = hist.counts
    rows = c.sum(axis=1)
    cols = c.sum(axis=0)
    nz = c > 0
    num = c[nz].astype(np.float64) * float(hist.total)
    den = np.outer(rows, cols)[nz].astype(np.float64)
    p = c[nz] / float(hist.total)
    return _clamp(float((p * np.log2(num / den)).sum()))


def transfer_entropy(source: SymbolSequence, target: SymbolSequence, dt: int = 1) -> float:
    """Transfer entropy source -> target in bits, histories one step deep.

    Estimated as sum over the empirical triple (target_{t+dt}, target_t,
    source_t) of p * log2[ p(target_future | both pasts) /
    p(target_future | own past) ].
    """
    if len(source) != len(target):
        raise LengthMismatch(f"length {len(source)} vs {len(target)}")
    if dt < 1:
        raise ValueError("dt must be >= 1")
    if len(target) < dt + 2:
        raise LengthMismatch(f"need at least dt + 2 = {dt + 2} samples, got {len(target)}")
    triple = joint_histogram([target, target, source], lags=[0, dt, dt])
    return transfer_entropy_from_joint(triple)


def transfer_entropy_from_joint(triple: JointHistogram) -> float:
    """Plug-in TE of a 3-axis (future, target-past, source-past) histogram."""
    if len(triple.dims) != 3:
        raise ValueError("transfer entropy needs a 3-axis histogram")
    c3 = triple.counts
    c_fp = c3.sum(axis=2)  # (future, target past)
    c_ps = c3.sum(axis=0)  # (target past, source past)
    c_p = c3.sum(axis=(0, 2))  # (target past,)
    nz = c3 > 0
    num = (c3 * c_p[np.newaxis, :, np.newaxis])[nz].astype(np.float64)
    den = (c_ps[np.newaxis, :, :] * c_fp[:, :, np.newaxis])[nz].astype(np.float64)
    p = c3[nz] / float(triple.total)
    return _clamp(float((p * np.log2(num / den)).sum()))


def self_conditional_entropy(target: SymbolSequence, dt: int = 1) -> float:
    """H(target_{t+dt} | target_t) in bits, the matrix-diagonal convention."""
    pair = joint_histogram([target, target], lags=[0, dt])
    past = pair.counts.sum(axis=0)
    return _clamp(_entropy_counts(pair.counts, pair.total) - _entropy_counts(past, pair.total))


def _default_ids(n: int) -> tuple[str, ...]:
    return tuple(f"s{i}" for i in range(n))


def _check_lags(length: int, dt: int) -> None:
    """joint_histogram's checks on one sequence at lags [0, dt], in its order."""
    if dt < 0:
        raise ValueError("lags must be >= 0")
    if length - dt < 1:
        raise EmptyOverlap(f"no samples left after lag alignment (length {length}, max lag {dt})")


def _check_te_pairs(seqs, dt: int) -> None:
    """transfer_entropy's checks on the pairs into the first target, in its order.

    Once the first target has been checked every pair shares its length, so
    these raise what the per-pair loop raised first.
    """
    target = seqs[0]
    for source in seqs[1:]:
        if len(source) != len(target):
            raise LengthMismatch(f"length {len(source)} vs {len(target)}")
        if dt < 1:
            raise ValueError("dt must be >= 1")
        if len(target) < dt + 2:
            raise LengthMismatch(f"need at least dt + 2 = {dt + 2} samples, got {len(target)}")


def _check_mi_pairs(seqs) -> None:
    """mutual_information's checks on the pairs (0, j), in its order."""
    x = seqs[0]
    for y in seqs[1:]:
        if len(x) != len(y):
            raise LengthMismatch(f"length {len(x)} vs {len(y)}")
        if len(x) < 2:
            raise LengthMismatch("need at least 2 samples")


def _count_chunks(rows, eff: int, bins: int, axes: int):
    """Yield (k, bins**axes) counts of ``target + source``, k rows at a time.

    ``rows`` yields (target, source) pairs of int64 arrays of length ``eff``:
    the target part holds the codes of every axis but the last, already
    scaled by ``bins``, and the source symbols fill the last axis. Each row
    carries its own target part, so rows of different targets and windows
    share a count. Row r of a chunk is offset by ``r * cells`` so that one
    joint_counts call counts the whole chunk. A call gets at most _MAX_CODES
    codes and, unless a single row needs more, _MAX_CODES cells; a row longer
    than _MAX_CODES is counted in time chunks whose integer counts are added.
    ``rows`` may be a generator: it is drawn one chunk at a time, so neither
    the codes nor the callers' per-cell arrays ever hold more than one chunk.
    A count too large to allocate raises EstimatorError.
    """
    cells = bins**axes
    per = max(1, min(_MAX_CODES // eff, _MAX_CODES // cells))
    span = min(eff, _MAX_CODES)
    rows = iter(rows)
    while chunk := list(islice(rows, per)):
        k = len(chunk)
        try:
            counts = np.zeros(k * cells, dtype=np.int64)
            for t in range(0, eff, span):
                codes = np.concatenate([target[t : t + span] for target, _ in chunk]).reshape(k, -1)
                codes += np.concatenate([source[t : t + span] for _, source in chunk]).reshape(k, -1)
                codes += np.arange(k, dtype=np.int64)[:, np.newaxis] * cells
                counts += joint_counts(codes.ravel(), counts.size)
        except MemoryError:
            raise EstimatorError(
                f"bins {bins}: a count of {k * cells:,} histogram cells does not fit in memory"
            ) from None
        yield counts.reshape(k, cells)


def _row_bounds(row: np.ndarray, rows: int):
    """(start, end) of each row's contiguous run in the row-sorted ``row`` labels."""
    bounds = np.searchsorted(row, np.arange(rows + 1)).tolist()
    return zip(bounds[:-1], bounds[1:])


def _row_sums(terms: np.ndarray, row: np.ndarray, rows: int) -> list[float]:
    """Clamped sum of each row's contiguous run of terms, the per-pair ``.sum()``."""
    return [_clamp(float(terms[a:b].sum())) for a, b in _row_bounds(row, rows)]


def _entropies(counts: np.ndarray, total: int) -> list[float]:
    """_entropy_counts of each row of (rows, cells) counts."""
    idx = np.flatnonzero(counts > 0)
    p = counts.ravel()[idx].astype(np.float64) / float(total)
    terms = p * np.log2(p)
    return [_clamp(float(-terms[a:b].sum())) for a, b in _row_bounds(idx // counts.shape[1], len(counts))]


def _entropy_rows(rows, eff: int, bins: int) -> list[float]:
    """Entropy of the symbols of each (zeros, symbols) row, as entropy() computes it."""
    out = []
    for counts in _count_chunks(rows, eff, bins, 1):
        out += _entropies(counts, eff)
    return out


def _cond_entropy_rows(rows, eff: int, bins: int) -> list[float]:
    """H(future | past) of each (future * bins, past) row, as self_conditional_entropy."""
    out = []
    for counts in _count_chunks(rows, eff, bins, 2):
        past = counts.reshape(len(counts), bins, bins).sum(axis=1)
        out += [_clamp(a - b) for a, b in zip(_entropies(counts, eff), _entropies(past, eff))]
    return out


def _te_rows(rows, eff: int, bins: int) -> list[float]:
    """TE of each (_te_base of the target, source) row, in order, as
    transfer_entropy_from_joint computes it from (future, target past,
    source past) counts."""
    out = []
    for counts in _count_chunks(rows, eff, bins, 3):
        k = len(counts)
        c3 = counts.reshape(k, bins, bins, bins)
        c_fp = c3.sum(axis=3)  # (row, future, target past)
        c_p = c_fp.sum(axis=1)  # (row, target past)
        c_ps = c3.sum(axis=1)  # (row, target past, source past)
        idx = np.flatnonzero(counts > 0)
        num = (c3 * c_p[:, np.newaxis, :, np.newaxis]).ravel()[idx].astype(np.float64)
        den = (c_ps[:, np.newaxis, :, :] * c_fp[:, :, :, np.newaxis]).ravel()[idx].astype(np.float64)
        p = counts.ravel()[idx] / float(eff)
        out += _row_sums(p * np.log2(num / den), idx // bins**3, k)
    return out


def _mi_rows(rows, eff: int, bins: int) -> list[float]:
    """MI of each (x * bins, y) row, in order, as mutual_information_from_joint
    computes it from (x, y) counts."""
    out = []
    for counts in _count_chunks(rows, eff, bins, 2):
        k = len(counts)
        c2 = counts.reshape(k, bins, bins)
        c_x = c2.sum(axis=2)  # (row, x)
        c_y = c2.sum(axis=1)  # (row, y)
        idx = np.flatnonzero(counts > 0)
        c = counts.ravel()[idx]
        num = c.astype(np.float64) * float(eff)
        den = (c_x[:, :, np.newaxis] * c_y[:, np.newaxis, :]).ravel()[idx].astype(np.float64)
        p = c / float(eff)
        out += _row_sums(p * np.log2(num / den), idx // bins**2, k)
    return out


def _te_base(target: np.ndarray, dt: int, bins: int) -> np.ndarray:
    """(future * bins + past) * bins: the target's part of every triple code."""
    eff = len(target) - dt
    return (target[dt : dt + eff] * bins + target[:eff]) * bins


def _te_pairs(windows, dt: int, bins: int):
    """(target part, source) rows of every ordered pair, window by window,
    target by target, sources in order."""
    for win in windows:
        pasts = [source[: len(source) - dt] for source in win]
        for i, target in enumerate(win):
            base = _te_base(target, dt, bins)
            for j, source in enumerate(pasts):
                if j != i:
                    yield base, source


def _mi_pairs(windows, bins: int):
    """(x * bins, y) rows of every pair i < j, window by window, row-major."""
    for win in windows:
        for i, x in enumerate(win):
            part = x * bins
            for y in win[i + 1 :]:
                yield part, y


def te_matrices(windows, bins: int, dt: int = 1, asset_ids=None) -> list[InteractionMatrix]:
    """te_matrix of each window, its rows counted together with the other windows'.

    ``windows[w][i]`` holds asset i's int64 symbols in window w, all in
    [0, bins); every window has the same assets and length. The first
    window gets te_matrix's input checks. Each matrix is bit-identical to
    te_matrix of its window's sequences, which is the one-window case.
    """
    first = windows[0]
    n = len(first)
    ids = tuple(asset_ids) if asset_ids is not None else _default_ids(n)
    values = np.zeros((len(windows), n, n))
    if n:
        _check_lags(len(first[0]), dt)
        _check_te_pairs(first, dt)
        eff = len(first[0]) - dt
        diagonal = ((win[i][dt:] * bins, win[i][:eff]) for win in windows for i in range(n))
        values[:, np.arange(n), np.arange(n)] = np.reshape(_cond_entropy_rows(diagonal, eff, bins), (-1, n))
        off = np.reshape(_te_rows(_te_pairs(windows, dt, bins), eff, bins), (len(windows), -1))
        values[:, ~np.eye(n, dtype=bool)] = off
    return [
        InteractionMatrix(
            asset_ids=ids,
            values=v,
            measure="transfer_entropy",
            directed=True,
            units="bits",
            params={
                "orientation": ORIENTATION,
                "dt": dt,
                "history": {"target": 1, "source": 1},
                "diagonal": "self conditional entropy H(next|current)",
            },
        )
        for v in values
    ]


def mi_matrices(windows, bins: int, asset_ids=None) -> list[InteractionMatrix]:
    """mi_matrix of each window, its rows counted together with the other windows'.

    ``windows`` is laid out as for te_matrices; the first window gets
    mi_matrix's input checks. Each matrix is bit-identical to mi_matrix of
    its window's sequences, which is the one-window case.
    """
    first = windows[0]
    n = len(first)
    ids = tuple(asset_ids) if asset_ids is not None else _default_ids(n)
    values = np.zeros((len(windows), n, n))
    if n:
        length = len(first[0])
        _check_lags(length, 0)
        _check_mi_pairs(first)
        zeros = np.zeros(length, dtype=np.int64)
        own = _entropy_rows(((zeros, x) for win in windows for x in win), length, bins)
        values[:, np.arange(n), np.arange(n)] = np.reshape(own, (-1, n))
        upper = np.triu(np.ones((n, n), dtype=bool), 1)
        pairs = np.reshape(_mi_rows(_mi_pairs(windows, bins), length, bins), (len(windows), -1))
        values[:, upper] = pairs
        values.transpose(0, 2, 1)[:, upper] = pairs
    return [
        InteractionMatrix(
            asset_ids=ids,
            values=v,
            measure="mutual_information",
            directed=False,
            units="bits",
            params={"diagonal": "self entropy H(x)"},
        )
        for v in values
    ]


def mi_matrix(seqs: list[SymbolSequence], asset_ids=None) -> InteractionMatrix:
    """Symmetric MI matrix; diagonals hold each sequence's own entropy.

    values[i, j] for i < j equals mutual_information(seqs[i], seqs[j]) bit
    for bit; values[j, i] is the same number.
    """
    bins = max((s.bins for s in seqs), default=1)
    return mi_matrices([[s.symbols for s in seqs]], bins, asset_ids)[0]


def te_matrix(seqs: list[SymbolSequence], dt: int = 1, asset_ids=None) -> InteractionMatrix:
    """Directed TE matrix: values[i][j] = TE(j -> i).

    Diagonals store the self conditional entropy H(i_{t+dt} | i_t).
    """
    bins = max((s.bins for s in seqs), default=1)
    return te_matrices([[s.symbols for s in seqs]], bins, dt, asset_ids)[0]


def surrogate_floor(
    source: SymbolSequence,
    target: SymbolSequence,
    dt: int = 1,
    shuffles: int = 20,
    seed: int | np.random.SeedSequence = 0,
) -> float:
    """Small-sample bias floor: mean TE after permuting the source sequence.

    Shuffling destroys the source's temporal alignment while preserving its
    marginal, so the residual TE estimates the plug-in bias.
    """
    if shuffles < 1:
        raise ValueError("shuffles must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    acc = 0.0
    for _ in range(shuffles):
        perm = rng.permutation(len(source))
        shuffled = SymbolSequence(
            symbols=source.symbols[perm], bins=source.bins, edges=source.edges
        )
        acc += transfer_entropy(shuffled, target, dt=dt)
    return acc / shuffles


def te_floor_matrix(
    seqs: list[SymbolSequence],
    dt: int = 1,
    shuffles: int = 20,
    seed: int = 0,
    asset_ids=None,
) -> InteractionMatrix:
    """Surrogate-shuffle floor for every ordered pair, same layout as te_matrix.

    Each pair gets an independent deterministic substream keyed by (i, j), so
    the result does not depend on evaluation order.
    """
    n = len(seqs)
    ids = tuple(asset_ids) if asset_ids is not None else _default_ids(n)
    bins = max((s.bins for s in seqs), default=1)
    values = np.zeros((n, n))
    if n > 1:
        if shuffles < 1:
            raise ValueError("shuffles must be >= 1")
        _check_te_pairs(seqs, dt)
        for i in range(n):
            base = _te_base(seqs[i].symbols, dt, bins)
            eff = len(base)
            for j in range(n):
                if i != j:
                    # surrogate_floor's stream and order: one permutation per shuffle
                    ss = np.random.SeedSequence(entropy=seed, spawn_key=(i, j))
                    rng = np.random.Generator(np.random.PCG64(ss))
                    src = seqs[j].symbols
                    rows = ((base, src[rng.permutation(len(src))[:eff]]) for _ in range(shuffles))
                    acc = 0.0
                    for te in _te_rows(rows, eff, bins):
                        acc += te
                    values[i, j] = acc / shuffles
    return InteractionMatrix(
        asset_ids=ids,
        values=values,
        measure="transfer_entropy",
        directed=True,
        units="bits",
        params={
            "orientation": ORIENTATION,
            "dt": dt,
            "kind": "surrogate_floor",
            "shuffles": shuffles,
            "seed": seed,
        },
    )
