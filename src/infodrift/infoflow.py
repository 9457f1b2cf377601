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

The matrix builders are batched through one counting core. The symbols of
every asset are one (assets, samples) stack, which ``te_matrices`` and
``mi_matrices`` build from every window and ``te_floor_matrix`` is given;
each row of a count is one (target, source) pair picked from it by index
arrays. So rows of different targets and windows share one ``joint_counts``
call, and a count's codes are built one axis at a time by gathering those
rows, with no per-row Python slice; the (future, past) part of a TE code is
built once for each target of the count and gathered for its sources. The
diagonals (self conditional entropy, own entropy) are rows of the same core.

TE, MI and the floor are one conditional-MI sum, I(future; source | past):
TE(j -> i) takes i_{t+dt} as the future and i_t as the past, and MI(x; y)
is the empty-past case, x taking the future's place. A row visits only its
nonzero (future, past, source) cells, about 197 of 512 at 8 bins and 250
samples for TE. The target's marginals c_fp (future, past) and c_p (past;
with an empty past, the length) do not depend on the source: they come
from the target's own count, the one its diagonal is computed from, and
each nonzero cell gathers them through lookup tables that map a flat cell
of the count to its (row, future, past) and (row, past, source) cells;
c_ps is one reduction per count over the future axis. The builders then
form c * c_p and c_ps * c_fp as int64 products, which convert to the
floats the per-pair functions form, the same ``p * log2(num / den)`` terms
in row-major cell order and the same contiguous pairwise sum and clamp per
row as the per-pair functions.
``te_matrices`` and ``mi_matrices`` are one pair driver given the target's
lags, (dt, 0) or (0,), and the pairs, ordered or the upper triangle that MI
mirrors; ``te_matrix`` and ``mi_matrix`` are their one-window case, and
``te_floor_matrix`` counts the shuffled sources of each pair. Their values
are therefore bit-identical to ``transfer_entropy``,
``self_conditional_entropy``, ``mutual_information``, ``entropy`` and
``surrogate_floor``, which stay the public per-pair API and the reference
oracles the tests compare against. The builders check the pairs into the
first target through the oracles' own input rules, so they raise what a
per-pair loop met first, and then refuse a symbol outside [0, bins) by a
SymbolSequence's rule. Sequences with fewer bins are padded to the largest
bin count, which keeps the nonzero cells and their row-major order.

The pair driver counts each count of pairs, and ``te_floor_matrix`` each
target row, as one ``kernels.fan_out`` task, on every CPU the process may
run on, into values shared with the workers. The lookup tables, the target
counts and the diagonal are built in-process first, so a count too large
fails before any worker is forked. Each row is counted and summed as it is
in-process, and each floor pair keeps its own seeded stream, its shuffle
order and its order of summation, so the values do not depend on the number
of workers. A floor task builds what every source of its target shares once,
for each row of a count: the target's (future, past) code, shifted past the
source axis and offset to the row's cells, and its marginals; so is one
buffer each for a count's shuffles and codes. A count copies the source into
its rows, shuffles them in place, adds the target's code into the codes
buffer in one pass, and counts. At 2,600 samples and 8 bins the shuffles
take about two thirds of the floor's time.

Each count holds at most ``_MAX_CODES`` codes (a longer row is counted in
time chunks whose integer counts are added), and the estimates are formed
one such chunk at a time. The cap exists for memory: the pipeline
benchmark's surrogate-floor workload peaked at about 45 MB when this was
measured, and counting all 100 shuffles of a pair at once cost 8 MB there.
For the same reason the matrix builders build a target's part per count,
not stored: at 10^6 samples a stored copy of every target's codes next to
the stacked symbols raised the simulate-long peak by 15 MB. A floor task
holds the code of its one target. The lookup tables hold two
entries per cell of one count. A count or table too large to allocate at
all (``--bins 2000`` asks 8e9 TE cells per row) raises EstimatorError
naming the bins and the cells.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .discretize import JointHistogram, SymbolSequence, aligned_length, check_symbols, joint_histogram
from .errors import EstimatorError, LengthMismatch, TooFewSamples
from .kernels import fan_out, joint_counts, shared
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


def _check_mi(x, y) -> None:
    """mutual_information's input rule; x and y need only a length."""
    if len(x) != len(y):
        raise LengthMismatch(f"length {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise LengthMismatch("need at least 2 samples")


def mutual_information(x: SymbolSequence, y: SymbolSequence) -> float:
    """I(x; y) in bits from the empirical joint of the two sequences."""
    _check_mi(x, y)
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


def _check_te(source, target, dt: int) -> None:
    """transfer_entropy's input rule; source and target need only a length."""
    if len(source) != len(target):
        raise LengthMismatch(f"length {len(source)} vs {len(target)}")
    if dt < 1:
        raise ValueError("dt must be >= 1")
    if len(target) < dt + 2:
        raise TooFewSamples(f"need at least dt + 2 = {dt + 2} samples, got {len(target)}")


def transfer_entropy(source: SymbolSequence, target: SymbolSequence, dt: int = 1) -> float:
    """Transfer entropy source -> target in bits, histories one step deep.

    Estimated as sum over the empirical triple (target_{t+dt}, target_t,
    source_t) of p * log2[ p(target_future | both pasts) /
    p(target_future | own past) ].
    """
    _check_te(source, target, dt)
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


def _ids(asset_ids, n: int) -> tuple[str, ...]:
    return tuple(asset_ids) if asset_ids is not None else tuple(f"s{i}" for i in range(n))


def _per_count(eff: int, cells: int) -> int:
    """Rows per count: at most _MAX_CODES codes and, unless a single row needs
    more, _MAX_CODES cells."""
    return max(1, min(_MAX_CODES // eff, _MAX_CODES // cells))


@contextmanager
def _fits(bins: int, cells: int):
    """Raise a MemoryError inside the block as EstimatorError naming the bins and cells."""
    try:
        yield
    except MemoryError:
        raise EstimatorError(
            f"bins {bins}: a count of {cells:,} histogram cells does not fit in memory"
        ) from None


def _cells(parts, bins: int) -> int:
    """Cells of one row's count of the parts: one axis per lag."""
    return bins ** sum(len(lags) for _, _, lags in parts)


def _count(parts, eff: int, bins: int) -> np.ndarray:
    """(k, bins**axes) counts of k rows of codes, one axis per lag of each part.

    Each part is (symbols, rows, lags): at time t in [0, eff) the axis of a
    lag in ``lags`` of row r holds ``symbols[rows[r], lag + t]``, and the
    axes make a row-major code, the first part's first lag the slowest. The
    first part's ``rows`` is a nondecreasing index array of k rows, and its
    code is built once for each row from ``rows[0]`` to ``rows[-1]`` and then
    gathered: a target's (future, past) code is built once however many
    sources it is counted with. Row r is offset by ``r * cells`` so that one
    joint_counts call counts every row; a row longer than _MAX_CODES is
    counted in time chunks whose counts are added.
    """
    (first, rows, lags), *rest = parts
    k = len(rows)
    cells = _cells(parts, bins)
    span = min(eff, _MAX_CODES)
    offsets = np.arange(0, k * cells, cells, dtype=np.int64)[:, np.newaxis]
    lo, hi = int(rows[0]), int(rows[-1]) + 1
    own = rows - lo
    with _fits(bins, k * cells):
        counts = None
        for t in range(0, eff, span):
            end = min(t + span, eff)
            codes = first[lo:hi, lags[0] + t : lags[0] + end]
            for lag in lags[1:]:
                codes = codes * bins + first[lo:hi, lag + t : lag + end]
            codes = codes[own]
            for symbols, rows_a, lags_a in rest:
                for lag in lags_a:
                    codes *= bins
                    codes += symbols[rows_a, lag + t : lag + end]
            codes += offsets
            found = joint_counts(codes.ravel(), k * cells)
            if counts is None:
                counts = found
            else:
                counts += found
    return counts.reshape(k, cells)


def _count_rows(parts, eff: int, bins: int) -> np.ndarray:
    """Every row's counts of the parts, as one (rows, bins**axes) array,
    counted _per_count rows at a time."""
    rows, cells = len(parts[0][1]), _cells(parts, bins)
    per = _per_count(eff, cells)
    with _fits(bins, rows * cells):
        counts = np.empty((rows, cells), dtype=np.int64)
    for r in range(0, rows, per):
        counts[r : r + per] = _count([(symbols, idx[r : r + per], lags) for symbols, idx, lags in parts], eff, bins)
    return counts


def _row_sums(terms: np.ndarray, idx: np.ndarray, rows: int, cells: int) -> list[float]:
    """Sum of each row's contiguous run of terms, whose flat cells ``idx`` in a
    (rows, cells) count are sorted: one pairwise ``np.add.reduce`` per row,
    which is what the per-pair ``.sum()`` computes."""
    bounds = np.searchsorted(idx, np.arange(0, (rows + 1) * cells, cells)).tolist()
    add = np.add.reduce
    return [float(add(terms[a:b])) for a, b in zip(bounds, bounds[1:])]


def _entropies(counts: np.ndarray, total: int) -> list[float]:
    """_entropy_counts of each row of (rows, cells) counts."""
    idx = np.flatnonzero(counts > 0)
    p = counts.ravel()[idx].astype(np.float64) / float(total)
    return [_clamp(-s) for s in _row_sums(p * np.log2(p), idx, *counts.shape)]


def _cond_entropies(pair: np.ndarray, eff: int, bins: int) -> list[float]:
    """H(future | past) of each row of (future, past) counts, as self_conditional_entropy."""
    past = pair.reshape(len(pair), bins, bins).sum(axis=1)
    return [_clamp(a - b) for a, b in zip(_entropies(pair, eff), _entropies(past, eff))]


def _target_counts(sym: np.ndarray, lags, bins: int):
    """Each row's counts as a target at ``lags``, (future, past) or (future,)
    alone, and its past counts, repeated over the future axis so that both
    are indexed alike. With an empty past every past count is the length."""
    rows = np.arange(len(sym))
    own = _count_rows([(sym, rows, lags)], sym.shape[1] - lags[0], bins)
    return own, np.tile(own.reshape(len(sym), bins, -1).sum(axis=1), bins)


def _cmi_cells(k: int, bins: int, cells: int):
    """For each flat cell of k (future, past, source) count rows of ``cells``
    cells, its flat cell in the rows' (future, past) and (past, source) counts."""
    with _fits(bins, k * cells):
        flat = np.arange(k * cells)
        return flat // bins, flat // cells * (cells // bins) + flat % (cells // bins)


def _cmi_sums(counts, c_fp, c_p, eff: int, bins: int, tables) -> list[float]:
    """I(future; source | past) of each row of (future, past, source) counts,
    as transfer_entropy_from_joint computes it from (k, bins**3) counts and,
    with an empty past, mutual_information_from_joint from (k, bins**2).

    ``c_fp`` and ``c_p`` are the rows' target counts from _target_counts and
    ``tables`` are _cmi_cells of at least k rows. Only the nonzero cells are
    visited, in row-major order, so each row's terms are one contiguous run.
    """
    k, cells = counts.shape
    flat = counts.ravel()
    idx = np.flatnonzero(flat > 0)
    c = flat[idx]
    fp, ps = (table[idx] for table in tables)
    c_ps = counts.reshape(k, bins, -1).sum(axis=1).ravel()  # (row, past, source)
    num = (c * c_p.ravel()[fp]).astype(np.float64)
    den = (c_ps[ps] * c_fp.ravel()[fp]).astype(np.float64)
    terms = c / float(eff) * np.log2(num / den)
    return [_clamp(s) for s in _row_sums(terms, idx, k, cells)]


def _pair_matrices(windows, bins: int, lags, pairs, check, diagonal) -> np.ndarray:
    """(windows, n, n) values: I(future; source | past) of each pair (i, j)
    of the (n, n) mask ``pairs``, target i counted at ``lags``, and each
    target's ``diagonal(own counts, eff)``; 0.0 elsewhere. The per-pair input
    rule ``check(target, other)`` runs where a per-pair loop meets it first,
    into the first window's first target, and then ``check_symbols``. Each
    count of _per_count pairs is one ``fan_out`` task, which writes its
    pairs' cells of the ``shared`` values.
    """
    first = windows[0]
    n = len(first)
    values = shared((len(windows), n, n))
    if n:
        eff = aligned_length([len(first[0])] * len(lags), lags)
        for other in first[1:]:
            check(first[0], other)
        sym = np.asarray(windows, dtype=np.int64).reshape(len(windows) * n, -1)
        check_symbols(sym, bins)
        # every pair of the mask, window by window, row-major
        i, j = np.nonzero(pairs)
        first_rows = np.arange(0, len(sym), n)[:, np.newaxis]
        ti, si = (first_rows + i).ravel(), (first_rows + j).ravel()
        # the tables, target counts and diagonal first, in-process: bins too
        # many to count fail before any count is held or any worker forked
        cells = bins ** (len(lags) + 1)
        per = _per_count(eff, cells)
        tables = _cmi_cells(min(per, len(ti)), bins, cells)
        own, c_p = _target_counts(sym, lags, bins)
        values[:, np.arange(n), np.arange(n)] = np.reshape(diagonal(own, eff), (-1, n))
        # each pair's flat cell of the values, window by window
        at = (np.arange(0, values.size, n * n)[:, np.newaxis] + np.flatnonzero(pairs)).ravel()

        def count(k):
            """Write the values of the pairs of count k: rows k * per to (k + 1) * per."""
            rows = slice(k * per, (k + 1) * per)
            targets = ti[rows]
            counts = _count([(sym, targets, lags), (sym, si[rows], (0,))], eff, bins)
            values.reshape(-1)[at[rows]] = _cmi_sums(counts, own[targets], c_p[targets], eff, bins, tables)

        fan_out(count, -(-len(ti) // per))
    return values


def te_matrices(windows, bins: int, dt: int = 1) -> np.ndarray:
    """te_matrix values of each window as one (windows, n, n) array, the
    rows of every window counted together.

    ``windows[w][i]`` holds asset i's int64 symbols in window w, all in
    [0, bins); every window has the same assets and length. The first
    window gets te_matrix's input checks. Each window's values are
    bit-identical to te_matrix of its sequences, which is the one-window
    case; ``as_te_matrix`` makes them its matrix.
    """
    return _pair_matrices(
        windows, bins, (dt, 0), ~np.eye(len(windows[0]), dtype=bool),
        lambda target, source: _check_te(source, target, dt),
        lambda own, eff: _cond_entropies(own, eff, bins),
    )


def as_te_matrix(values, dt: int = 1, asset_ids=None) -> InteractionMatrix:
    """te_matrix's InteractionMatrix holding the given (n, n) values."""
    return InteractionMatrix(
        asset_ids=_ids(asset_ids, len(values)),
        values=values,
        measure="transfer_entropy",
        params={
            "orientation": ORIENTATION,
            "dt": dt,
            "history": {"target": 1, "source": 1},
            "diagonal": "self conditional entropy H(next|current)",
        },
    )


def mi_matrices(windows, bins: int) -> np.ndarray:
    """mi_matrix values of each window as one (windows, n, n) array, the
    rows of every window counted together.

    ``windows`` is laid out as for te_matrices; the first window gets
    mi_matrix's input checks. Each window's values are bit-identical to
    mi_matrix of its sequences, which is the one-window case;
    ``as_mi_matrix`` makes them its matrix.
    """
    upper = np.triu(np.ones((len(windows[0]),) * 2, dtype=bool), 1)
    values = _pair_matrices(windows, bins, (0,), upper, _check_mi, _entropies)
    values.transpose(0, 2, 1)[:, upper] = values[:, upper]
    return values


def as_mi_matrix(values, asset_ids=None) -> InteractionMatrix:
    """mi_matrix's InteractionMatrix holding the given (n, n) values."""
    return InteractionMatrix(
        asset_ids=_ids(asset_ids, len(values)),
        values=values,
        measure="mutual_information",
        params={"diagonal": "self entropy H(x)"},
    )


def mi_matrix(seqs: list[SymbolSequence], asset_ids=None) -> InteractionMatrix:
    """Symmetric MI matrix; diagonals hold each sequence's own entropy.

    values[i, j] for i < j equals mutual_information(seqs[i], seqs[j]) bit
    for bit; values[j, i] is the same number.
    """
    bins = max((s.bins for s in seqs), default=1)
    return as_mi_matrix(mi_matrices([[s.symbols for s in seqs]], bins)[0], asset_ids)


def te_matrix(seqs: list[SymbolSequence], dt: int = 1, asset_ids=None) -> InteractionMatrix:
    """Directed TE matrix: values[i][j] = TE(j -> i).

    Diagonals store the self conditional entropy H(i_{t+dt} | i_t).
    """
    bins = max((s.bins for s in seqs), default=1)
    return as_te_matrix(te_matrices([[s.symbols for s in seqs]], bins, dt)[0], dt, asset_ids)


def _check_shuffles(shuffles: int) -> None:
    if shuffles < 1:
        raise ValueError("shuffles must be >= 1")


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
    _check_shuffles(shuffles)
    rng = np.random.Generator(np.random.PCG64(seed))
    acc = 0.0
    for _ in range(shuffles):
        perm = rng.permutation(len(source))
        shuffled = SymbolSequence(symbols=source.symbols[perm], edges=source.edges)
        acc += transfer_entropy(shuffled, target, dt=dt)
    return acc / shuffles


def te_floor_matrix(
    symbols,
    bins: int,
    dt: int = 1,
    shuffles: int = 20,
    seed: int = 0,
    asset_ids=None,
) -> InteractionMatrix:
    """Surrogate-shuffle floor for every ordered pair, same layout as te_matrix.

    ``symbols`` is the (n, T) stack of int symbols in [0, bins), counted
    where it lies: values[i, j] is surrogate_floor of row j into row i. Each
    pair gets an independent deterministic substream keyed by (i, j), so the
    result does not depend on evaluation order. Each target row is one
    ``fan_out`` task, counted from the tables and target counts built before.
    The task builds the target's code, marginals and buffers once; each count
    then draws its shuffles in place in one (rows, T) buffer, one shuffle
    per row, and adds the target's code to them into one codes buffer.
    """
    sym = np.asarray(symbols, dtype=np.int64)
    if sym.ndim != 2:
        raise ValueError(f"symbols must be (assets, samples), got shape {sym.shape}")
    check_symbols(sym, bins)
    n = len(sym)
    values = shared((n, n))
    if n > 1:
        _check_shuffles(shuffles)
        _check_te(sym[1], sym[0], dt)
        eff = sym.shape[1] - dt
        cells = bins**3
        per = min(_per_count(eff, cells), shuffles)
        span = min(eff, _MAX_CODES)
        tables = _cmi_cells(per, bins, cells)
        pair, c_p = _target_counts(sym, (dt, 0), bins)
        offsets = np.arange(0, per * cells, cells, dtype=np.int64)[:, np.newaxis]

        def floor_row(i):
            """Write row i: the floor of every source into target i."""
            # for each row of a count: target i's (future, past) code, shifted
            # past the source axis and offset to the row's cells, and its marginals
            target = (sym[i, dt : dt + eff] * bins + sym[i, :eff]) * bins + offsets
            c_fp, c_past = np.tile(pair[i], (per, 1)), np.tile(c_p[i], (per, 1))
            src = np.empty((per, sym.shape[1]), dtype=np.int64)
            buf = np.empty(per * span, dtype=np.int64)
            for j in range(n):
                if i != j:
                    # surrogate_floor's stream and order: shuffling a row in place draws
                    # what rng.permutation draws, one shuffle per row in row order
                    ss = np.random.SeedSequence(entropy=seed, spawn_key=(i, j))
                    rng = np.random.Generator(np.random.PCG64(ss))
                    acc = 0.0
                    for r in range(0, shuffles, per):
                        k = min(per, shuffles - r)
                        shuffled = src[:k]
                        shuffled[:] = sym[j]
                        rng.permuted(shuffled, axis=1, out=shuffled)
                        with _fits(bins, k * cells):
                            for t in range(0, eff, span):
                                w = min(span, eff - t)
                                codes = buf[: k * w].reshape(k, w)
                                np.add(shuffled[:, t : t + w], target[:k, t : t + w], out=codes)
                                found = joint_counts(codes.ravel(), k * cells)
                                counts = found if t == 0 else counts + found
                        for te in _cmi_sums(counts.reshape(k, cells), c_fp[:k], c_past[:k], eff, bins, tables):
                            acc += te
                    values[i, j] = acc / shuffles

        fan_out(floor_row, n)
    return InteractionMatrix(
        asset_ids=_ids(asset_ids, n),
        values=values,
        measure="transfer_entropy",
        params={
            "orientation": ORIENTATION,
            "dt": dt,
            "kind": "surrogate_floor",
            "shuffles": shuffles,
            "seed": seed,
        },
    )
