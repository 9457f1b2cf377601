"""Correctness of one workload's outputs, by digest or by oracle.

``digests`` hashes every output file. When the digest store holds an entry
for this environment fingerprint, workload and seed, the bytes must match it
exactly. Otherwise the ``check_<workload>`` function recomputes sampled
values from returns derived here from the input CSVs, without
``infodrift.ingest``. It uses the per-pair reference estimators
(``transfer_entropy``, ``mutual_information``, ``surrogate_floor``,
``solve_drift``) and independent numpy plug-in estimators, and both must
agree with the outputs within 1e-12. simulate-long is checked against the
process it simulates: the drift matrix must be recovered and the
coupled-binary TE must match 1 - H_b(eps).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

import inputs

PAIR_TOL = 1e-12
DRIFT_TOL = 0.1  # max |A_est - A_true|; observed about 0.03 at 10^6 steps
BINARY_TE_TOL = 0.005  # |TE - (1 - H_b(eps))|; the plug-in sd is about 5e-4
BINARY_NULL_TOL = 1e-3  # TE against the coupling direction
SAMPLED_PAIRS = 10
SAMPLED_WINDOWS = 4
SHUFFLES = 100  # surrogate-floor's --surrogates

MEASURES = ("correlation", "mutual_information", "transfer_entropy", "km_drift")
STORE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def digests(out_dir: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def load_store() -> dict:
    with open(STORE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def recorded(store: dict, fp_key: str, workload: str, seed: int) -> dict | None:
    return store.get(fp_key, {}).get("digests", {}).get(workload, {}).get(str(seed))


def record(fp_key: str, fingerprint: dict, workload: str, seed: int, files: dict) -> None:
    store = load_store()
    entry = store.setdefault(fp_key, {"fingerprint": fingerprint, "digests": {}})
    entry["digests"].setdefault(workload, {})[str(seed)] = files
    with open(STORE, "w", encoding="utf-8") as fh:
        json.dump(store, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------- oracles

def panel_returns(in_dir: str, names: list[str]) -> np.ndarray:
    """Aligned log returns from the CSVs, same arithmetic as compute_returns."""
    cols = []
    for name in names:
        with open(os.path.join(in_dir, name), "r", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        cols.append({day: float(price) for day, price in rows})
    common = sorted(set.intersection(*(set(c) for c in cols)))
    prices = np.array([[c[day] for c in cols] for day in common])
    return np.log(prices[1:] / prices[:-1])


def _moments(x: np.ndarray):
    x = x - x.mean(axis=0)
    base, incr = x[:-1], x[1:] - x[:-1]
    cross = np.einsum("ti,tj->ij", incr, base) / len(base)
    second = np.einsum("ti,tj->ij", base, base) / len(base)
    return cross, (second + second.T) / 2.0


def _close(errors: list, label: str, got, want, tol: float = PAIR_TOL) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = np.maximum(1.0, np.abs(want))
    if got.shape != want.shape or not np.all(np.abs(got - want) <= tol * scale):
        gap = np.abs(got - want).max() if got.shape == want.shape else "shape"
        errors.append(f"{label}: got {got.ravel()[:3]} want {want.ravel()[:3]}, max gap {gap}")


def _pairs(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    out = [(int(i), int(i)) for i in rng.choice(n, size=2, replace=False)]
    while len(out) < SAMPLED_PAIRS + 2:
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        out.append((i, j))
    return out


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _expect_files(errors: list, out_dir: str, expected: set[str]) -> None:
    found = set(os.listdir(out_dir))
    if found != expected:
        errors.append(f"output files: missing {sorted(expected - found)}, extra {sorted(found - expected)}")
    for name in expected & found:
        with open(os.path.join(out_dir, name), "rb") as fh:
            body = fh.read().rstrip()
        if not body:
            errors.append(f"{name}: empty")
        elif name.endswith(".svg") and not (b"<svg" in body and body.endswith(b"</svg>")):
            errors.append(f"{name}: not a complete svg document")
        elif name.endswith(".dot") and not (b"graph " in body and body.endswith(b"}")):
            errors.append(f"{name}: not a complete dot graph")


def _check_matrix_files(errors: list, out_dir: str, stem: str, ids: list[str]) -> np.ndarray:
    from infodrift.netout import load_matrix_csv

    doc = _load_json(os.path.join(out_dir, f"{stem}.json"))
    values = np.array(doc["values"], dtype=float)
    if doc["asset_ids"] != ids or values.shape != (len(ids), len(ids)):
        errors.append(f"{stem}.json: asset ids or shape wrong")
        return np.full((len(ids), len(ids)), np.nan)
    if not np.array_equal(load_matrix_csv(os.path.join(out_dir, f"{stem}.csv")).values, values):
        errors.append(f"{stem}.csv: values differ from {stem}.json")
    return values


# Independent plug-in estimators: numpy only, written from the documented
# definitions, so a defect shared by the program and its per-pair reference
# functions still shows.

def rank_bins(values: np.ndarray, bins: int = 8) -> np.ndarray:
    """bin = floor(mid_rank * bins / n); tied values share the bin of their midpoint."""
    uniq, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    start = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return ((2 * start + counts - 1) * bins // (2 * len(values)))[inverse]


def _plugin(counts: np.ndarray, *marginals) -> float:
    """sum p log2(c * prod(numerator margins) / prod(denominator margins))."""
    nz = counts > 0
    total = counts.sum()
    ratio = counts[nz].astype(float)
    for margin, power in marginals:
        ratio = ratio * np.broadcast_to(margin, counts.shape)[nz].astype(float) ** power
    return float(max(0.0, (counts[nz] / total * np.log2(ratio)).sum()))


def plugin_te(source: np.ndarray, target: np.ndarray, bins: int = 8) -> float:
    c = np.zeros((bins,) * 3, dtype=np.int64)
    np.add.at(c, (target[1:], target[:-1], source[:-1]), 1)
    return _plugin(c, (c.sum(axis=(0, 2), keepdims=True), 1),
                   (c.sum(axis=0, keepdims=True), -1), (c.sum(axis=2, keepdims=True), -1))


def plugin_mi(x: np.ndarray, y: np.ndarray, bins: int = 8) -> float:
    c = np.zeros((bins, bins), dtype=np.int64)
    np.add.at(c, (x, y), 1)
    return _plugin(c, (c.sum(), 1), (c.sum(axis=1, keepdims=True), -1), (c.sum(axis=0, keepdims=True), -1))


def plugin_entropy(codes: np.ndarray) -> float:
    p = np.bincount(codes) / len(codes)
    p = p[p > 0]
    return float(max(0.0, -(p * np.log2(p)).sum()))


class Binned:
    """One sample's columns, binned by the program and by ``rank_bins``."""

    def __init__(self, x: np.ndarray, bins: int = 8):
        from infodrift.discretize import bin_series

        self.seqs = [bin_series(x[:, k], bins, "quantile") for k in range(x.shape[1])]
        self.ranks = np.column_stack([rank_bins(x[:, k], bins) for k in range(x.shape[1])])
        self.bins = bins

    def te(self, errors: list, label: str, got: float, i: int, j: int) -> None:
        """values[i][j] = TE(j -> i); the diagonal is H(i_next | i_now)."""
        from infodrift.infoflow import self_conditional_entropy, transfer_entropy

        r = self.ranks
        if i == j:
            oracle = self_conditional_entropy(self.seqs[i])
            pairs = r[1:, i] * self.bins + r[:-1, i]
            independent = max(0.0, plugin_entropy(pairs) - plugin_entropy(r[:-1, i]))
        else:
            oracle = transfer_entropy(self.seqs[j], self.seqs[i])
            independent = plugin_te(r[:, j], r[:, i], self.bins)
        _close(errors, label, got, oracle)
        _close(errors, f"{label} (independent plug-in)", got, independent)

    def mi(self, errors: list, label: str, got: float, i: int, j: int) -> None:
        from infodrift.discretize import joint_histogram
        from infodrift.infoflow import entropy, mutual_information

        r = self.ranks
        if i == j:
            oracle = entropy(joint_histogram([self.seqs[i]], [0]))
            independent = plugin_entropy(r[:, i])
        else:
            oracle = mutual_information(self.seqs[i], self.seqs[j])
            independent = plugin_mi(r[:, i], r[:, j], self.bins)
        _close(errors, label, got, oracle)
        _close(errors, f"{label} (independent plug-in)", got, independent)


def _drift(errors: list, label: str, got: np.ndarray, x: np.ndarray) -> None:
    from infodrift.kmdrift import solve_drift

    cross, second = _moments(x)
    _close(errors, label, got, solve_drift(cross, second, dt=1.0).A)
    _close(errors, f"{label} (independent solve)", got, np.linalg.solve(second, cross.T).T)


def check_analyze_wide(work: str, out: str, names: list[str], seed: int) -> list[str]:
    errors: list[str] = []
    ids = [os.path.splitext(n)[0] for n in names]
    expected = {"config.json", "km_drift_estimate.json"}
    expected |= {f"{m}.{ext}" for m in MEASURES for ext in ("json", "csv", "dot", "svg")}
    _expect_files(errors, out, expected)
    if errors:
        return errors
    x = panel_returns(os.path.join(work, "in"), names)
    b = Binned(x)
    got = {m: _check_matrix_files(errors, out, m, ids) for m in MEASURES}
    rng = inputs.rng_for(seed, "check-analyze-wide")
    for i, j in _pairs(rng, len(ids)):
        if i != j:
            _close(errors, f"correlation[{i}][{j}]", got["correlation"][i, j], np.corrcoef(x[:, i], x[:, j])[0, 1])
        b.mi(errors, f"mutual_information[{i}][{j}]", got["mutual_information"][i, j], i, j)
        b.te(errors, f"transfer_entropy[{i}][{j}]", got["transfer_entropy"][i, j], i, j)
    _drift(errors, "km_drift", got["km_drift"], x)
    est = _load_json(os.path.join(out, "km_drift_estimate.json"))
    if not np.array_equal(np.array(est["A"]), got["km_drift"]):
        errors.append("km_drift_estimate.json: A differs from km_drift.json")
    return errors


def check_surrogate_floor(work: str, out: str, names: list[str], seed: int) -> list[str]:
    from infodrift.infoflow import surrogate_floor

    errors: list[str] = []
    ids = [os.path.splitext(n)[0] for n in names]
    expected = {"config.json", "transfer_entropy_floor.json", "transfer_entropy_floor.csv"}
    expected |= {f"transfer_entropy.{ext}" for ext in ("json", "csv", "dot", "svg")}
    _expect_files(errors, out, expected)
    if errors:
        return errors
    b = Binned(panel_returns(os.path.join(work, "in"), names))
    te = _check_matrix_files(errors, out, "transfer_entropy", ids)
    floor = _check_matrix_files(errors, out, "transfer_entropy_floor", ids)
    if np.any(np.diag(floor) != 0.0):
        errors.append("transfer_entropy_floor: non-zero diagonal")
    rng = inputs.rng_for(seed, "check-surrogate-floor")
    for k, (i, j) in enumerate(_pairs(rng, len(ids))):
        b.te(errors, f"transfer_entropy[{i}][{j}]", te[i, j], i, j)
        if i != j and k < 5:
            # the CLI's default --seed 0 keys every pair's substream
            ss = np.random.SeedSequence(entropy=0, spawn_key=(i, j))
            _close(errors, f"floor[{i}][{j}]", floor[i, j],
                   surrogate_floor(b.seqs[j], b.seqs[i], dt=1, shuffles=SHUFFLES, seed=ss))
            rng_ij = np.random.Generator(np.random.PCG64(ss))
            independent = np.mean([plugin_te(b.ranks[rng_ij.permutation(len(b.ranks)), j], b.ranks[:, i])
                                   for _ in range(SHUFFLES)])
            _close(errors, f"floor[{i}][{j}] (independent plug-in)", floor[i, j], independent)
    return errors


def check_evolve_sliding(work: str, out: str, names: list[str], seed: int,
                         length: int, stride: int) -> list[str]:
    errors: list[str] = []
    n = len(names)
    expected = {"config.json"}
    expected |= {f"evolve_{m}.{ext}" for m in ("transfer_entropy", "km_drift") for ext in ("json", "csv", "svg")}
    _expect_files(errors, out, expected)
    if errors:
        return errors
    x = panel_returns(os.path.join(work, "in"), names)
    starts = list(range(0, len(x) - length + 1, stride))
    rng = inputs.rng_for(seed, "check-evolve-sliding")
    sampled = sorted({0, len(starts) - 1, *(int(w) for w in rng.choice(len(starts), SAMPLED_WINDOWS))})
    for measure in ("transfer_entropy", "km_drift"):
        doc = _load_json(os.path.join(out, f"evolve_{measure}.json"))
        windows = doc["windows"]
        if [(w["start_index"], w["end_index"]) for w in windows] != [(s, s + length) for s in starts]:
            errors.append(f"evolve_{measure}.json: window bounds wrong")
            continue
        with open(os.path.join(out, f"evolve_{measure}.csv"), "r", encoding="utf-8") as fh:
            rows = [r for r in csv.reader(line for line in fh if not line.startswith("#"))][1:]
        if len(rows) != len(windows) * n * n:
            errors.append(f"evolve_{measure}.csv: {len(rows)} rows, want {len(windows) * n * n}")
            continue
        for w in sampled:
            sub = x[starts[w]: starts[w] + length]
            got = np.array(windows[w]["values"])
            block = rows[w * n * n: (w + 1) * n * n]
            if not np.array_equal(np.array([float(r[4]) for r in block]).reshape(n, n).T, got):
                errors.append(f"evolve_{measure}.csv: window {w} differs from json")
            if measure == "km_drift":
                _drift(errors, f"km_drift window {w}", got, sub)
                continue
            b = Binned(sub)
            for i, j in _pairs(rng, n)[:4]:
                b.te(errors, f"transfer_entropy window {w} [{i}][{j}]", got[i, j], i, j)
    return errors


def check_simulate_long(work: str, out: str, names: list[str], seed: int) -> list[str]:
    errors: list[str] = []
    _expect_files(errors, out, {"simlong.json"})
    if errors:
        return errors
    doc = _load_json(os.path.join(out, "simlong.json"))
    a_est = np.array(doc["km"]) / inputs.OU_DT_SIM
    gap = float(np.abs(a_est - np.array(inputs.OU_MATRIX)).max())
    if not gap <= DRIFT_TOL:
        errors.append(f"drift recovery: max |A_est - A_true| = {gap:.4f} > {DRIFT_TOL}")
    te = np.array(doc["te"])
    for i in range(1, len(te)):
        if not te[i, i - 1] > te[i - 1, i]:
            errors.append(f"te chain {i - 1}->{i}: {te[i, i - 1]} not above reverse {te[i - 1, i]}")
    eps = inputs.BINARY_EPS
    analytic = 1.0 + eps * math.log2(eps) + (1 - eps) * math.log2(1 - eps)
    if not abs(doc["binary_te_xy"] - analytic) <= BINARY_TE_TOL:
        errors.append(f"coupled binary TE {doc['binary_te_xy']} vs 1 - H_b(eps) = {analytic}")
    if not 0.0 <= doc["binary_te_yx"] <= BINARY_NULL_TOL:
        errors.append(f"coupled binary reverse TE {doc['binary_te_yx']} above {BINARY_NULL_TOL}")
    return errors
