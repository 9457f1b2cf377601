"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report. Criterion 7 needs real vendor data and is skipped unless
INFODRIFT_REFERENCE_PANEL points at a directory with nasdaq.csv, crude_oil.csv,
gold.csv, us_dollar.csv (Date / Adj Close columns).
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from infodrift import (
    compute_matrix,
    evolve,
    gen_coupled_binary,
    gen_ou,
    gen_var1,
    joint_histogram,
    mutual_information,
    surrogate_floor,
    transfer_entropy,
)
from infodrift.discretize import SymbolSequence, bin_series
from infodrift.infoflow import mi_matrix, te_matrix
from infodrift.matrices import InteractionMatrix
from infodrift.netout import emit, load_matrix_csv, load_matrix_json
from infodrift.stats import ReturnsMatrix, compute_returns, correlation_matrix, describe
from infodrift.synth import binary_entropy
from infodrift.windows import WindowSpec, make_windows

from conftest import child_pythonpath
from test_infoflow import brute_mi, brute_te, seq_of


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}): {detail}"


# ------------------------------------------------------------------ 1

def test_criterion_1_te_directional_coupling():
    analytic = 1.0 - binary_entropy(0.1)
    start = time.perf_counter()
    x, y = gen_coupled_binary(0.1, 100000, seed=101)
    forward = transfer_entropy(x, y)
    backward = transfer_entropy(y, x)
    elapsed = time.perf_counter() - start
    ok = abs(forward - analytic) <= 0.03 and backward <= 0.01 and elapsed < 5.0
    _report(
        1, "TE directional-coupling oracle", ok,
        f"TE(x->y)={forward:.4f} vs {analytic:.4f}, TE(y->x)={backward:.5f}, {elapsed:.2f}s",
    )


# ------------------------------------------------------------------ 2

def test_criterion_2_te_null_floor():
    te_values, floor_values = [], []
    for seed in range(20):
        rng = np.random.Generator(np.random.PCG64(200 + seed))
        x = seq_of((rng.random(100000) < 0.5).astype(np.int64), 2)
        y = seq_of((rng.random(100000) < 0.5).astype(np.int64), 2)
        te_values.append(transfer_entropy(x, y))
        floor_values.append(surrogate_floor(x, y, shuffles=5, seed=seed))
    mean_te = float(np.mean(te_values))
    mean_floor = float(np.mean(floor_values))
    ok = mean_te <= 0.005 and mean_te / 2 <= mean_floor <= mean_te * 2
    _report(
        2, "TE null floor", ok,
        f"mean TE={mean_te:.2e}, surrogate floor={mean_floor:.2e}",
    )


# ------------------------------------------------------------------ 3

def test_criterion_3_km_drift_recovery():
    a_true = np.array([[-0.5, 0.2], [0.0, -0.3]])
    start = time.perf_counter()
    panel = gen_ou(a_true, sigma=0.1, dt_sim=0.01, steps=1000000, seed=301)
    recovered = compute_matrix(panel, "km_drift", dt=1, step_duration=0.01).values
    elapsed = time.perf_counter() - start
    err = float(np.max(np.abs(recovered - a_true)))
    ok = err <= 0.02 and elapsed < 30.0
    _report(3, "KM drift recovery", ok, f"max |A - A_true| = {err:.4f}, {elapsed:.2f}s")


# ------------------------------------------------------------------ 4

def test_criterion_4_km_white_noise_identity():
    panel = gen_var1(np.zeros((4, 4)), sigma=1.0, steps=100000, seed=401)
    a = compute_matrix(panel, "km_drift", dt=1).values
    diag_err = float(np.max(np.abs(np.diag(a) + 1.0)))
    off = a[~np.eye(4, dtype=bool)]
    off_err = float(np.max(np.abs(off)))
    ok = diag_err <= 0.05 and off_err <= 0.05
    _report(
        4, "KM white-noise identity", ok,
        f"max |diag + 1| = {diag_err:.4f}, max |offdiag| = {off_err:.4f}",
    )


# ------------------------------------------------------------------ 5

def test_criterion_5_plugin_equivalence():
    rng = np.random.Generator(np.random.PCG64(501))
    worst_mi = worst_te = 0.0
    for _ in range(100):
        n = int(rng.integers(10, 51))
        bx = int(rng.integers(2, 5))
        by = int(rng.integers(2, 5))
        a = rng.integers(0, bx, size=n)
        b = rng.integers(0, by, size=n)
        x, y = seq_of(a, bx), seq_of(b, by)
        worst_mi = max(worst_mi, abs(mutual_information(x, y) - brute_mi(tuple(a), tuple(b))))
        worst_te = max(worst_te, abs(transfer_entropy(x, y) - brute_te(tuple(a), tuple(b))))
    ok = worst_mi <= 1e-12 and worst_te <= 1e-12
    _report(
        5, "plug-in equals brute-force enumeration", ok,
        f"max |MI diff| = {worst_mi:.2e}, max |TE diff| = {worst_te:.2e}",
    )


# ------------------------------------------------------------------ 6

def _eps_for_te(target_bits: float) -> float:
    # invert 1 - H_b(eps) = target by bisection on [0, 0.5]
    lo, hi = 0.0, 0.5
    for _ in range(80):
        mid = (lo + hi) / 2
        if 1.0 - binary_entropy(mid) > target_bits:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_criterion_6_regime_shift_detection():
    eps = _eps_for_te(0.2)
    assert abs((1 - binary_entropy(eps)) - 0.2) < 1e-9
    half = 10000
    x1, y1 = gen_coupled_binary(0.5, half, seed=601)  # decoupled regime
    x2, y2 = gen_coupled_binary(eps, half, seed=602)  # coupled regime
    values = np.column_stack([
        np.concatenate([x1.symbols, x2.symbols]),
        np.concatenate([y1.symbols, y2.symbols]),
    ]).astype(np.float64)
    panel = ReturnsMatrix(asset_ids=("X", "Y"), values=values, kind="log")
    result = evolve(panel, WindowSpec(mode="segmented", segments=10), "transfer_entropy", bins=2)
    mask = ~np.eye(2, dtype=bool)
    means = np.array([values[mask].mean() for values in result.values])
    pre, post = means[:5].mean(), means[5:].mean()
    ok = post >= 1.30 * pre
    _report(
        6, "regime-shift detection", ok,
        f"eps={eps:.4f}, pre-shift mean TE={pre:.5f}, post-shift={post:.5f}, "
        f"ratio={post / pre:.1f}x",
    )


# ------------------------------------------------------------------ 7

REFERENCE_STATS = {
    # asset file stem -> (mean, std, skewness, excess kurtosis)
    "nasdaq": (0.00062, 0.0133, -0.4417, 7.5326),
    "crude_oil": (0.00057, 0.0294, 1.1527, 25.138),
    "gold": (0.00029, 0.0092, 0.0086, 3.7718),
    "us_dollar": (0.0001, 0.0043, -0.0757, 1.6591),
}


def test_criterion_7_vendor_panel_tables():
    panel_dir = os.environ.get("INFODRIFT_REFERENCE_PANEL")
    if not panel_dir:
        print("[criterion 7] vendor-panel tables: SKIPPED (INFODRIFT_REFERENCE_PANEL not set)")
        pytest.skip("vendor data not supplied")
    from infodrift import align, load_csv

    series = [load_csv(os.path.join(panel_dir, f"{stem}.csv"), asset_id=stem) for stem in REFERENCE_STATS]
    panel = align(series)
    returns = compute_returns(panel, "log")
    summary = describe(returns)
    issues = []
    for i, stem in enumerate(REFERENCE_STATS):
        _, std_exp, _, kurt_exp = REFERENCE_STATS[stem]
        if abs(summary.std[i] - std_exp) > 0.10 * abs(std_exp):
            issues.append(f"{stem} std {summary.std[i]:.4f} vs {std_exp}")
        if abs(summary.excess_kurtosis[i] - kurt_exp) > 0.10 * abs(kurt_exp):
            issues.append(f"{stem} kurtosis {summary.excess_kurtosis[i]:.3f} vs {kurt_exp}")
    corr = correlation_matrix(returns).values
    gold_dollar = corr[2, 3]
    if abs(gold_dollar - (-0.4)) > 0.05:
        issues.append(f"gold/us_dollar corr {gold_dollar:.3f} vs -0.4")
    seqs = [bin_series(returns.values[:, k], 8) for k in range(4)]
    te = te_matrix(seqs, asset_ids=returns.asset_ids).values
    off = te.copy()
    np.fill_diagonal(off, -np.inf)
    strongest = np.unravel_index(np.argmax(off), off.shape)
    if set(strongest) != {2, 3}:
        issues.append(f"strongest TE pair {strongest} is not gold/us_dollar")
    km = compute_matrix(returns, "km_drift", dt=1).values
    if not np.all(np.diag(km) < 0):
        issues.append(f"drift diagonals not all negative: {np.diag(km)}")
    _report(7, "vendor-panel tables", not issues, "; ".join(issues) or "all table checks in range")


# ------------------------------------------------------------------ 8

def _run_cli(args, cwd, threads: str):
    env = dict(
        os.environ,
        SOURCE_DATE_EPOCH="946684800",
        PYTHONPATH=child_pythonpath(),
        OMP_NUM_THREADS=threads,
        OPENBLAS_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )
    return subprocess.run(
        [sys.executable, "-m", "infodrift", *args],
        cwd=cwd, env=env, capture_output=True, text=True,
    )


def test_criterion_8_bit_identical_runs(tmp_path):
    blobs = []
    for run, threads in (("run1", "1"), ("run2", "4")):
        cwd = tmp_path / run
        cwd.mkdir()
        proc = _run_cli(
            ["--out", "sim", "--seed", "11", "simulate", "--kind", "var1", "--steps", "500",
             "--matrix", "[[0.4, 0.0], [0.3, 0.2]]", "--sigma", "0.01"],
            cwd=cwd, threads=threads,
        )
        assert proc.returncode == 0, proc.stderr
        proc = _run_cli(
            ["--out", "out", "--seed", "7", "--bins", "4", "--windows", "segmented:5",
             "evolve", "--measures", "te,corr", "sim/S1.csv", "sim/S2.csv"],
            cwd=cwd, threads=threads,
        )
        assert proc.returncode == 0, proc.stderr
        proc = _run_cli(
            ["--out", "out2", "--seed", "7", "--bins", "4", "--surrogates", "4",
             "analyze", "--measures", "corr,mi,te,km", "sim/S1.csv", "sim/S2.csv"],
            cwd=cwd, threads=threads,
        )
        assert proc.returncode == 0, proc.stderr
        files = []
        for sub in ("sim", "out", "out2"):
            files.extend(sorted((cwd / sub).iterdir()))
        blobs.append({f"{f.parent.name}/{f.name}": f.read_bytes() for f in files})
    same_names = blobs[0].keys() == blobs[1].keys()
    diffs = [name for name in blobs[0] if blobs[0].get(name) != blobs[1].get(name)]
    ok = same_names and not diffs
    _report(
        8, "bit-identical outputs across runs and thread counts", ok,
        f"{len(blobs[0])} files compared" + (f"; differing: {diffs}" if diffs else ""),
    )


# ------------------------------------------------------------------ 9

def test_criterion_9_invariant_suite(tmp_path):
    rng = np.random.Generator(np.random.PCG64(901))
    checks = []

    # MI symmetry and non-negativity, TE non-negativity
    a = seq_of(rng.integers(0, 3, size=400), 3)
    b = seq_of(rng.integers(0, 4, size=400), 4)
    mi_ab, mi_ba = mutual_information(a, b), mutual_information(b, a)
    checks.append(("mi symmetry", abs(mi_ab - mi_ba) <= 1e-12))
    checks.append(("mi non-negative", mi_ab >= 0.0))
    checks.append(("te non-negative", transfer_entropy(a, b) >= 0.0))

    # histogram marginalization exactness (integer equality)
    joint = joint_histogram([a, b], lags=[0, 1])
    checks.append((
        "marginalization exact",
        np.array_equal(joint.marginal((0,)).counts, joint.counts.sum(axis=1))
        and np.array_equal(joint.marginal((1,)).counts, joint.counts.sum(axis=0)),
    ))

    # windows partition exactness
    ok_windows = True
    for t, k in ((100, 7), (23, 23), (2513, 10)):
        windows = make_windows(t, WindowSpec(mode="segmented", segments=k))
        covered = [i for lo, hi in windows for i in range(lo, hi)]
        ok_windows &= covered == list(range(t))
    checks.append(("segmented windows partition", ok_windows))

    # KM scale equivariance
    x = gen_var1(np.array([[0.3, 0.1], [-0.1, 0.2]]), sigma=1.0, steps=3000, seed=902).values
    base = compute_matrix(ReturnsMatrix(asset_ids=("a", "b"), values=x, kind="log"), "km_drift").values
    scaled_x = x.copy()
    scaled_x[:, 0] *= 4.0
    scaled = compute_matrix(ReturnsMatrix(asset_ids=("a", "b"), values=scaled_x, kind="log"), "km_drift").values
    expected = base.copy()
    expected[0, :] *= 4.0
    expected[:, 0] /= 4.0
    checks.append(("km scale equivariance", bool(np.allclose(scaled, expected, atol=1e-10))))

    # serialization round-trips
    values = rng.normal(size=(3, 3))
    m = InteractionMatrix(
        asset_ids=("p", "q", "r"), values=values,
        measure="km_drift",
    )
    emit(m, "json", tmp_path / "m.json")
    emit(m, "csv", tmp_path / "m.csv")
    round_json = load_matrix_json(tmp_path / "m.json")
    round_csv = load_matrix_csv(tmp_path / "m.csv")
    checks.append((
        "serialization round-trip",
        np.array_equal(round_json.values, m.values) and np.array_equal(round_csv.values, m.values),
    ))

    # SVG byte determinism
    emit(m, "svg_heatmap", tmp_path / "a.svg")
    emit(m, "svg_heatmap", tmp_path / "b.svg")
    checks.append(("svg deterministic", (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()))

    failed = [name for name, ok in checks if not ok]
    _report(9, "invariant suite", not failed, f"{len(checks)} invariants" + (f"; failed: {failed}" if failed else ""))
