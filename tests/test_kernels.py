import importlib
import importlib.util
from pathlib import Path

import numpy as np

from infodrift import cli, discretize, infoflow, kernels, measures, stats, synth

SPANS = Path(__file__).resolve().parents[1] / "pipebench" / "spans.py"


def _random_case(seed, steps=4000, n=3):
    rng = np.random.default_rng(seed)
    coeffs = np.ascontiguousarray(rng.normal(size=(n, n)) * 0.25)
    noise = np.ascontiguousarray(rng.normal(size=(steps, n)))
    x0 = np.ascontiguousarray(rng.normal(size=n))
    return coeffs, noise, x0


def test_pure_recurrence_matches_matmul_reference():
    coeffs, noise, x0 = _random_case(4, steps=200, n=2)
    out = kernels.linear_recurrence(coeffs, noise, x0)
    x = x0.copy()
    assert np.array_equal(out[0], x0)
    for t in range(200):
        x = coeffs @ x + noise[t]
        assert np.allclose(out[t + 1], x, atol=1e-12)


def test_pure_counts_are_exact():
    codes = np.array([0, 3, 3, 1, 0, 0], dtype=np.int64)
    assert list(kernels.joint_counts(codes, 4)) == [3, 1, 0, 2]


def test_benchmark_trace_targets_exist():
    # the traced benchmark wraps these names and rebinds them wherever they
    # were imported, so a rename or a module-qualified call would drop spans
    spec = importlib.util.spec_from_file_location("pipebench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer, names in spans.TARGETS.items():
        module = importlib.import_module(f"infodrift.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"infodrift.{layer}.{name}"
    # the measure driver and the CLI call these by the names they import
    assert measures.bin_series is discretize.bin_series
    assert measures.te_matrix is infoflow.te_matrix
    assert measures.mi_matrix is infoflow.mi_matrix
    assert measures.correlation_matrix is stats.correlation_matrix
    assert cli.te_floor_matrix is infoflow.te_floor_matrix
    assert kernels.BACKEND == "python"
    assert discretize.joint_counts is kernels.joint_counts
    assert infoflow.joint_counts is kernels.joint_counts
    assert synth.linear_recurrence is kernels.linear_recurrence
