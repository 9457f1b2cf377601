import numpy as np
import pytest

from infodrift import synth
from infodrift.kernels import _pykernels

try:
    from infodrift.kernels import _ckernels
except ImportError:
    _ckernels = None

needs_ext = pytest.mark.skipif(_ckernels is None, reason="compiled kernels not built")


def _random_case(seed, steps=4000, n=3):
    rng = np.random.default_rng(seed)
    coeffs = np.ascontiguousarray(rng.normal(size=(n, n)) * 0.25)
    noise = np.ascontiguousarray(rng.normal(size=(steps, n)))
    x0 = np.ascontiguousarray(rng.normal(size=n))
    return coeffs, noise, x0


@needs_ext
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_recurrence_backends_bitwise_equal(seed):
    coeffs, noise, x0 = _random_case(seed)
    assert np.array_equal(
        _ckernels.linear_recurrence(coeffs, noise, x0),
        _pykernels.linear_recurrence(coeffs, noise, x0),
    )


def test_pure_recurrence_matches_matmul_reference():
    coeffs, noise, x0 = _random_case(4, steps=200, n=2)
    out = _pykernels.linear_recurrence(coeffs, noise, x0)
    x = x0.copy()
    assert np.array_equal(out[0], x0)
    for t in range(200):
        x = coeffs @ x + noise[t]
        assert np.allclose(out[t + 1], x, atol=1e-12)


def test_pure_counts_are_exact():
    codes = np.array([0, 3, 3, 1, 0, 0], dtype=np.int64)
    assert list(_pykernels.joint_counts(codes, 4)) == [3, 1, 0, 2]


@needs_ext
def test_synthetic_panels_identical_across_backends(monkeypatch):
    # the full generator path must not depend on which backend produced it
    outs = []
    for impl in (_ckernels, _pykernels):
        monkeypatch.setattr(synth, "linear_recurrence", impl.linear_recurrence)
        p = synth.gen_ou(np.array([[-0.5, 0.2], [0.0, -0.3]]), sigma=0.1, dt_sim=0.01, steps=2000, seed=11)
        outs.append(p.values)
    assert np.array_equal(outs[0], outs[1])
