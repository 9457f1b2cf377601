import tracemalloc

import numpy as np
import pytest

from infodrift import compute_matrix, gen_coupled_binary, gen_ou, gen_var1, synth, te_matrix
from infodrift.discretize import bin_series
from infodrift.errors import UnstableSpec
from infodrift.infoflow import surrogate_floor, transfer_entropy
from infodrift.synth import binary_entropy, standard_normals

from conftest import scalar_recurrence


def test_coupled_binary_eps_zero_is_exact_shift():
    x, y = gen_coupled_binary(0.0, 500, seed=1)
    assert np.array_equal(y.symbols[1:], x.symbols[:-1])


def test_coupled_binary_marginals_fair():
    x, y = gen_coupled_binary(0.3, 20000, seed=2)
    assert abs(x.symbols.mean() - 0.5) < 0.02
    assert abs(y.symbols.mean() - 0.5) < 0.02


def test_coupled_binary_eps_bounds():
    with pytest.raises(ValueError):
        gen_coupled_binary(0.7, 100)
    with pytest.raises(ValueError):
        gen_coupled_binary(-0.1, 100)


def test_binary_entropy_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(0.1) == pytest.approx(0.4689955935892812, abs=1e-12)


def test_fixed_seed_bitwise_reproducible():
    a1 = gen_var1(np.array([[0.5]]), sigma=1.0, steps=1000, seed=42)
    a2 = gen_var1(np.array([[0.5]]), sigma=1.0, steps=1000, seed=42)
    assert a1.values.shape == (1000, 1)
    assert np.array_equal(a1.values, a2.values)
    b1, c1 = gen_coupled_binary(0.2, 1000, seed=9)
    b2, c2 = gen_coupled_binary(0.2, 1000, seed=9)
    assert np.array_equal(b1.symbols, b2.symbols)
    assert np.array_equal(c1.symbols, c2.symbols)


def test_different_seeds_differ():
    a = gen_var1(np.array([[0.5]]), sigma=1.0, steps=200, seed=1)
    b = gen_var1(np.array([[0.5]]), sigma=1.0, steps=200, seed=2)
    assert not np.array_equal(a.values, b.values)


def test_standard_normals_moments_and_odd_count():
    rng = np.random.Generator(np.random.PCG64(3))
    z = standard_normals(rng, 100001)
    assert len(z) == 100001
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02
    assert abs(float(np.mean(z**3))) < 0.05  # symmetric


def test_gen_ou_rejects_unstable_drift():
    with pytest.raises(UnstableSpec):
        gen_ou(np.array([[0.1]]), sigma=0.1, dt_sim=0.01, steps=100)
    with pytest.raises(UnstableSpec):
        gen_ou(np.array([[-0.5, 2.0], [2.0, -0.5]]), sigma=0.1, dt_sim=0.01, steps=100)


def test_gen_var1_rejects_explosive_step_map():
    with pytest.raises(UnstableSpec):
        gen_var1(np.array([[1.01]]), sigma=0.1, steps=100)
    with pytest.raises(ValueError):
        gen_var1(np.array([[0.5]]), sigma=0.1, steps=0)


def test_generators_refuse_an_empty_matrix():
    with pytest.raises(ValueError, match=r"^a_step must be square and non-empty, got shape \(0, 0\)$"):
        gen_var1(np.zeros((0, 0)), sigma=0.1, steps=10)
    with pytest.raises(ValueError, match=r"^a_true must be square and non-empty, got shape \(0, 0\)$"):
        gen_ou(np.zeros((0, 0)), sigma=0.1, dt_sim=0.01, steps=10)
    with pytest.raises(ValueError, match=r"^a_step must be square and non-empty, got shape \(1, 2\)$"):
        gen_var1(np.zeros((1, 2)), sigma=0.1, steps=10)


def _chunk_steps(n):
    """Steps per noise chunk of gen_var1 at n assets."""
    return 2 * max(1, synth._CHUNK_VALUES // (2 * n))


@pytest.mark.parametrize("n", [1, 3, 4])
def test_gen_var1_equals_the_whole_noise_oracle_bit_for_bit(n):
    # the chunked draw reads the stream as one draw of steps * n normals,
    # odd steps * n (a dropped trailing z2) included
    rng = np.random.default_rng(n)
    a_step = np.tril(rng.uniform(-0.4, 0.4, size=(n, n)))
    x0 = rng.normal(size=n)
    chunk = _chunk_steps(n)
    for steps in (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 1):
        out = gen_var1(a_step, sigma=0.7, steps=steps, seed=11, x0=x0)
        noise = 0.7 * standard_normals(synth._rng(11), steps * n).reshape(steps, n)
        ref = scalar_recurrence(a_step, noise, x0)
        assert np.array_equal(out.values.view(np.int64), ref[1:].view(np.int64)), steps


def test_gen_var1_memory_stays_near_the_output():
    a_step = np.tril(np.full((4, 4), 0.2))
    gen_var1(a_step, sigma=0.1, steps=10)  # compiles the n=4 step loop
    tracemalloc.start()
    try:
        out = gen_var1(a_step, sigma=0.1, steps=50_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    path = out.values.base  # the output path, x_0 included
    assert path.nbytes == 1_600_032  # 1.5 MiB
    assert peak - path.nbytes < 2 * 2**20, peak


@pytest.mark.parametrize("call, message", [
    (lambda: gen_var1(np.array([[0.5]]), sigma=float("nan"), steps=10), "sigma must be finite, got nan"),
    (lambda: gen_var1(np.array([[0.5]]), sigma=float("inf"), steps=10), "sigma must be finite, got inf"),
    (lambda: gen_var1(np.eye(2) / 2, sigma=0.1, steps=10, x0=[0.0, float("-inf")]),
     "x0 must be finite, got -inf"),
    (lambda: gen_ou(np.array([[-1.0]]), sigma=0.1, dt_sim=float("nan"), steps=10), "dt_sim must be finite, got nan"),
    (lambda: gen_ou(np.array([[-1.0]]), sigma=0.1, dt_sim=float("inf"), steps=10), "dt_sim must be finite, got inf"),
    (lambda: gen_ou(np.array([[-1.0]]), sigma=float("nan"), dt_sim=0.01, steps=10), "sigma must be finite, got nan"),
    (lambda: gen_ou(np.array([[-1.0]]), sigma=0.1, dt_sim=0.01, steps=10, x0=[float("nan")]),
     "x0 must be finite, got nan"),
], ids=["var1-sigma-nan", "var1-sigma-inf", "var1-x0", "ou-dt-nan", "ou-dt-inf", "ou-sigma", "ou-x0"])
def test_non_finite_parameters_are_rejected_before_any_draw(monkeypatch, call, message):
    drawn = []
    monkeypatch.setattr(synth, "standard_normals", lambda *a: drawn.append(a))
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
    assert not drawn


def _lyapunov_cov(a, sigma):
    # continuous-time stationary covariance: A C + C A^T + sigma^2 I = 0
    n = a.shape[0]
    lhs = np.kron(np.eye(n), a) + np.kron(a, np.eye(n))
    rhs = -(sigma**2) * np.eye(n).reshape(-1)
    return np.linalg.solve(lhs, rhs).reshape(n, n)


def test_gen_ou_covariance_near_lyapunov_solution():
    a_true = np.array([[-0.5, 0.2], [0.0, -0.3]])
    sigma = 0.1
    panel = gen_ou(a_true, sigma=sigma, dt_sim=0.01, steps=1000000, seed=4)
    sample_cov = np.cov(panel.values, rowvar=False)
    expected = _lyapunov_cov(a_true, sigma)
    assert np.allclose(sample_cov, expected, rtol=0.10)


def test_var_zero_coupling_te_at_floor_km_offdiag_zero():
    a_step = np.diag([0.5, 0.5])
    panel = gen_var1(a_step, sigma=1.0, steps=30000, seed=5)
    seqs = [bin_series(panel.values[:, k], 2) for k in range(2)]
    te = te_matrix(seqs, asset_ids=panel.asset_ids)
    floor = surrogate_floor(seqs[0], seqs[1], shuffles=10, seed=6)
    assert np.all(te.off_diagonal() < max(5 * floor, 0.003))
    km = compute_matrix(panel, "km_drift", dt=1)
    off = km.values[~np.eye(2, dtype=bool)]
    assert np.all(np.abs(off) < 0.05)


def test_var_single_directed_edge_detected():
    # x0 drives x1; no feedback
    a_step = np.array([[0.5, 0.0], [0.4, 0.3]])
    panel = gen_var1(a_step, sigma=1.0, steps=30000, seed=7)
    seqs = [bin_series(panel.values[:, k], 2) for k in range(2)]
    te = te_matrix(seqs, asset_ids=panel.asset_ids)
    forward = te.values[1, 0]  # flow 0 -> 1
    backward = te.values[0, 1]
    floor = surrogate_floor(seqs[0], seqs[1], shuffles=10, seed=8)
    assert forward > 10 * max(floor, 1e-4)
    assert backward < 5 * max(floor, 1e-3)
