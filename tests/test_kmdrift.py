import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infodrift import compute_matrix, gen_ou, gen_var1, increment_moments, solve_drift
from infodrift.errors import SingularMomentMatrix, TooFewSamples
from infodrift.kmdrift import drift_estimate, drift_matrix
from infodrift.stats import ReturnsMatrix


def returns_of(values, ids=None):
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    ids = tuple(ids) if ids else tuple(f"A{i}" for i in range(values.shape[1]))
    return ReturnsMatrix(asset_ids=ids, values=values, kind="log")


def test_increment_moments_hand_arithmetic():
    x = np.array([1.0, 0.5, 0.25, 0.125])
    cross, second = increment_moments(returns_of(x), dt=1)
    assert second[0, 0] == pytest.approx((1.0 + 0.25 + 0.0625) / 3, abs=1e-15)
    assert cross[0, 0] == pytest.approx((-0.5 - 0.125 - 0.03125) / 3, abs=1e-15)


def test_increment_moments_lag_too_large():
    x = np.array([1.0, 0.5, 0.25, 0.125])
    with pytest.raises(TooFewSamples):
        increment_moments(returns_of(x), dt=3)


def test_increment_moments_collinear_columns_rank_deficient():
    rng = np.random.default_rng(0)
    col = rng.normal(size=100)
    _, second = increment_moments(returns_of(np.column_stack([col, col])), dt=1)
    assert abs(np.linalg.det(second)) < 1e-12


def test_solve_drift_identity_system():
    cross = np.array([[0.3, -0.1], [0.05, 0.2]])
    est = solve_drift(cross, np.eye(2), dt=1.0)
    assert np.allclose(est.psi, cross, atol=1e-12)
    assert np.allclose(est.A, cross, atol=1e-12)


def test_solve_drift_one_dimensional_analytic():
    # x_{t+1} = 0.5 x_t exactly: psi = cross / second = -0.5
    x = np.array([1.0, 0.5, 0.25, 0.125])
    cross, second = increment_moments(returns_of(x), dt=1)
    est = solve_drift(cross, second, dt=1.0)
    assert est.psi[0, 0] == -0.5
    assert est.A[0, 0] == -0.5


def test_solve_drift_singular_matrix():
    second = np.array([[1.0, 1.0], [1.0, 1.0]])
    cross = np.array([[0.1, 0.1], [0.1, 0.1]])
    with pytest.raises(SingularMomentMatrix):
        solve_drift(cross, second, dt=1.0)


def test_solve_drift_ridge_rescues_singular_system():
    second = np.array([[1.0, 1.0], [1.0, 1.0]])
    cross = np.array([[0.1, 0.1], [0.1, 0.1]])
    est = solve_drift(cross, second, dt=1.0, ridge=1e-6)
    assert np.all(np.isfinite(est.psi))
    assert est.params["ridge"] == 1e-6


def test_solve_drift_residual_consistency():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5000, 3))
    cross, second = increment_moments(returns_of(x), dt=1)
    est = solve_drift(cross, second, dt=1.0)
    for i in range(3):
        residual = second @ est.psi[i] - cross[i]
        assert np.linalg.norm(residual) <= 1e-10 * max(np.linalg.norm(cross[i]), 1e-12)


def test_white_noise_identity():
    rng = np.random.default_rng(2)
    m = compute_matrix(returns_of(rng.normal(size=(40000, 3)) * 0.01), "km_drift", dt=1)
    assert np.allclose(np.diag(m.values), -1.0, atol=0.05)
    off = m.values[~np.eye(3, dtype=bool)]
    assert np.all(np.abs(off) < 0.05)


def test_km_matrix_metadata():
    rng = np.random.default_rng(3)
    m = compute_matrix(returns_of(rng.normal(size=(500, 2))), "km_drift", dt=1)
    assert m.measure == "km_drift"
    assert m.directed
    assert m.units == "per-step"
    assert m.params["centered"] is True
    assert m.params["cond"] > 0


@given(st.sampled_from([0.25, 0.5, 2.0, 4.0, 8.0]))
@settings(max_examples=20, deadline=None)
def test_column_scaling_equivariance(c):
    rng = np.random.default_rng(4)
    x = gen_var1(np.array([[0.3, 0.1], [-0.2, 0.4]]), sigma=1.0, steps=2000, seed=5).values
    base = compute_matrix(returns_of(x), "km_drift", dt=1).values
    scaled_data = x.copy()
    scaled_data[:, 1] = scaled_data[:, 1] * c
    scaled = compute_matrix(returns_of(scaled_data), "km_drift", dt=1).values
    expected = base.copy()
    expected[1, :] = expected[1, :] * c
    expected[:, 1] = expected[:, 1] / c
    assert np.allclose(scaled, expected, atol=1e-10)


def test_var1_step_map_recovered_in_low_noise():
    a_step = np.array([[0.6, 0.2], [0.0, 0.5]])
    panel = gen_var1(a_step, sigma=0.001, steps=50000, seed=6, x0=np.array([1.0, 1.0]))
    est = drift_estimate(panel, dt=1, center=False)
    # psi estimates the step map minus identity
    assert np.allclose(est.psi + np.eye(2), a_step, atol=0.01)


def test_ou_noise_free_scalar_decay_exact():
    panel = gen_ou(np.array([[-1.0]]), sigma=0.0, dt_sim=0.01, steps=200, seed=7, x0=np.array([1.0]))
    m = drift_matrix(drift_estimate(panel, dt=1, step_duration=0.01, center=False), panel.asset_ids)
    assert m.values[0, 0] == pytest.approx(-1.0, abs=1e-9)


def test_ou_two_dim_recovery_moderate_scale():
    a_true = np.array([[-0.5, 0.2], [0.0, -0.3]])
    panel = gen_ou(a_true, sigma=0.1, dt_sim=0.01, steps=200000, seed=8)
    m = compute_matrix(panel, "km_drift", dt=1, step_duration=0.01)
    assert np.allclose(m.values, a_true, atol=0.05)


def test_drift_estimate_serialization_fields():
    rng = np.random.default_rng(9)
    est = drift_estimate(returns_of(rng.normal(size=(300, 2))), dt=1)
    doc = est.to_dict()
    assert set(doc) == {"psi", "A", "dt", "moment_matrix", "cond", "params"}
    assert np.allclose(np.array(doc["A"]), np.array(doc["psi"]) / doc["dt"])
