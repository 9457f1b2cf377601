"""Linear drift-matrix estimation from conditional increment moments.

The model is dx/dt = A x. With y_i(t) = x_i(t + lag) - x_i(t), the linear
ansatz gives <y_i x_j> = sum_k psi_{i,k} <x_k x_j> with psi = duration * A,
so each row of psi solves the second-moment linear system and A, which
``DriftEstimate`` computes rather than stores, divides out the lag duration.
Moments are raw (uncentered); ``drift_estimate``, the one entry point that
builds and solves the system from a panel, centers the columns first because
series with a nonzero mean would otherwise bias the intercept-free fit, and
the centering is recorded in the output metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularMomentMatrix, TooFewSamples
from .matrices import ORIENTATION, InteractionMatrix, freeze
from .stats import ReturnsMatrix

COND_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class DriftEstimate:
    """psi (dimensionless), the lag duration dt, and the solve diagnostics;
    the drift matrix A = psi / dt is computed on each read, not stored."""

    psi: np.ndarray
    dt: float
    moment_matrix: np.ndarray
    cond: float
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("psi", "moment_matrix"):
            freeze(self, name)

    @property
    def A(self) -> np.ndarray:
        return self.psi / self.dt

    def to_dict(self) -> dict:
        return {
            "psi": self.psi.tolist(),
            "A": self.A.tolist(),
            "dt": self.dt,
            "moment_matrix": self.moment_matrix.tolist(),
            "cond": self.cond,
            "params": self.params,
        }


def increment_moments(returns, dt: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Raw increment and second moments at integer lag ``dt``.

    cross[i][j] = mean over t of (x_i(t+dt) - x_i(t)) * x_j(t)
    second[k][j] = mean over t of x_k(t) * x_j(t)

    Both averages run over the same t range (the first samples - dt rows), so
    the pair forms a consistent normal system. Columns are used as given; any
    centering is the caller's choice.
    """
    x = returns.values if isinstance(returns, ReturnsMatrix) else np.asarray(returns, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, np.newaxis]
    m = x.shape[0]
    if dt < 1:
        raise ValueError("dt must be >= 1")
    if m - dt < 2:
        raise TooFewSamples(f"lag {dt} leaves fewer than 2 increments in {m} samples")
    base = x[: m - dt]
    incr = x[dt:] - base
    denom = float(m - dt)
    cross = incr.T @ base / denom
    second = base.T @ base / denom
    second = (second + second.T) / 2.0
    return cross, second


def solve_drift(cross: np.ndarray, second: np.ndarray, dt: float = 1.0, ridge: float = 0.0) -> DriftEstimate:
    """Solve second . psi_i = cross_i per row; A = psi / dt.

    ``dt`` is the duration of the lag in series time units. ``ridge`` adds
    lambda * I to the moment matrix (Tikhonov) for near-singular systems;
    with ridge disabled a condition estimate above 1e12 raises.
    """
    cross = np.asarray(cross, dtype=np.float64)
    second = np.asarray(second, dtype=np.float64)
    if second.shape[0] != second.shape[1] or cross.shape != second.shape:
        raise ValueError("cross and second must be square with matching shape")
    if not np.allclose(second, second.T, atol=1e-10, rtol=0.0):
        raise ValueError("second-moment matrix must be symmetric")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if ridge < 0:
        raise ValueError("ridge must be >= 0")

    system = second + ridge * np.eye(second.shape[0]) if ridge > 0 else second
    cond = float(np.linalg.cond(system))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        if ridge > 0:
            raise SingularMomentMatrix(f"condition {cond:.3e} above {COND_LIMIT:.0e} despite ridge {ridge}")
        raise SingularMomentMatrix(f"condition {cond:.3e} above {COND_LIMIT:.0e}; enable ridge to regularize")
    # second . psi_i = cross_i for each row i <=> system @ psi.T = cross.T
    psi = np.linalg.solve(system, cross.T).T
    return DriftEstimate(
        psi=psi,
        dt=dt,
        moment_matrix=second,
        cond=cond,
        params={"ridge": ridge},
    )


def drift_estimate(
    returns: ReturnsMatrix,
    dt: int = 1,
    step_duration: float = 1.0,
    center: bool = True,
    ridge: float = 0.0,
) -> DriftEstimate:
    """Full DriftEstimate (psi, A, moment matrix, cond) from the lag-``dt`` moment system.

    ``dt`` is the lag in sampling steps, ``step_duration`` the length of one
    step in series time units (1.0 for daily data in per-day units); A is
    psi divided by dt * step_duration.
    """
    x = returns.values
    if center:
        x = x - x.mean(axis=0)
    cross, second = increment_moments(x, dt=dt)
    est = solve_drift(cross, second, dt=dt * step_duration, ridge=ridge)
    est.params.update({"lag_steps": dt, "step_duration": step_duration, "centered": center})
    return est


def drift_matrix(est: DriftEstimate, asset_ids) -> InteractionMatrix:
    """The drift interaction matrix A of an estimate made by ``drift_estimate``.

    values[i][j] is the effect of asset j on the growth rate of asset i;
    negative diagonals indicate mean reversion.
    """
    p = est.params
    return InteractionMatrix(
        asset_ids=asset_ids,
        values=est.A,
        measure="km_drift",
        params={
            "orientation": ORIENTATION,
            "lag_steps": p["lag_steps"],
            "step_duration": p["step_duration"],
            "centered": p["centered"],
            "ridge": p["ridge"],
            "cond": est.cond,
        },
    )

