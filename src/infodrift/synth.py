"""Seeded synthetic processes used as ground-truth oracles.

Randomness comes from a PCG64 stream (a named, portable generator with
published reference output). Standard normals are produced by the Box-Muller
transform of 53-bit uniforms:

    z1 = sqrt(-2 ln(1 - u1)) * cos(2 pi u2)
    z2 = sqrt(-2 ln(1 - u1)) * sin(2 pi u2)

drawing one (u1, u2) pair per two normals and discarding the trailing z2 for
odd counts. The transform is fixed so the panels can be reproduced from the
raw uniform stream in any language.

``gen_var1`` (and ``gen_ou`` through it) draws its noise and steps the
recurrence one chunk of about 2**14 normals at a time, the recurrence's own
chunk (``kernels._CHUNK_VALUES``), so the memory beyond the output path
stays under 2 MiB however many steps there are. Every chunk but the last is
an even number of steps, so each draw is made of whole Box-Muller pairs and
reads the same uniforms in the same order as one draw of all steps * n
normals: the path is bit-identical to stepping the whole noise array at
once, and only the last draw may discard a trailing z2.
"""

from __future__ import annotations

import numpy as np

from .discretize import SymbolSequence
from .errors import UnstableSpec
from .kernels import _CHUNK_VALUES, linear_recurrence  # one recurrence chunk per draw
from .stats import ReturnsMatrix

BINARY_EDGES = np.array([-0.5, 0.5, 1.5])


def _rng(seed) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def standard_normals(rng: np.random.Generator, n: int) -> np.ndarray:
    """n standard normals via the documented Box-Muller transform."""
    pairs = (n + 1) // 2
    u = rng.random((pairs, 2))
    r = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
    theta = 2.0 * np.pi * u[:, 1]
    z = np.empty(2 * pairs)
    z[0::2] = r * np.cos(theta)
    z[1::2] = r * np.sin(theta)
    return z[:n]


def gen_coupled_binary(eps: float, steps: int, seed: int = 0) -> tuple[SymbolSequence, SymbolSequence]:
    """Directionally coupled binary pair: y follows x with flip noise.

    x_t is iid Bernoulli(0.5); y_{t+1} = x_t XOR Bernoulli(eps); y_0 is an
    independent fair coin. Analytically TE(x -> y) = 1 - H_b(eps) bits and
    TE(y -> x) = 0. Draw order: the x block, then y_0, then the flip block.
    """
    if not 0.0 <= eps <= 0.5:
        raise ValueError("eps must be in [0, 0.5]")
    if steps < 2:
        raise ValueError("steps must be >= 2")
    rng = _rng(seed)
    x = (rng.random(steps) < 0.5).astype(np.int64)
    y = np.empty(steps, dtype=np.int64)
    y[0] = 1 if rng.random() < 0.5 else 0
    flips = (rng.random(steps - 1) < eps).astype(np.int64)
    y[1:] = x[:-1] ^ flips
    make = lambda s: SymbolSequence(symbols=s, bins=2, edges=BINARY_EDGES)
    return make(x), make(y)


def binary_entropy(eps: float) -> float:
    """H_b(eps) in bits, with H_b(0) = H_b(1) = 0."""
    if eps in (0.0, 1.0):
        return 0.0
    return float(-eps * np.log2(eps) - (1 - eps) * np.log2(1 - eps))


def _square(a, label: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError(f"{label} must be square and non-empty, got shape {a.shape}")
    return a


def _check_step_matrix(a_step: np.ndarray, label: str) -> np.ndarray:
    a_step = _square(a_step, label)
    radius = float(np.abs(np.linalg.eigvals(a_step)).max())
    if radius >= 1.0:
        raise UnstableSpec(f"{label} spectral radius {radius:.4f} >= 1")
    return a_step


def gen_var1(a_step, sigma: float, steps: int, seed: int = 0, asset_ids=None, x0=None) -> ReturnsMatrix:
    """First-order vector autoregression x_{t+1} = a_step x_t + sigma xi_t.

    Starts from x_0 (default the origin; x_0 itself is not included in the
    output). Requires spectral radius of a_step below 1, and a finite sigma
    and x_0. The noise is drawn one chunk of steps at a time from one
    stream, as one draw of all steps * n normals would read it.
    """
    a_step = _check_step_matrix(a_step, "a_step")
    if not np.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma}")
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    n = a_step.shape[0]
    start = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64)
    if start.shape != (n,):
        raise ValueError(f"x0 must have shape ({n},)")
    if not np.isfinite(start).all():
        raise ValueError(f"x0 must be finite, got {start[~np.isfinite(start)][0]}")
    rng = _rng(seed)
    a_step = np.ascontiguousarray(a_step)
    path = np.empty((steps + 1, n))
    path[0] = start
    chunk = 2 * max(1, _CHUNK_VALUES // (2 * n))  # even: whole Box-Muller pairs
    for a in range(0, steps, chunk):
        b = min(a + chunk, steps)
        noise = sigma * standard_normals(rng, (b - a) * n).reshape(b - a, n)
        path[a : b + 1] = linear_recurrence(a_step, noise, path[a])
    ids = tuple(asset_ids) if asset_ids is not None else tuple(f"S{i + 1}" for i in range(n))
    return ReturnsMatrix(asset_ids=ids, values=path[1:], kind="log", dates=None)


def gen_ou(a_true, sigma: float, dt_sim: float, steps: int, seed: int = 0, asset_ids=None, x0=None) -> ReturnsMatrix:
    """Euler-Maruyama path of dx = A x dt + sigma dW.

    x_{t+1} = x_t + dt_sim * A x_t + sigma * sqrt(dt_sim) * xi_t. All
    eigenvalues of A must have negative real part, the per-step map
    I + dt_sim * A must be stable, and dt_sim, sigma and x_0 finite.
    """
    a_true = _square(a_true, "a_true")
    if not np.isfinite(dt_sim):
        raise ValueError(f"dt_sim must be finite, got {dt_sim}")
    if dt_sim <= 0:
        raise ValueError("dt_sim must be positive")
    eigs = np.linalg.eigvals(a_true)
    if np.any(eigs.real >= 0):
        raise UnstableSpec(f"drift eigenvalue with non-negative real part: {eigs}")
    step_matrix = np.eye(a_true.shape[0]) + dt_sim * a_true
    _check_step_matrix(step_matrix, "I + dt_sim * A")
    return gen_var1(
        step_matrix,
        sigma=sigma * np.sqrt(dt_sim),
        steps=steps,
        seed=seed,
        asset_ids=asset_ids,
        x0=x0,
    )
