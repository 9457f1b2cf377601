"""Kernels: the sequential recurrence behind the synthetic process generators
and the histogram counter.

``linear_recurrence`` runs the recurrence in scalar Python floats, summing
each row left to right from 0.0. The seeded synthetic panels depend on that
order, so keep it.

``joint_counts`` delegates to ``np.bincount``, which is integer-exact.
"""

import numpy as np

# named in the pipeline benchmark's environment line and digest fingerprint
BACKEND = "python"


def linear_recurrence(coeffs, noise, x0):
    """out[0] = x0; out[t+1][i] = sum_j coeffs[i][j]*out[t][j] + noise[t][i]."""
    steps, n = noise.shape
    rows = [[float(coeffs[i, j]) for j in range(n)] for i in range(n)]
    out = np.empty((steps + 1, n), dtype=np.float64)
    x = [float(v) for v in x0]
    out[0] = x
    noise_rows = noise.tolist()
    idx = range(n)
    for t in range(steps):
        w = noise_rows[t]
        prev = x
        x = []
        for i in idx:
            row = rows[i]
            acc = 0.0
            for j in idx:
                acc = acc + row[j] * prev[j]
            x.append(acc + w[i])
        out[t + 1] = x
    return out


def joint_counts(codes, size):
    """Dense occurrence counts of flat cell codes in [0, size)."""
    return np.bincount(codes, minlength=size).astype(np.int64)
