# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled hot loop: the sequential state recurrence behind the synthetic
process generators.

The arithmetic must stay bitwise-identical to _pykernels: plain sequential
accumulation, no FMA contraction (enforced by -ffp-contract=off), no
reordering.
"""

import numpy as np


def linear_recurrence(double[:, ::1] coeffs, double[:, ::1] noise, double[::1] x0):
    """out[0] = x0; out[t+1][i] = sum_j coeffs[i][j]*out[t][j] + noise[t][i]."""
    cdef Py_ssize_t steps = noise.shape[0]
    cdef Py_ssize_t n = coeffs.shape[0]
    out_arr = np.empty((steps + 1, n), dtype=np.float64)
    cdef double[:, ::1] out = out_arr
    cdef Py_ssize_t t, i, j
    cdef double acc
    for i in range(n):
        out[0, i] = x0[i]
    for t in range(steps):
        for i in range(n):
            acc = 0.0
            for j in range(n):
                acc = acc + coeffs[i, j] * out[t, j]
            out[t + 1, i] = acc + noise[t, i]
    return out_arr

