#!/usr/bin/env python3
"""Benchmark the compiled recurrence against the pure-Python fallback.

Runs the state recurrence behind the synthetic generators through both
backends at two sizes, checks the outputs agree bitwise, and prints a timing
table. Usage: python benchmarks/bench_kernels.py [--steps N]
"""

import argparse
import time

import numpy as np

from infodrift.kernels import _pykernels

try:
    from infodrift.kernels import _ckernels
except ImportError:
    _ckernels = None


def _time(fn, *args, repeat=3):
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_recurrence(steps, n, seed=0):
    rng = np.random.default_rng(seed)
    coeffs = np.ascontiguousarray(rng.normal(size=(n, n)) * (0.5 / n))
    noise = np.ascontiguousarray(rng.normal(size=(steps, n)))
    x0 = np.zeros(n)
    t_py, out_py = _time(_pykernels.linear_recurrence, coeffs, noise, x0, repeat=1)
    row = [f"recurrence steps={steps} n={n}", f"{t_py * 1e3:10.1f}"]
    if _ckernels is not None:
        t_c, out_c = _time(_ckernels.linear_recurrence, coeffs, noise, x0)
        assert np.array_equal(out_py, out_c), "backend outputs diverged"
        row += [f"{t_c * 1e3:10.2f}", f"{t_py / t_c:8.0f}x"]
    else:
        row += ["       n/a", "     n/a"]
    return row


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--steps", type=int, default=1000000)
    args = parser.parse_args()

    print(f"compiled backend available: {_ckernels is not None}")
    header = ["case", "python ms", "c ms", "speedup"]
    rows = [
        bench_recurrence(args.steps, 2),
        bench_recurrence(args.steps // 10, 4),
    ]
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(v).rjust(w) for v, w in zip(r, widths)))


if __name__ == "__main__":
    main()
