"""A fixed reference task that uses no infodrift code.

run.py times it between workload runs as a measure of how fast the machine
is at that moment. Its mix follows the pipeline's: interpreter start and
the numpy import, parsing dated CSV rows, many calls on small integer
arrays, a threaded BLAS product, and repr formatting of floats.
"""

import datetime as dt

import numpy as np


def main() -> None:
    rng = np.random.Generator(np.random.PCG64(12345))
    day0 = dt.date(2010, 1, 4).toordinal()
    lines = [f"{dt.date.fromordinal(day0 + k).isoformat()},{100 + k % 97 * 0.37:.2f}" for k in range(6000)]
    rows = {}
    for line in lines:
        day, price = line.split(",")
        rows[dt.date.fromisoformat(day)] = float(price)

    codes = rng.integers(0, 8, size=(1500, 250))
    acc = 0.0
    for row in codes:
        counts = np.bincount(row[1:] * 8 + row[:-1], minlength=64).reshape(8, 8)
        nz = counts > 0
        acc += float((counts[nz] * np.log2(counts[nz] * 249.0 / np.outer(counts.sum(1), counts.sum(0))[nz])).sum())

    x = rng.standard_normal((2500, 50))
    for _ in range(4):
        acc += float((x.T @ x).trace())

    text = ",".join(repr(float(v)) for v in x[:400].ravel())
    print(len(rows), len(text), round(acc, 6))


if __name__ == "__main__":
    main()
