"""Seeded workload inputs, made with numpy alone.

Nothing here imports infodrift: a change to ``infodrift.synth`` or
``infodrift.ingest.write_csv`` must not change the inputs of any workload.
The same seed always gives the same bytes.

Price panels are daily closes on a weekday calendar. Each series has a few
interior dates missing, so ``align`` drops rows for real, and prices are
rounded to cents, so returns carry the ties that rank binning must handle.
Returns follow a sparse lagged coupling (asset i-1 drives asset i), plus a
market factor for the correlation network; ``switch_at`` flips the coupling
direction part-way through, so the windowed networks have a regime change
to track.
"""

from __future__ import annotations

import datetime as dt
import os

import numpy as np

CALENDAR_START = dt.date(2010, 1, 4)  # a Monday
MIN_PRICE = 5.0
COUPLING = 0.35

# simulate-long: a 4-asset chain 0 -> 1 -> 2 -> 3 with unit mean reversion
OU_MATRIX = (
    (-1.0, 0.0, 0.0, 0.0),
    (0.6, -1.0, 0.0, 0.0),
    (0.0, 0.6, -1.0, 0.0),
    (0.0, 0.0, 0.6, -1.0),
)
OU_SIGMA = 0.1
OU_DT_SIM = 0.01
OU_STEPS = 10**6
BINARY_EPS = 0.1
BINARY_STEPS = 10**6


def rng_for(seed: int, tag: str) -> np.random.Generator:
    """Independent stream per (seed, workload tag)."""
    key = [int(seed)] + [ord(c) for c in tag]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def weekdays(count: int) -> list[dt.date]:
    out, day = [], CALENDAR_START
    while len(out) < count:
        if day.weekday() < 5:
            out.append(day)
        day += dt.timedelta(days=1)
    return out


def _ring(n: int, step: int) -> np.ndarray:
    b = np.zeros((n, n))
    for i in range(n):
        b[i, (i - step) % n] = COUPLING
    return b


def price_panel(rng: np.random.Generator, n_assets: int, n_days: int, switch_at: int | None = None) -> np.ndarray:
    """(n_days, n_assets) cent-rounded prices, all at least MIN_PRICE."""
    vol = rng.uniform(0.008, 0.02, size=n_assets)
    market = rng.standard_t(4, size=n_days) / np.sqrt(2.0)
    idio = rng.standard_t(4, size=(n_days, n_assets)) / np.sqrt(2.0)
    shocks = (0.5 * market[:, None] + idio) * vol
    forward, backward = _ring(n_assets, 1), _ring(n_assets, -1)
    r = np.zeros((n_days, n_assets))
    for t in range(1, n_days):
        b = backward if switch_at is not None and t >= switch_at else forward
        r[t] = b @ r[t - 1] + shocks[t]
    log_p = np.log(rng.uniform(20.0, 150.0, size=n_assets)) + np.cumsum(r, axis=0)
    log_p += np.maximum(0.0, np.log(MIN_PRICE) - log_p.min(axis=0))
    return np.round(np.exp(log_p), 2)


def write_panel_csvs(directory: str, rng: np.random.Generator, n_assets: int, n_days: int,
                     switch_at: int | None = None) -> list[str]:
    """Write one CSV per asset; returns the file names in asset order."""
    prices = price_panel(rng, n_assets, n_days, switch_at)
    days = [d.isoformat() for d in weekdays(n_days)]
    os.makedirs(directory, exist_ok=True)
    names = []
    for k in range(n_assets):
        gaps = rng.choice(np.arange(1, n_days - 1), size=int(rng.integers(2, 7)), replace=False)
        keep = np.ones(n_days, dtype=bool)
        keep[gaps] = False
        lines = ["Date,Adj Close"]
        lines += [f"{days[t]},{prices[t, k]:.2f}" for t in np.flatnonzero(keep)]
        name = f"A{k:02d}.csv"
        with open(os.path.join(directory, name), "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
        names.append(name)
    return names
