import datetime as dt
import os

import numpy as np
import pytest

from infodrift.ingest import AlignedPanel, PriceSeries

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def child_pythonpath() -> str:
    """PYTHONPATH for a child ``python -m infodrift``: this checkout's src/ first.

    The path is absolute because the children run in other directories.
    """
    return os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


def assert_no_child_process():
    """No process forked by this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def fork_calls(monkeypatch):
    """The list of the pids that called os.fork, in call order, from here on."""
    forks = []
    real = os.fork

    def fork():
        forks.append(os.getpid())
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def make_series(asset_id, start, prices):
    base = dt.date.fromisoformat(start).toordinal()
    return PriceSeries(asset_id=asset_id, days=np.arange(base, base + len(prices)),
                       prices=np.asarray(prices, dtype=float))


def make_panel(prices, start="2020-01-01", asset_ids=None):
    prices = np.asarray(prices, dtype=float)
    n = prices.shape[1]
    ids = tuple(asset_ids) if asset_ids else tuple(f"A{i}" for i in range(n))
    base = dt.date.fromisoformat(start).toordinal()
    return AlignedPanel(asset_ids=ids, days=np.arange(base, base + prices.shape[0]), prices=prices)


def iso_days(days):
    """Each ordinal of the array ``days`` as its YYYY-MM-DD text."""
    return [dt.date.fromordinal(day).isoformat() for day in days.tolist()]


def scalar_recurrence(coeffs, noise, x0):
    """The plain scalar loop, kept as the oracle of ``linear_recurrence``:
    each row summed left to right from 0.0, the noise added last."""
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


@pytest.fixture
def csv_dir(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return path

    return write
