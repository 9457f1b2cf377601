"""Byte-for-byte pins of result files against ``tests/data/golden/``.

The benchmark's digests cover directed windowed results and full-sample
matrices as the CLI writes them from estimated data. These tests pin what
estimated data does not reach: an undirected windowed result; a directed
windowed TE result whose values hold NaN, +-Infinity, -0.0 and a colour that
lands exactly on .5 before rounding, with asset ids that need CSV quoting
(``A,1``) and XML escaping (``B&C``); a windowed drift result on the
diverging scale; graphs; a thresholded matrix as DOT; a drift estimate and
the ``stats`` outputs. Every input is built from fixed, exactly representable
numbers and ``generated_at`` is pinned, so the expected bytes depend on the
writers alone. The seeded ``simulate`` panels are the exception: their bytes
also pin the noise stream and the recurrence's left-to-right summation. The directed windowed files were written by the writers that
built each file as one string and coloured each cell on its own; the
streaming writers must reproduce them byte for byte.
"""

import os
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from infodrift.cli import main
from infodrift.kmdrift import DriftEstimate
from infodrift.matrices import ORIENTATION, InteractionMatrix
from infodrift.netout import InteractionGraph, emit, matrix_to_graph
from infodrift.windows import WindowedResult, WindowSpec

GOLDEN = Path(__file__).parent / "data" / "golden"
EPOCH = "946684800"  # 2000-01-01T00:00:00Z
CONFIG = {"config_version": 1, "seed": 0, "bins": 8}


def _corr(a, b, c):
    return InteractionMatrix(
        asset_ids=("A", "B", "C"),
        values=np.array([[1.0, a, b], [a, 1.0, c], [b, c, 1.0]]),
        measure="correlation",
        params={"kind": "log"},
    )


def _te():
    return InteractionMatrix(
        asset_ids=("A", "B", "C"),
        values=np.array([[1.5, 0.0625, 0.25], [0.125, 1.25, 0.03125], [0.5, 0.046875, 2.0]]),
        measure="transfer_entropy",
        params={"orientation": ORIENTATION, "bins": 8},
    )


def write_windowed(out: Path) -> list[str]:
    result = WindowedResult(
        measure="correlation",
        asset_ids=("A", "B", "C"),
        values=np.array([_corr(0.5, -0.25, 0.125).values, _corr(-0.75, 0.375, 0.0).values,
                         _corr(0.875, -0.5, -0.0625).values]),
        bounds=np.array([[0, 10], [10, 20], [20, 30]]),
        labels=(("2020-01-01", "2020-01-10"), ("2020-01-11", "2020-01-20"), ("2020-01-21", "2020-01-30")),
        spec=WindowSpec(mode="segmented", segments=3),
        params={"bins": 8, "strategy": "quantile", "dt": 1},
    )
    emit(result, "json", out / "windowed_correlation.json", config=CONFIG)
    emit(result, "csv", out / "windowed_correlation.csv", config=CONFIG)
    emit(result, "svg_heatmap", out / "windowed_correlation.svg", config=CONFIG)
    return ["windowed_correlation.json", "windowed_correlation.csv", "windowed_correlation.svg"]


IDS = ("A,1", "B&C", "D")
NAN, INF = float("nan"), float("inf")


def _write_all(result, out: Path, stem: str) -> list[str]:
    names = [f"{stem}.json", f"{stem}.csv", f"{stem}.svg"]
    for name, fmt in zip(names, ("json", "csv", "svg_heatmap")):
        emit(result, fmt, out / name, config=CONFIG)
    return names


def write_windowed_te(out: Path) -> list[str]:
    """Sequential scale over the off-diagonal cells 0 .. 2, where 1.0 gives
    t = 0.5 and red 131.5, green 151.5; the non-finite values sit on the
    diagonal, which the CSV and JSON write and the heatmap leaves out."""
    result = WindowedResult(
        measure="transfer_entropy",
        asset_ids=IDS,
        values=np.array([
            [[NAN, 0.25, 2.0], [1.0, INF, -0.0], [0.5, 0.125, -INF]],
            [[-0.0, 0.0625, 0.75], [1.5, 0.375, 0.0], [1.25, 0.875, 1.0]],
        ]),
        bounds=np.array([[0, 10], [5, 15]]),
        labels=(("2020-01-01", "2020-01-10"), ("2020-01-06", "2020-01-15")),
        spec=WindowSpec(mode="sliding", length=10, stride=5),
        params={"bins": 2, "strategy": "quantile", "dt": 1, "step_duration": 1.0,
                "bins_refit_per_window": True},
        edges=np.array([
            [[-0.5, 0.0, 0.5], [-1.0, 0.25, 1.0], [-0.0, 0.125, 4.0]],
            [[-0.25, 0.0, 0.75], [-2.0, -0.5, 1.5], [-1.0, 0.0, 1.0]],
        ]),
    )
    return _write_all(result, out, "windowed_transfer_entropy")


def write_windowed_km(out: Path) -> list[str]:
    """Diverging scale with limit 2: 1.0 and -1.0 give |t| = 0.5, whose
    channels 212.5, 135.5, 174.5 and 209.5 round half to even both ways."""
    result = WindowedResult(
        measure="km_drift",
        asset_ids=IDS,
        values=np.array([
            [[-0.5, 1.0, -1.0], [2.0, -0.25, 0.0], [-0.125, -2.0, -0.75]],
            [[-0.375, -0.0, 0.5], [-1.5, -0.625, 0.25], [1.25, -0.0625, -1.0]],
            [[-1.0, 0.75, -0.25], [0.125, -0.5, -1.75], [0.0, 0.375, -0.875]],
        ]),
        bounds=np.array([[0, 5], [5, 10], [10, 15]]),
        labels=(("2020-01-01", "2020-01-05"), ("2020-01-06", "2020-01-10"), ("2020-01-11", "2020-01-15")),
        spec=WindowSpec(mode="segmented", segments=3),
        params={"bins": 8, "strategy": "quantile", "dt": 1, "step_duration": 1.0,
                "bins_refit_per_window": True},
    )
    return _write_all(result, out, "windowed_km_drift")


def write_graphs(out: Path) -> list[str]:
    directed = matrix_to_graph(_te(), threshold=0.05)
    undirected = InteractionGraph(
        nodes=("A", "B", "C"),
        edges=(("A", "B", 0.5), ("B", "C", -0.75)),
        threshold=0.25,
        measure="correlation",
    )
    emit(directed, "json", out / "graph_directed.json", config=CONFIG)
    emit(directed, "csv", out / "graph_directed.csv", config=CONFIG)
    emit(undirected, "json", out / "graph_undirected.json")
    emit(undirected, "csv", out / "graph_undirected.csv")
    return ["graph_directed.json", "graph_directed.csv", "graph_undirected.json", "graph_undirected.csv"]


def write_dot(out: Path) -> list[str]:
    emit(_te(), "dot", out / "matrix_directed.dot", config=CONFIG, threshold=0.1)
    emit(_corr(0.5, -0.25, 0.125), "dot", out / "matrix_undirected.dot", threshold=0.2)
    return ["matrix_directed.dot", "matrix_undirected.dot"]


def write_drift(out: Path) -> list[str]:
    est = DriftEstimate(
        psi=np.array([[-0.5, 0.25], [0.125, -0.375]]),
        dt=1.0,
        moment_matrix=np.array([[2.0, 0.5], [0.5, 1.0]]),
        cond=2.5,
        params={"ridge": 0.0, "lag_steps": 1, "step_duration": 1.0, "centered": True},
    )
    emit(est, "json", out / "drift_estimate.json", config=CONFIG)
    return ["drift_estimate.json"]


def write_stats(out: Path) -> list[str]:
    """``infodrift stats`` on two assets whose simple returns are dyadic."""
    prices = {"AAA": [100, 200, 100, 400, 200, 300], "BBB": [64, 32, 48, 96, 24, 36]}
    runner = CliRunner()
    with runner.isolated_filesystem(temp_dir=out) as work:
        for asset, column in prices.items():
            rows = [f"2020-01-0{day + 1},{price}" for day, price in enumerate(column)]
            Path(asset + ".csv").write_text("\n".join(["Date,Adj Close", *rows]) + "\n")
        result = runner.invoke(
            main, ["--out", "out", "--return-kind", "simple", "stats", "AAA.csv", "BBB.csv"]
        )
        assert result.exit_code == 0, result.output
        for name in ("stats.csv", "stats.json"):
            os.replace(Path(work) / "out" / name, out / name)
    return ["stats.csv", "stats.json"]


def _simulate(out: Path, kind: str, args: list[str]) -> list[str]:
    """``infodrift simulate`` of three assets A, B, C as ``simulate_<kind>_<asset>.csv``."""
    runner = CliRunner()
    names = []
    with runner.isolated_filesystem(temp_dir=out) as work:
        result = runner.invoke(
            main, ["--out", "out", "--seed", "3", "simulate", "--kind", kind, "--assets", "A,B,C", *args]
        )
        assert result.exit_code == 0, result.output
        for asset in "ABC":
            names.append(f"simulate_{kind}_{asset}.csv")
            os.replace(Path(work) / "out" / f"{asset}.csv", out / names[-1])
    return names


def write_simulate_ou(out: Path) -> list[str]:
    """A seeded Euler-Maruyama OU panel: every coupling, the zero ones too,
    enters each step's sum, so a change of summation order shows here."""
    return _simulate(out, "ou_euler", [
        "--steps", "300", "--sigma", "0.1", "--dt-sim", "0.05",
        "--matrix", "[[-0.5, 0.3, 0.0], [0.0, -0.4, 0.2], [0.1, -0.3, -0.6]]",
    ])


def write_simulate_var1(out: Path) -> list[str]:
    return _simulate(out, "var1", [
        "--steps", "300", "--sigma", "0.05",
        "--matrix", "[[0.5, -0.2, 0.1], [0.3, 0.4, 0.0], [0.0, -0.25, 0.6]]",
    ])


@pytest.mark.parametrize("write", [
    write_windowed, write_windowed_te, write_windowed_km, write_graphs, write_dot, write_drift, write_stats,
    write_simulate_ou, write_simulate_var1,
])
def test_output_bytes_match_golden(write, tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", EPOCH)
    for name in write(tmp_path):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
