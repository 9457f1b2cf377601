"""Byte-for-byte pins of the result files that the pipeline benchmark does not write.

The benchmark's digests cover directed windowed results and full-sample
matrices as the CLI writes them. These tests pin the rest against files in
``tests/data/golden/``: an undirected windowed result, graphs, a thresholded
matrix as DOT, a drift estimate and the ``stats`` outputs. Every input is
built from fixed, exactly representable numbers and ``generated_at`` is
pinned, so the expected bytes depend on the writers alone.
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
        directed=False,
        units="dimensionless",
        params={"kind": "log"},
    )


def _te():
    return InteractionMatrix(
        asset_ids=("A", "B", "C"),
        values=np.array([[1.5, 0.0625, 0.25], [0.125, 1.25, 0.03125], [0.5, 0.046875, 2.0]]),
        measure="transfer_entropy",
        directed=True,
        units="bits",
        params={"orientation": ORIENTATION, "bins": 8},
    )


def write_windowed(out: Path) -> list[str]:
    entries = (
        ("2020-01-01", "2020-01-10", 0, 10, _corr(0.5, -0.25, 0.125)),
        ("2020-01-11", "2020-01-20", 10, 20, _corr(-0.75, 0.375, 0.0)),
        ("2020-01-21", "2020-01-30", 20, 30, _corr(0.875, -0.5, -0.0625)),
    )
    result = WindowedResult(
        measure="correlation",
        entries=entries,
        spec=WindowSpec(mode="segmented", segments=3),
        params={"bins": 8, "strategy": "quantile", "dt": 1},
    )
    emit(result, "json", out / "windowed_correlation.json", config=CONFIG)
    emit(result, "csv", out / "windowed_correlation.csv", config=CONFIG)
    emit(result, "svg_heatmap", out / "windowed_correlation.svg", config=CONFIG)
    return ["windowed_correlation.json", "windowed_correlation.csv", "windowed_correlation.svg"]


def write_graphs(out: Path) -> list[str]:
    directed = matrix_to_graph(_te(), threshold=0.05)
    undirected = InteractionGraph(
        nodes=("A", "B", "C"),
        edges=(("A", "B", 0.5), ("B", "C", -0.75)),
        directed=False,
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
        A=np.array([[-0.5, 0.25], [0.125, -0.375]]),
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


@pytest.mark.parametrize("write", [write_windowed, write_graphs, write_dot, write_drift, write_stats])
def test_output_bytes_match_golden(write, tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", EPOCH)
    for name in write(tmp_path):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
