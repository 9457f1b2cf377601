import json
import os
from pathlib import Path

import numpy as np
import pytest

from infodrift import evolve, gen_var1, matrix_to_graph
from infodrift.errors import UnsupportedFormatForShape
from infodrift.kmdrift import drift_estimate
from infodrift.matrices import InteractionMatrix
from infodrift import netout
from infodrift.netout import (
    FORMATS,
    emit,
    emit_all,
    graph_to_dot,
    load_matrix_csv,
    load_matrix_json,
    matrix_to_svg,
    windowed_to_svg,
)
from infodrift.stats import ReturnsMatrix
from infodrift.windows import WindowSpec

DATA = Path(__file__).parent / "data"


def corr2x2(v=0.5):
    return InteractionMatrix(
        asset_ids=("A", "B"),
        values=np.array([[1.0, v], [v, 1.0]]),
        measure="correlation",
        directed=False,
        units="dimensionless",
    )


def te_matrix_fixture():
    return InteractionMatrix(
        asset_ids=("A", "B", "C"),
        values=np.array([[1.5, 0.02, 0.11], [0.064, 1.2, 0.009], [0.2, 0.031, 2.0]]),
        measure="transfer_entropy",
        directed=True,
        units="bits",
        params={"bins": 8},
    )


def test_threshold_keeps_strong_undirected_edge():
    g = matrix_to_graph(corr2x2(0.5), threshold=0.4)
    assert len(g.edges) == 1
    assert g.edges[0] == ("A", "B", 0.5)
    assert not g.directed


def test_threshold_above_all_values_gives_no_edges():
    g = matrix_to_graph(corr2x2(0.5), threshold=0.6)
    assert g.edges == ()


def test_threshold_zero_edge_counts():
    directed = matrix_to_graph(te_matrix_fixture(), threshold=0.0)
    assert len(directed.edges) == 3 * 2
    undirected = matrix_to_graph(corr2x2(0.25), threshold=0.0)
    assert len(undirected.edges) == 1


def test_keep_self_adds_diagonal():
    g = matrix_to_graph(te_matrix_fixture(), threshold=0.0, keep_self=True)
    assert len(g.edges) == 9
    assert ("A", "A", 1.5) in g.edges


def test_negative_weights_pass_absolute_threshold():
    m = InteractionMatrix(
        asset_ids=("A", "B"),
        values=np.array([[1.0, -0.45], [-0.45, 1.0]]),
        measure="correlation",
        directed=False,
        units="dimensionless",
    )
    g = matrix_to_graph(m, threshold=0.4)
    assert g.edges[0][2] == -0.45


def test_json_round_trip_exact(tmp_path):
    m = te_matrix_fixture()
    path = tmp_path / "m.json"
    emit(m, "json", path)
    again = load_matrix_json(path)
    assert again.asset_ids == m.asset_ids
    assert np.array_equal(again.values, m.values)
    assert (again.measure, again.directed, again.units) == (m.measure, m.directed, m.units)


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.normal(size=(4, 4))
    values = (values + values.T) / 2
    np.fill_diagonal(values, 1.0)
    m = InteractionMatrix(
        asset_ids=("w", "x", "y", "z"), values=values,
        measure="correlation", directed=False, units="dimensionless",
    )
    path = tmp_path / "m.csv"
    emit(m, "csv", path)
    again = load_matrix_csv(path)
    assert np.array_equal(again.values, m.values)
    assert again.asset_ids == m.asset_ids
    assert again.measure == "correlation"


def test_csv_single_asset(tmp_path):
    m = InteractionMatrix(
        asset_ids=("solo",), values=np.array([[2.25]]),
        measure="transfer_entropy", directed=True, units="bits",
    )
    path = tmp_path / "one.csv"
    emit(m, "csv", path)
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert lines == ["asset,solo", "solo,2.25"]


def test_dot_undirected_format(tmp_path):
    g = matrix_to_graph(corr2x2(0.5), threshold=0.4)
    text = graph_to_dot(g)
    assert text.startswith("graph")
    assert '"A" -- "B" [label="0.50"];' in text
    assert "->" not in text


def test_dot_directed_format():
    g = matrix_to_graph(te_matrix_fixture(), threshold=0.1)
    text = graph_to_dot(g)
    assert text.startswith("digraph")
    assert '"C" -> "A" [label="0.11"];' in text
    assert '"A" -> "C" [label="0.20"];' in text


def test_dot_node_order_is_input_order():
    text = graph_to_dot(matrix_to_graph(te_matrix_fixture(), threshold=99.0))
    lines = [l.strip() for l in text.splitlines()]
    assert lines[1:4] == ['"A";', '"B";', '"C";']


def test_svg_bytes_deterministic(tmp_path):
    m = te_matrix_fixture()
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    emit(m, "svg_heatmap", a)
    emit(m, "svg_heatmap", b)
    assert a.read_bytes() == b.read_bytes()


def test_svg_matrix_golden_file():
    text = matrix_to_svg(corr2x2(0.5))
    golden = (DATA / "corr2x2_golden.svg").read_text()
    assert text == golden


def test_windowed_outputs(tmp_path):
    panel = gen_var1(np.array([[0.4, 0.1], [0.0, 0.3]]), sigma=1.0, steps=200, seed=3)
    result = evolve(panel, WindowSpec(mode="segmented", segments=4), "correlation")
    jpath, cpath, spath = tmp_path / "w.json", tmp_path / "w.csv", tmp_path / "w.svg"
    emit(result, "json", jpath)
    emit(result, "csv", cpath)
    emit(result, "svg_heatmap", spath)

    doc = json.loads(jpath.read_text())
    assert doc["kind"] == "windowed_result"
    assert len(doc["windows"]) == 4
    stored = np.array(doc["windows"][2]["values"])
    assert np.array_equal(stored, result.entries[2][4].values)

    lines = [l for l in cpath.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "window_start,window_end,from_asset,to_asset,value"
    assert len(lines) == 1 + 4 * 4  # 4 windows x 2x2 cells

    svg1 = spath.read_text()
    emit(result, "svg_heatmap", spath)
    assert spath.read_text() == svg1


def test_windowed_svg_has_one_column_per_window():
    panel = gen_var1(np.array([[0.4, 0.1], [0.0, 0.3]]), sigma=1.0, steps=300, seed=4)
    result = evolve(panel, WindowSpec(mode="segmented", segments=10), "transfer_entropy", bins=2)
    text = windowed_to_svg(result)
    for k in range(10):
        assert f">w{k}</text>" in text
    # directed 2-asset panel: 2 ordered pair rows
    assert ">S1-&gt;S2</text>" in text or ">S1->S2</text>" in text


def test_unsupported_shapes_raise(tmp_path):
    g = matrix_to_graph(corr2x2(0.5), threshold=0.0)
    with pytest.raises(UnsupportedFormatForShape):
        emit(g, "svg_heatmap", tmp_path / "g.svg")
    panel = gen_var1(np.array([[0.4]]), sigma=1.0, steps=50, seed=5)
    result = evolve(panel, WindowSpec(mode="segmented", segments=2), "correlation")
    with pytest.raises(UnsupportedFormatForShape):
        emit(result, "dot", tmp_path / "w.dot")
    with pytest.raises(UnsupportedFormatForShape):
        emit(corr2x2(), "parquet", tmp_path / "m.parquet")


def test_drift_estimate_emits_json_only(tmp_path):
    panel = gen_var1(np.array([[0.5, 0.0], [0.2, 0.4]]), sigma=1.0, steps=500, seed=6)
    est = drift_estimate(panel, dt=1)
    path = tmp_path / "drift.json"
    emit(est, "json", path)
    doc = json.loads(path.read_text())
    assert doc["kind"] == "drift_estimate"
    assert np.allclose(np.array(doc["A"]), est.A)
    with pytest.raises(UnsupportedFormatForShape):
        emit(est, "csv", tmp_path / "drift.csv")


def test_emitted_json_embeds_config(tmp_path):
    path = tmp_path / "m.json"
    emit(corr2x2(), "json", path, config={"seed": 7, "bins": 8})
    doc = json.loads(path.read_text())
    assert doc["config"] == {"seed": 7, "bins": 8}


def test_generated_at_honours_source_date_epoch(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "946684800")  # 2000-01-01T00:00:00Z
    path = tmp_path / "m.json"
    emit(corr2x2(), "json", path)
    doc = json.loads(path.read_text())
    assert doc["generated_at"] == "2000-01-01T00:00:00+00:00"


def test_emit_all_writes_the_formats_the_shape_has(tmp_path):
    panel = gen_var1(np.array([[0.4, 0.1], [0.0, 0.3]]), sigma=1.0, steps=100, seed=7)
    result = evolve(panel, WindowSpec(mode="segmented", segments=2), "correlation")
    written = emit_all(tmp_path, [("w", result, list(FORMATS))])
    assert [os.path.basename(p) for p in written] == ["w.json", "w.csv", "w.svg"]
    assert sorted(os.listdir(tmp_path)) == ["w.csv", "w.json", "w.svg"]
    est = drift_estimate(panel, dt=1)
    assert emit_all(tmp_path, [("d", est, ["csv", "json"])]) == [str(tmp_path / "d.json")]


def test_emit_all_rejects_unknown_format(tmp_path):
    with pytest.raises(UnsupportedFormatForShape):
        emit_all(tmp_path, [("m", corr2x2(), ["json", "parquet"])])
    assert os.listdir(tmp_path) == []


def test_failed_write_leaves_no_files(tmp_path, monkeypatch):
    def half_written(obj, fh, config, threshold):
        fh.write("<svg")
        raise OSError("disk full")

    monkeypatch.setitem(netout._WRITERS, (InteractionMatrix, "svg_heatmap"), half_written)
    with pytest.raises(OSError, match="disk full"):
        emit_all(tmp_path, [("m", corr2x2(), ["json", "csv", "dot", "svg_heatmap"])])
    assert os.listdir(tmp_path) == []


def test_failed_result_removes_the_whole_run(tmp_path, monkeypatch):
    def half_written(obj, fh, config, threshold):
        fh.write("<svg")
        raise OSError("disk full")

    monkeypatch.setitem(netout._WRITERS, (InteractionMatrix, "svg_heatmap"), half_written)
    results = [("first", corr2x2(0.1), ["json", "csv"]), ("second", corr2x2(0.2), ["json", "svg_heatmap"])]
    with pytest.raises(OSError, match="disk full"):
        emit_all(tmp_path, results, config={"seed": 7})
    assert os.listdir(tmp_path) == []


def test_emit_all_writes_config_first(tmp_path):
    written = emit_all(tmp_path, [("m", corr2x2(), ["json"])], config={"seed": 7})
    assert [os.path.basename(p) for p in written] == ["config.json", "m.json"]
    assert (tmp_path / "config.json").read_text() == json.dumps({"seed": 7}, indent=2) + "\n"
