import io
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infodrift import evolve, gen_var1, matrix_to_graph
from infodrift.errors import DataValidationError, UnsupportedFormatForShape
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
)
from infodrift.stats import ReturnsMatrix
from infodrift.windows import WindowedResult, WindowSpec

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


def test_dot_escapes_quotes_in_asset_ids():
    m = InteractionMatrix(
        asset_ids=("A,1", 'B"q'), values=np.array([[1.0, 0.5], [0.5, 1.0]]),
        measure="correlation", directed=False, units="dimensionless",
    )
    lines = graph_to_dot(matrix_to_graph(m, threshold=0.4)).splitlines()
    assert lines[1:4] == ['  "A,1";', '  "B\\"q";', '  "A,1" -- "B\\"q" [label="0.50"];']


def test_dot_refuses_an_asset_id_ending_in_a_backslash():
    # Graphviz would read the id's last backslash and the closing quote as an escaped quote
    m = InteractionMatrix(
        asset_ids=("A\\", "B"), values=np.array([[1.0, 0.5], [0.5, 1.0]]),
        measure="correlation", directed=False, units="dimensionless",
    )
    with pytest.raises(UnsupportedFormatForShape, match=r"^A\\: a DOT ID cannot end in a backslash$"):
        graph_to_dot(matrix_to_graph(m, threshold=0.4))


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


def test_svg_matrix_golden_file(tmp_path):
    path = tmp_path / "m.svg"
    emit(corr2x2(0.5), "svg_heatmap", path)
    golden = (DATA / "corr2x2_golden.svg").read_bytes()
    assert path.read_bytes() == golden


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


def test_windowed_svg_has_one_column_per_window(tmp_path):
    panel = gen_var1(np.array([[0.4, 0.1], [0.0, 0.3]]), sigma=1.0, steps=300, seed=4)
    result = evolve(panel, WindowSpec(mode="segmented", segments=10), "transfer_entropy", bins=2)
    path = tmp_path / "w.svg"
    emit(result, "svg_heatmap", path)
    text = path.read_text()
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


def test_emit_all_refuses_two_results_of_one_file_name(tmp_path):
    with pytest.raises(DataValidationError, match="^m: two results would be written to m.csv$"):
        emit_all(tmp_path, [("m", corr2x2(), ["json"]), ("m", corr2x2(), ["csv"]), ("m", corr2x2(), ["csv"])],
                 config={"seed": 7})
    with pytest.raises(DataValidationError, match="^config: two results would be written to config.json$"):
        emit_all(tmp_path, [("config", corr2x2(), ["json"])], config={"seed": 7})
    assert os.listdir(tmp_path) == []
    # one result that names a format twice writes its file once
    assert emit_all(tmp_path, [("m", corr2x2(), ["csv", "csv"])]) == [str(tmp_path / "m.csv")]


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


# ---------------------------------------------------------------- writer properties

NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64, max_value=2**200)
    | st.floats() | NON_FINITE | st.floats().map(np.float64) | st.text()
)
JSON_KEYS = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
JSON_DOCS = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=5) | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(JSON_KEYS, children, max_size=5),
    max_leaves=40,
)


@given(JSON_DOCS)
@example({"a": [], "b": {}, "c": [[], {}, [1.5, [2]], {"d": [float("nan"), -0.0]}], "é\u2028": "\U0001f600"})
@example([[1.5, float("nan")], ["a],\n    [", "]"], [True, None, -0.0, 2**70], [[0.5]], [["x"], [1]]])
@example({"values": [[float("inf"), 0.25], [-0.0, float("-inf")]], "rows": [[], [1]]})
@settings(max_examples=300, deadline=None)
def test_json_is_json_dumps_indent_2(doc):
    fh = io.StringIO()
    netout._write_json(doc, fh)
    assert fh.getvalue() == json.dumps(doc, indent=2) + "\n"


_DIVERGING = ((33, 102, 172), (247, 247, 247), (178, 24, 43))
_SEQUENTIAL = ((255, 255, 255), (8, 48, 107))


def _lerp(c0, c1, t: float) -> tuple[int, int, int]:
    return tuple(int(round(a + (b - a) * t)) for a, b in zip(c0, c1))


def _color(value: float, vmin: float, vmax: float, diverging: bool) -> str:
    """The per-cell colour the heatmaps were first written with: the oracle."""
    if diverging:
        limit = max(abs(vmin), abs(vmax), 1e-300)
        t = max(-1.0, min(1.0, value / limit))
        if t < 0:
            return "#{:02x}{:02x}{:02x}".format(*_lerp(_DIVERGING[1], _DIVERGING[0], -t))
        return "#{:02x}{:02x}{:02x}".format(*_lerp(_DIVERGING[1], _DIVERGING[2], t))
    span = vmax - vmin
    t = 0.0 if span <= 0 else max(0.0, min(1.0, (value - vmin) / span))
    return "#{:02x}{:02x}{:02x}".format(*_lerp(_SEQUENTIAL[0], _SEQUENTIAL[1], t))


FLOATS = st.floats() | NON_FINITE | st.floats(-4, 4).map(lambda v: round(v * 8) / 8)


@given(st.lists(FLOATS, max_size=30), FLOATS, FLOATS, st.booleans())
@example([1.0, -1.0, 0.5, 2.0, -2.0], 0.0, 2.0, False)  # 1.0: channels 131.5 and 151.5
@example([1.0, -1.0, 0.5, 2.0, -2.0], -2.0, 2.0, True)  # +-1.0: 212.5, 135.5, 174.5, 209.5
@example([0.5, float("nan")], 1.0, 1.0, False)  # zero span
@example([0.5, float("nan"), float("inf")], float("nan"), 1.0, True)
@example([0.5, float("-inf")], 0.0, float("nan"), False)
@settings(max_examples=300, deadline=None)
def test_colors_equal_the_scalar_color(values, vmin, vmax, diverging):
    fills = netout._colors(np.array(values, dtype=np.float64), vmin, vmax, diverging)
    assert [f"#{c:06x}" for c in fills.tolist()] == [_color(v, vmin, vmax, diverging) for v in values]


def _reference_windowed_csv(w, fh):
    """The windowed CSV as one csv.writer row per pair and window."""
    ids = w.entries[0][4].asset_ids
    writer = netout._csv(fh, "windowed", None, measure=w.measure)
    writer.writerow(["window_start", "window_end", "from_asset", "to_asset", "value"])
    for lo, hi, _, _, matrix in w.entries:
        for a in range(len(ids)):
            for b in range(len(ids)):
                writer.writerow([lo, hi, ids[a], ids[b], repr(float(matrix.values[b, a]))])


CSV_TEXT = st.text(st.sampled_from([",", '"', "\n", "\r", " ", "%", "a", "\u00e9"]), max_size=4)


@given(
    st.lists(CSV_TEXT, min_size=1, max_size=4, unique=True),
    st.lists(st.tuples(CSV_TEXT, CSV_TEXT), min_size=1, max_size=3),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_windowed_csv_equals_csv_writer_rows(ids, labels, data):
    n = len(ids)
    entries = tuple(
        (lo, hi, k, k + 1, InteractionMatrix(
            asset_ids=tuple(ids),
            values=np.array(data.draw(st.lists(FLOATS, min_size=n * n, max_size=n * n))).reshape(n, n),
            measure="transfer_entropy", directed=True, units="bits",
        ))
        for k, (lo, hi) in enumerate(labels)
    )
    w = WindowedResult(
        measure="transfer_entropy", entries=entries, spec=WindowSpec(mode="segmented", segments=1),
    )
    got, want = io.StringIO(), io.StringIO()
    netout._windowed_csv(w, got, None, 0.0)
    _reference_windowed_csv(w, want)
    assert got.getvalue() == want.getvalue()
