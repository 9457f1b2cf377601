import io
import json
import os
import tracemalloc
import xml.dom.minidom
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infodrift import evolve, gen_var1, kernels, matrix_to_graph
from infodrift.errors import DataValidationError, UnsupportedFormatForShape
from infodrift.kmdrift import drift_estimate
from infodrift.matrices import MEASURES, InteractionMatrix
from infodrift import netout
from infodrift.netout import (
    FORMATS,
    InteractionGraph,
    emit,
    emit_all,
    graph_to_dot,
    load_matrix_csv,
    load_matrix_json,
)
from infodrift.stats import ReturnsMatrix
from infodrift.windows import WindowedResult, WindowSpec

from conftest import assert_no_child_process

DATA = Path(__file__).parent / "data"


def corr2x2(v=0.5):
    return InteractionMatrix(
        asset_ids=("A", "B"),
        values=np.array([[1.0, v], [v, 1.0]]),
        measure="correlation",
    )


def te_matrix_fixture():
    return InteractionMatrix(
        asset_ids=("A", "B", "C"),
        values=np.array([[1.5, 0.02, 0.11], [0.064, 1.2, 0.009], [0.2, 0.031, 2.0]]),
        measure="transfer_entropy",
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


@pytest.mark.parametrize("threshold", [-0.1, float("nan"), float("inf")])
def test_threshold_not_a_finite_number_at_least_zero_is_refused(threshold):
    with pytest.raises(ValueError, match="threshold: expected a finite number >= 0"):
        matrix_to_graph(corr2x2(0.5), threshold=threshold)
    with pytest.raises(ValueError, match="threshold: expected a finite number >= 0"):
        InteractionGraph(nodes=("A", "B"), edges=(), threshold=threshold, measure="correlation")


@pytest.mark.parametrize("measure", sorted(MEASURES))
def test_a_graph_takes_its_direction_from_its_measure(measure):
    values = np.array([[1.0, 0.5], [0.5, 1.0]])
    g = matrix_to_graph(InteractionMatrix(("A", "B"), values, measure), threshold=0.1)
    assert g.directed is MEASURES[measure][1]
    assert graph_to_dot(g).startswith("digraph G {\n" if MEASURES[measure][1] else "graph G {\n")
    for unknown in ("", measure[:2] + "?", None, [measure]):
        with pytest.raises(ValueError, match="unknown measure"):
            InteractionGraph(("A", "B"), g.edges, 0.1, unknown)
    with pytest.raises(TypeError, match="directed"):
        InteractionGraph(("A", "B"), g.edges, 0.1, measure, directed=not MEASURES[measure][1])


def test_negative_weights_pass_absolute_threshold():
    m = InteractionMatrix(
        asset_ids=("A", "B"),
        values=np.array([[1.0, -0.45], [-0.45, 1.0]]),
        measure="correlation",
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


_LOADERS = {"json": load_matrix_json, "csv": load_matrix_csv}
_DIRECTED = "directed False contradicts transfer_entropy, whose directed is True"
_UNITS = "units 'per-step' contradicts transfer_entropy, whose units is 'bits'"


@pytest.mark.parametrize("fmt, old, new, message", [
    ("json", '"directed": true', '"directed": false', _DIRECTED),
    ("json", '"units": "bits"', '"units": "per-step"', _UNITS),
    ("json", '"measure": "transfer_entropy"', '"measure": "entropy"', "unknown measure 'entropy'"),
    ("json", '"measure": "transfer_entropy",', "", "no 'measure' member"),
    ("json", '"asset_ids"', '"ids"', "no 'asset_ids' member"),
    ("json", '"values"', '"matrix"', "no 'values' member"),
    ("csv", "# directed: true", "# directed: false", _DIRECTED),
    ("csv", "# units: bits", "# units: per-step", _UNITS),
    ("csv", "# measure: transfer_entropy", "# measure: entropy", "unknown measure 'entropy'"),
], ids=["json-directed", "json-units", "json-unknown", "json-no-measure", "json-no-ids", "json-no-values",
        "csv-directed", "csv-units", "csv-unknown"])
def test_matrix_loaders_refuse_a_file_that_contradicts_its_measure_or_lacks_a_member(tmp_path, fmt, old, new, message):
    path = tmp_path / f"m.{fmt}"
    emit(te_matrix_fixture(), fmt, path)
    text = path.read_bytes()
    assert text.count(old.encode()) == 1
    path.write_bytes(text.replace(old.encode(), new.encode()))
    with pytest.raises(ValueError) as err:
        _LOADERS[fmt](path)
    assert str(err.value) == f"{path}: {message}"


def _matrix_json(asset_ids, values, measure="correlation"):
    return json.dumps({"kind": "interaction_matrix", "measure": measure, "asset_ids": asset_ids, "values": values})


_CSV_HEAD = "# infodrift-matrix v1\n# measure: correlation\nasset,A,B\nA,1.0,0.5\n"


@pytest.mark.parametrize("name, text, message", [
    ("m.json", "[1, 2]", "not an interaction_matrix document"),
    ("m.json", _matrix_json(["A", "B"], [[0.0, 0.1], [0.2, 0.0]], "mutual_information"),
     "undirected matrix is not symmetric"),
    ("m.json", _matrix_json(["A", "B"], [[1.0, 0.5], [0.5]]), "setting an array element with a sequence"),
    ("m.json", _matrix_json(["A", "B"], [[1.0, {}], [{}, 1.0]]), "float() argument must be"),
    ("m.json", _matrix_json(["A"], [[1.0, 0.0], [0.0, 1.0]]), "values must be 1x1, got (2, 2)"),
    ("m.json", _matrix_json("AB", [[1.0, 0.0], [0.0, 1.0]]), "asset_ids must be a list of str, got 'AB'"),
    ("m.json", _matrix_json([1, 2], [[1.0, 0.0], [0.0, 1.0]]), "asset_ids must be a list of str, got [1, 2]"),
    ("m.json", _matrix_json(["A", "B"], [[0.0, None], [0.1, 0.0]], "transfer_entropy"),
     "values must be numbers, got null"),
    ("m.json", _matrix_json(["A", "B"], [[1.0, 0.0], [0.0, 1.0]])[:-1] + ', "params": 5}',
     "params must be an object, got 5"),
    ("m.json", _matrix_json(["A", "B"], [[1.0, 0.0], [0.0, 1.0]], ["te"]), "unknown measure ['te']"),
    ("m.csv", _CSV_HEAD + "B\n", "setting an array element with a sequence"),
    ("m.csv", _CSV_HEAD + "B,0.5,x\n", "could not convert string to float: 'x'"),
], ids=["json-list", "json-asymmetric-mi", "json-ragged", "json-object-cell", "json-one-id-2x2", "json-ids-str",
        "json-ids-int", "json-null-cell", "json-params-int", "json-measure-list", "csv-short-row", "csv-bad-cell"])
def test_matrix_loaders_name_the_file_of_any_malformed_matrix(tmp_path, name, text, message):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as err:
        _LOADERS[name[2:]](path)
    assert str(err.value).startswith(f"{path}: {message}"), err.value


def test_matrix_csv_without_directed_or_units_lines_takes_its_measures(tmp_path):
    path = tmp_path / "m.csv"
    emit(te_matrix_fixture(), "csv", path)
    path.write_bytes(path.read_bytes().replace(b"# directed: true\n", b"").replace(b"# units: bits\n", b""))
    m = load_matrix_csv(path)
    assert (m.measure, m.directed, m.units) == ("transfer_entropy", True, "bits")
    assert np.array_equal(m.values, te_matrix_fixture().values)


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.normal(size=(4, 4))
    values = (values + values.T) / 2
    np.fill_diagonal(values, 1.0)
    m = InteractionMatrix(
        asset_ids=("w", "x", "y", "z"), values=values,
        measure="correlation",
    )
    path = tmp_path / "m.csv"
    emit(m, "csv", path)
    again = load_matrix_csv(path)
    assert np.array_equal(again.values, m.values)
    assert again.asset_ids == m.asset_ids
    assert again.measure == "correlation"


@pytest.mark.parametrize("measure", ["transfer_entropy", "correlation"], ids=["directed", "undirected"])
@pytest.mark.parametrize("ids", [
    ("A\nB", "C"), ("A\rB", "C"), ("A\r\nB", "C"), ("#A", "B"), ("A,1", 'B"q'),
], ids=["lf", "cr", "crlf", "hash", "comma-quote"])
def test_csv_round_trip_of_quoted_asset_ids(tmp_path, ids, measure):
    # csv.writer quotes an id holding a line break, a comma or a quote, and
    # an id starting with "#" begins a row: the reader takes all of them back
    values = np.array([[0.25, -0.0], [1e-300, 0.1 + 0.2]])
    m = InteractionMatrix(asset_ids=ids, values=values, measure=measure)
    path = tmp_path / "m.csv"
    emit(m, "csv", path, config={"note": "a, b\nc"})
    again = load_matrix_csv(path)
    assert again.asset_ids == ids
    assert np.array_equal(again.values.view(np.int64), values.view(np.int64))
    assert (again.measure, again.directed, again.units) == (measure, m.directed, m.units)


def test_csv_single_asset(tmp_path):
    m = InteractionMatrix(
        asset_ids=("solo",), values=np.array([[2.25]]),
        measure="transfer_entropy",
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
        measure="correlation",
    )
    lines = graph_to_dot(matrix_to_graph(m, threshold=0.4)).splitlines()
    assert lines[1:4] == ['  "A,1";', '  "B\\"q";', '  "A,1" -- "B\\"q" [label="0.50"];']


def test_dot_refuses_an_asset_id_ending_in_a_backslash():
    # Graphviz would read the id's last backslash and the closing quote as an escaped quote
    m = InteractionMatrix(
        asset_ids=("A\\", "B"), values=np.array([[1.0, 0.5], [0.5, 1.0]]),
        measure="correlation",
    )
    with pytest.raises(UnsupportedFormatForShape, match=r"^A\\: a DOT ID cannot end in a backslash$"):
        graph_to_dot(matrix_to_graph(m, threshold=0.4))


@pytest.mark.parametrize("char", ["\x00", "\x08", "\x0b", "\x0c", "\x1f", "\ud800", "\ufffe", "\uffff"])
def test_svg_refuses_a_code_point_outside_xml_chars(tmp_path, char):
    # no entity or character reference can write these in XML 1.0
    m = InteractionMatrix(
        asset_ids=(f"A{char}B", "C"), values=np.array([[1.0, 0.5], [0.5, 1.0]]),
        measure="correlation",
    )
    path = tmp_path / "m.svg"
    with pytest.raises(UnsupportedFormatForShape) as err:
        emit(m, "svg_heatmap", path)
    assert str(err.value) == f"{f'A{char}B'!r}: SVG text cannot hold {char!r}"
    assert not path.exists()


def test_svg_writes_tab_lf_and_cr_in_an_asset_id(tmp_path):
    ids = ("A\tB", "C\nD", "E\rF")
    m = InteractionMatrix(asset_ids=ids, values=np.eye(3), measure="correlation")
    emit(m, "svg_heatmap", tmp_path / "m.svg")
    texts = xml.dom.minidom.parse(str(tmp_path / "m.svg")).getElementsByTagName("text")
    assert {"A\tB", "C\nD", "E\nF"} <= {t.firstChild.data for t in texts}  # XML reads a CR as LF


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
    assert np.array_equal(stored, result.values[2])

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


# ---------------------------------------------------------------- emit_all fan-out

def fanned_results():
    """A run of four results of three shapes, windowed ones among them."""
    panel = gen_var1(np.array([[0.4, 0.1], [0.0, 0.3]]), sigma=1.0, steps=120, seed=8)
    spec = WindowSpec(mode="sliding", length=60, stride=20)
    return [
        ("evolve_te", evolve(panel, spec, "te", bins=3), ["json", "csv", "svg_heatmap"]),
        ("corr", corr2x2(0.3), ["csv", "dot", "json"]),
        ("evolve_km", evolve(panel, spec, "km"), ["csv", "json"]),
        ("drift", drift_estimate(panel, dt=1), ["json", "csv"]),
    ]


def _contents(path):
    return {name: (path / name).read_bytes() for name in sorted(os.listdir(path))}


def test_emit_all_keeps_plan_order_on_every_cpu(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "946684800")
    results = fanned_results()
    found = {}
    for cpus in (2, 1):
        monkeypatch.setattr(kernels, "_cpus", lambda cpus=cpus: cpus)
        out = tmp_path / f"cpus{cpus}"
        out.mkdir()
        written = emit_all(out, results, config={"seed": 7})
        assert [os.path.relpath(p, out) for p in written] == [
            "config.json",
            "evolve_te.json", "evolve_te.csv", "evolve_te.svg",
            "corr.csv", "corr.dot", "corr.json",
            "evolve_km.csv", "evolve_km.json",
            "drift.json",
        ]
        found[cpus] = _contents(out)
    assert_no_child_process()
    assert found[2] == found[1]
    # each file is the bytes that emit writes on its own
    for (stem, obj, _), fmt in [(results[0], "json"), (results[0], "csv"), (results[2], "json")]:
        alone = tmp_path / f"alone.{fmt}"
        emit(obj, fmt, alone, {"seed": 7})
        assert alone.read_bytes() == found[2][f"{stem}.{fmt}"]


def test_emit_all_fans_out_only_two_or_more_results(tmp_path, monkeypatch, fork_calls):
    monkeypatch.setattr(kernels, "_cpus", lambda: 2)
    te, corr, _, drift = fanned_results()
    # config.json alone, one result, and one result next to one with no file
    # in the formats asked: nothing to fork
    for k, results in enumerate([[], [te], [drift, ("g", matrix_to_graph(corr2x2()), ["svg_heatmap"])]]):
        (tmp_path / str(k)).mkdir()
        emit_all(tmp_path / str(k), results, config={"seed": 7})
    emit(corr2x2(), "json", tmp_path / "m.json")
    assert fork_calls == []
    emit_all(tmp_path, [te, corr], config={"seed": 7})
    assert fork_calls == [os.getpid()] * 2  # one fan-out of two workers
    assert_no_child_process()


def test_writer_failing_in_a_worker_removes_the_whole_run(tmp_path, monkeypatch):
    # the writer fails in the worker and again in the calling process, whose
    # error is raised; no file of the run reaches out, so the older file of a
    # result's name stays as it was
    monkeypatch.setattr(kernels, "_cpus", lambda: 2)
    caller = os.getpid()
    seen = tmp_path / "seen"
    seen.mkdir()
    out = tmp_path / "out"
    out.mkdir()
    (out / "unrelated.txt").write_text("kept")
    (out / "first.json").write_text("replaced")

    def failing(obj, fh, config, threshold):
        (seen / str(os.getpid())).touch()
        fh.write("<svg")
        raise OSError(f"disk full in {'the caller' if os.getpid() == caller else 'a worker'}")

    monkeypatch.setitem(netout._WRITERS, (InteractionMatrix, "svg_heatmap"), failing)
    results = [("first", corr2x2(0.1), ["json", "csv"]), ("second", corr2x2(0.2), ["json", "svg_heatmap"]),
               ("third", corr2x2(0.3), ["json", "dot"])]
    with pytest.raises(OSError, match="^disk full in the caller$"):
        emit_all(out, results, config={"seed": 7})
    assert sorted(os.listdir(out)) == ["first.json", "unrelated.txt"]
    assert (out / "unrelated.txt").read_text() == "kept"
    assert (out / "first.json").read_text() == "replaced"
    assert str(caller) in os.listdir(seen) and len(os.listdir(seen)) == 2
    assert_no_child_process()


def test_failed_run_leaves_files_it_did_not_write(tmp_path, monkeypatch):
    # config.json fails first, so no result is written, and an older file of
    # a result's name stays
    def failing(doc, fh, config, threshold):
        raise OSError("disk full")

    monkeypatch.setitem(netout._WRITERS, (dict, "json"), failing)
    (tmp_path / "corr.json").write_text("older")
    with pytest.raises(OSError, match="disk full"):
        emit_all(tmp_path, fanned_results()[:2], config={"seed": 7})
    assert os.listdir(tmp_path) == ["corr.json"]
    assert (tmp_path / "corr.json").read_text() == "older"


def test_interrupted_fan_out_removes_the_files_it_wrote(tmp_path, monkeypatch):
    # every result was written before the interrupt, but none reaches out
    def interrupted(task, count):
        for k in range(count):
            task(k)
        raise KeyboardInterrupt

    monkeypatch.setattr(netout, "fan_out", interrupted)
    (tmp_path / "unrelated.txt").write_text("kept")
    with pytest.raises(KeyboardInterrupt):
        emit_all(tmp_path, fanned_results()[:2], config={"seed": 7})
    assert os.listdir(tmp_path) == ["unrelated.txt"]


def test_worker_that_dies_has_its_result_written_in_process(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "946684800")
    monkeypatch.setattr(kernels, "_cpus", lambda: 2)
    results = fanned_results()
    want = tmp_path / "want"
    want.mkdir()
    emit_all(want, results, config={"seed": 7})

    caller = os.getpid()
    csv_writer = netout._WRITERS[(InteractionMatrix, "csv")]

    def dying(m, fh, config, threshold):
        if os.getpid() != caller:
            fh.write("asset,")
            fh.flush()
            os._exit(1)
        csv_writer(m, fh, config, threshold)

    monkeypatch.setitem(netout._WRITERS, (InteractionMatrix, "csv"), dying)
    got = tmp_path / "got"
    got.mkdir()
    emit_all(got, results, config={"seed": 7})
    assert _contents(got) == _contents(want)
    assert_no_child_process()


# ---------------------------------------------------------------- staged commit

def _files_in(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


def _staged_dirs(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob(".infodrift-*"))


@pytest.mark.parametrize("outcome", ["success", "failure", "interrupt"])
@pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
def test_no_staging_directory_is_left(tmp_path, monkeypatch, outcome, existing):
    monkeypatch.setattr(kernels, "_cpus", lambda: 2)
    out = tmp_path / "runs" / "out"
    if existing:
        out.mkdir(parents=True)
        (out / "corr.csv").write_text("older")
    if outcome == "failure":
        def failing(m, fh, config, threshold):
            raise OSError("disk full")

        monkeypatch.setitem(netout._WRITERS, (InteractionMatrix, "dot"), failing)
    elif outcome == "interrupt":
        def interrupted(task, count):
            for k in range(count):
                task(k)
            raise KeyboardInterrupt

        monkeypatch.setattr(netout, "fan_out", interrupted)
    if outcome == "success":
        emit_all(out, fanned_results()[:2], config={"seed": 7})
        assert (out / "corr.csv").read_text() != "older"
    else:
        with pytest.raises(OSError if outcome == "failure" else KeyboardInterrupt):
            emit_all(out, fanned_results()[:2], config={"seed": 7})
        assert _files_in(tmp_path) == (["runs", "runs/out", "runs/out/corr.csv"] if existing else [])
    assert _staged_dirs(tmp_path) == []


def test_directory_at_a_planned_name_moves_no_file(tmp_path):
    (tmp_path / "m.json").write_text("older")
    (tmp_path / "m.csv").mkdir()
    with pytest.raises(DataValidationError, match="m.csv: is a directory$"):
        emit_all(tmp_path, [("m", corr2x2(), ["json", "csv"])], config={"seed": 7})
    assert _files_in(tmp_path) == ["m.csv", "m.json"]
    assert (tmp_path / "m.json").read_text() == "older"


def test_failed_emit_leaves_an_existing_file_as_it_was(tmp_path, monkeypatch):
    def half_written(obj, fh, config, threshold):
        fh.write("<svg")
        raise OSError("disk full")

    monkeypatch.setitem(netout._WRITERS, (InteractionMatrix, "svg_heatmap"), half_written)
    (tmp_path / "m.svg").write_text("older")
    with pytest.raises(OSError, match="disk full"):
        emit(corr2x2(), "svg_heatmap", tmp_path / "m.svg")
    assert _files_in(tmp_path) == ["m.svg"]
    assert (tmp_path / "m.svg").read_text() == "older"


def test_emit_creates_the_missing_directory(tmp_path):
    emit(corr2x2(), "csv", tmp_path / "new" / "nested" / "m.csv")
    assert _files_in(tmp_path) == ["new", "new/nested", "new/nested/m.csv"]


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


def _reference_windowed_csv(w, fh, config=None):
    """The windowed CSV as one csv.writer row per pair and window."""
    ids = w.asset_ids
    writer = netout._csv(fh, "windowed", config, {"measure": w.measure})
    writer.writerow(["window_start", "window_end", "from_asset", "to_asset", "value"])
    for (lo, hi), values in zip(w.labels, w.values):
        for a in range(len(ids)):
            for b in range(len(ids)):
                writer.writerow([lo, hi, ids[a], ids[b], repr(float(values[b, a]))])


CSV_TEXT = st.text(st.sampled_from([",", '"', "\n", "\r", " ", "%", "a", "\u00e9"]), max_size=4)


def _result(ids, labels, values, measure="transfer_entropy", edges=None, params=None):
    """A directed result of one window per (start, end) label, the k-th of [k, k + 1)."""
    return WindowedResult(
        measure=measure, asset_ids=tuple(ids), values=values,
        bounds=np.array([(k, k + 1) for k in range(len(labels))]).reshape(-1, 2), labels=tuple(labels),
        spec=WindowSpec(mode="sliding", length=2, stride=1),
        params={"bins": 2, "dt": 1} if params is None else params, edges=edges,
    )


@given(
    st.lists(CSV_TEXT, min_size=1, max_size=4, unique=True),
    st.lists(st.tuples(CSV_TEXT, CSV_TEXT), min_size=1, max_size=3),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_windowed_csv_equals_csv_writer_rows(ids, labels, data):
    n, k = len(ids), len(labels)
    values = np.array(data.draw(st.lists(FLOATS, min_size=k * n * n, max_size=k * n * n))).reshape(k, n, n)
    w = _result(ids, labels, values, params={})
    got, want = io.StringIO(), io.StringIO()
    netout._windowed(w, None, csv_fh=got)
    _reference_windowed_csv(w, want)
    assert got.getvalue() == want.getvalue()


def windowed_to_dict(w, config=None):
    """The whole windowed JSON document, as it was built before the writer
    streamed it: the oracle."""
    return netout._document("windowed_result", {
        "measure": w.measure,
        "directed": w.directed,
        "units": w.units,
        "asset_ids": list(w.asset_ids),
        "window_spec": w.spec.describe(),
        "params": w.params,
        "windows": [
            {
                "start": lo,
                "end": hi,
                "start_index": si,
                "end_index": ei,
                "values": w.values[k].tolist(),
                **({} if w.edges is None else {"bin_edges": dict(zip(w.asset_ids, w.edges[k].tolist()))}),
            }
            for k, ((lo, hi), (si, ei)) in enumerate(zip(w.labels, w.bounds.tolist()))
        ],
    }, config)


EDGES = st.sampled_from([0.0, -0.0, 0.5, -1.25, float("nan"), float("inf"), float("-inf")]) | st.floats()


@st.composite
def windowed_results(draw):
    """A TE result with a (W, N, bins + 1) stack of bin edges, or a km result without."""
    ids = draw(st.lists(CSV_TEXT | st.text(max_size=3), min_size=1, max_size=3, unique=True))
    labels = draw(st.lists(st.tuples(CSV_TEXT, CSV_TEXT), min_size=1, max_size=3))
    n, k = len(ids), len(labels)
    values = np.array(draw(st.lists(FLOATS, min_size=k * n * n, max_size=k * n * n))).reshape(k, n, n)
    if not draw(st.booleans()):
        return _result(ids, labels, values, "km_drift")
    per = draw(st.integers(1, 4))
    edges = np.array(draw(st.lists(EDGES, min_size=k * n * per, max_size=k * n * per))).reshape(k, n, per)
    return _result(ids, labels, values, edges=edges)


def _example_result(ids, labels, binned=False):
    """A TE result with a window per (start, end) label, with bin edges when ``binned``."""
    n, k = len(ids), len(labels)
    values = np.tile(np.arange(n * n, dtype=np.float64).reshape(n, n) / 8, (k, 1, 1))
    edges = np.tile([-0.5, 0.0, float("nan")], (k, n, 1)) if binned else None
    return _result(ids, labels, values, edges=edges)


# texts that could end the head or start the tail of the windowed JSON early
_MARKERS = ["\x00", '"windows": null', "]", "\n"]


@given(windowed_results(), st.sampled_from([("json",), ("csv",), ("json", "csv")]),
       st.none() | st.just({"seed": 7, "measures": ["te", "é"]}))
@example(_example_result(_MARKERS, [(a, b) for a in _MARKERS for b in _MARKERS[:2]], binned=True),
         ("json", "csv"), {"seed": 7, "measures": _MARKERS, "\x00": "\x00"})
@example(_example_result(["A", "B"], [("a", "b"), ("c", "d"), ("e", "f")], binned=True), ("json", "csv"), None)
@example(_example_result(["A", "B"], [("a", "b")]), ("json", "csv"), {"seed": 7})
@example(_example_result(["A"], [("a", "b")], binned=True), ("json",), None)
@settings(max_examples=200, deadline=None)
def test_streamed_windowed_json_and_csv_equal_the_oracles(w, formats, config):
    sinks = {fmt: io.StringIO() for fmt in formats}
    with mock.patch.dict(os.environ, {"SOURCE_DATE_EPOCH": "946684800"}):
        netout._windowed(w, config, sinks.get("json"), sinks.get("csv"))
        want = json.dumps(windowed_to_dict(w, config), indent=2) + "\n"
    if "json" in sinks:
        assert sinks["json"].getvalue() == want
    if "csv" in sinks:
        oracle = io.StringIO()
        _reference_windowed_csv(w, oracle, config)
        assert sinks["csv"].getvalue() == oracle.getvalue()


def test_streamed_edges_keep_signed_zeros_apart():
    # one text per float64 bit pattern: 0.0 and -0.0 are equal as floats
    w = _result(["A", "B"], [("a", "b"), ("c", "d")], np.zeros((2, 2, 2)), edges=np.array([[[-0.0, 0.0], [0.0, -0.0]]] * 2))
    assert list(netout._edge_texts(w)) == [[["-0.0", "0.0"], ["0.0", "-0.0"]]] * 2


def test_streamed_edges_hold_no_per_entry_object_of_the_whole_result():
    # 2,000 windows of 10 assets' 9 edges, from 3,000 distinct floats: an
    # inverse index this large is made of distinct ints, not CPython's cached ones
    rng = np.random.default_rng(0)
    edges = rng.choice(rng.standard_normal(3000), size=(2000, 10, 9))
    w = _result([f"A{i}" for i in range(10)], [("a", "b")] * 2000, np.zeros((2000, 10, 10)), edges=edges)
    held = []

    class Sink:
        def write(self, text):
            held.append(tracemalloc.get_traced_memory()[0])

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        netout._windowed(w, None, json_fh=Sink())
    finally:
        tracemalloc.stop()
    assert max(held) - base <= 2 * w.edges.nbytes
