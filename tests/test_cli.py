import csv
import datetime as dt
import json
import os
import subprocess
import sys
import threading
import urllib.request
import weakref
import xml.etree.ElementTree as ET
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from click.testing import CliRunner

from infodrift import (
    align, bin_series, cli, compute_returns, infoflow, kmdrift, load_csv, measures, netout,
    surrogate_floor, synth,
)
from infodrift.cli import main
from infodrift.matrices import InteractionMatrix
from infodrift.measures import canonical_measure
from infodrift.netout import load_matrix_json

from conftest import child_pythonpath


@pytest.fixture
def runner():
    return CliRunner()


def write_panel(tmp_path, n_rows=60, seed=0, ids=("AAA", "BBB")):
    rng = np.random.default_rng(seed)
    base = dt.date(2020, 1, 1).toordinal()
    paths = []
    for k, asset in enumerate(ids):
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, size=n_rows)))
        lines = ["Date,Adj Close"]
        for i in range(n_rows):
            day = dt.date.fromordinal(base + i).isoformat()
            lines.append(f"{day},{float(prices[i])!r}")
        path = tmp_path / f"{asset}.csv"
        path.write_text("\n".join(lines) + "\n")
        paths.append(str(path))
    return paths


def test_stats_two_asset_fixture(runner, tmp_path):
    paths = write_panel(tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(main, ["--out", str(out), "stats", *paths])
    assert result.exit_code == 0, result.output
    lines = [l for l in (out / "stats.csv").read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "asset,mean,std,skewness,excess_kurtosis"
    assert len(lines) == 3  # header + 2 assets
    doc = json.loads((out / "stats.json").read_text())
    assert [row["asset"] for row in doc["rows"]] == ["AAA", "BBB"]
    assert doc["config"]["config_version"] == 1


def test_stats_csv_quotes_asset_ids(runner, tmp_path):
    # an asset id is a file name, so it can hold a comma, a quote or a carriage return
    paths = write_panel(tmp_path, ids=("A,1", 'B"q', "C\rq"))
    out = tmp_path / "out"
    result = runner.invoke(main, ["--out", str(out), "stats", *paths])
    assert result.exit_code == 0, result.output
    with open(out / "stats.csv", newline="") as fh:
        rows = [row for row in csv.reader(fh) if not row[0].startswith("#")]
    assert [len(row) for row in rows] == [5, 5, 5, 5]
    assert [row[0] for row in rows] == ["asset", "A,1", 'B"q', "C\rq"]


def test_dot_asset_id_ending_in_a_backslash_exit_2_before_out(runner, tmp_path):
    paths = write_panel(tmp_path, ids=("A\\", "BBB"))
    out = tmp_path / "out"
    result = runner.invoke(main, ["--out", str(out), "--format", "dot", "analyze", "--measures", "corr", *paths])
    assert result.exit_code == 2, result.output
    assert result.output.endswith("error: A\\: a DOT ID cannot end in a backslash\n")
    assert not out.exists()


def test_svg_asset_id_holding_a_control_character_exit_2_before_out(runner, tmp_path):
    paths = write_panel(tmp_path, ids=("A\x1fB", "C"))
    out = tmp_path / "out"
    result = runner.invoke(main, ["--out", str(out), "--format", "svg", "analyze", "--measures", "corr", *paths])
    assert result.exit_code == 2, result.output
    assert result.output.endswith("error: 'A\\x1fB': SVG text cannot hold '\\x1f'\n")
    assert not out.exists()
    result = runner.invoke(main, ["--out", str(out), "--format", "json,csv", "analyze", "--measures", "corr", *paths])
    assert result.exit_code == 0, result.output
    assert json.loads((out / "correlation.json").read_text())["asset_ids"] == ["A\x1fB", "C"]


@pytest.mark.parametrize("asset", ["../escaped", "a/b"])
def test_asset_id_holding_a_path_separator_exit_2_writes_nothing(runner, tmp_path, asset):
    out = tmp_path / "esc" / "run"
    out.parent.mkdir()
    result = runner.invoke(main, ["--out", str(out), "simulate", "--kind", "coupled_binary", "--steps", "50",
                                  "--assets", f"{asset},Y"])
    assert result.exit_code == 2, result.output
    assert result.output.endswith(f"error: {asset}: an asset id or result name cannot hold '/'\n")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["esc"]


def test_stats_no_inputs_exit_2(runner, tmp_path):
    result = runner.invoke(main, ["--out", str(tmp_path / "o"), "stats"])
    assert result.exit_code == 2
    assert "no input series" in result.output


def test_analyze_correlation_outputs(runner, tmp_path):
    paths = write_panel(tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(
        main, ["--out", str(out), "analyze", "--measures", "correlation", *paths]
    )
    assert result.exit_code == 0, result.output
    for ext in ("json", "csv", "dot", "svg"):
        assert (out / f"correlation.{ext}").exists()
    m = load_matrix_json(out / "correlation.json")
    assert m.values.shape == (2, 2)
    assert m.values[0, 0] == 1.0


def test_analyze_te_km_metadata(runner, tmp_path):
    paths = write_panel(tmp_path, n_rows=120)
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["--out", str(out), "--bins", "4", "analyze", "--measures", "te,km", *paths],
    )
    assert result.exit_code == 0, result.output
    te_doc = json.loads((out / "transfer_entropy.json").read_text())
    assert te_doc["params"]["bins"] == 4
    assert te_doc["directed"] is True
    km_doc = json.loads((out / "km_drift.json").read_text())
    assert km_doc["params"]["centered"] is True
    assert (out / "km_drift_estimate.json").exists()


def test_analyze_km_solves_drift_once(runner, tmp_path, monkeypatch):
    # km_drift.json and km_drift_estimate.json come from one moment solve
    calls = []
    solve = kmdrift.solve_drift

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(kmdrift, "solve_drift", counted)
    paths = write_panel(tmp_path, n_rows=120)
    out = tmp_path / "out"
    result = runner.invoke(
        main, ["--out", str(out), "--format", "json", "analyze", "--measures", "km", *paths]
    )
    assert result.exit_code == 0, result.output
    assert len(calls) == 1
    matrix = json.loads((out / "km_drift.json").read_text())
    estimate = json.loads((out / "km_drift_estimate.json").read_text())
    assert matrix["values"] == estimate["A"]


def test_analyze_surrogates_bin_each_column_once(runner, tmp_path, monkeypatch):
    # the TE surrogate floor shuffles the binned columns that TE was estimated
    # from, and is given their (N, T) symbols as binned, not a copy
    rows, binned, floored = [], [], []
    bin_windows = measures.bin_windows

    def counted(values, *args, **kwargs):
        rows.extend(values)
        binned.append(bin_windows(values, *args, **kwargs))
        return binned[-1]

    def floor(symbols, *args, **kwargs):
        floored.append(symbols)
        return infoflow.te_floor_matrix(symbols, *args, **kwargs)

    monkeypatch.setattr(measures, "bin_windows", counted)
    monkeypatch.setattr(cli, "te_floor_matrix", floor)
    paths = write_panel(tmp_path, n_rows=120, ids=("AAA", "BBB", "CCC"))
    out = tmp_path / "out"
    result = runner.invoke(
        main, ["--out", str(out), "--surrogates", "3", "--format", "json",
               "analyze", "--measures", "te", *paths],
    )
    assert result.exit_code == 0, result.output
    assert len(rows) == 3
    assert len(floored) == 1 and floored[0] is binned[0][0]
    assert (out / "transfer_entropy_floor.json").exists()


def test_analyze_floor_equals_the_per_pair_oracle(runner, tmp_path):
    # floor[i][j] is surrogate_floor of binned column j into binned column i,
    # on the substream that --seed and (i, j) key
    paths = write_panel(tmp_path, n_rows=120, ids=("AAA", "BBB", "CCC"))
    out = tmp_path / "out"
    result = runner.invoke(
        main, ["--out", str(out), "--seed", "5", "--surrogates", "3", "--format", "json",
               "analyze", "--measures", "te", *paths],
    )
    assert result.exit_code == 0, result.output
    floor = load_matrix_json(out / "transfer_entropy_floor.json").values
    returns = compute_returns(align([load_csv(p) for p in paths]))
    seqs = [bin_series(column, 8) for column in returns.values.T]
    expected = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            if i != j:
                ss = np.random.SeedSequence(5, spawn_key=(i, j))
                expected[i, j] = surrogate_floor(seqs[j], seqs[i], shuffles=3, seed=ss)
    assert np.array_equal(floor.view(np.int64), expected.view(np.int64)), (floor, expected)


def test_analyze_entropy_measures_bin_each_column_once(runner, tmp_path, monkeypatch):
    # TE counts the columns that MI binned; the values are those of separate runs
    rows = []
    bin_windows = measures.bin_windows

    def counted(values, *args, **kwargs):
        rows.extend(values)
        return bin_windows(values, *args, **kwargs)

    monkeypatch.setattr(measures, "bin_windows", counted)
    paths = write_panel(tmp_path, n_rows=120, ids=("AAA", "BBB", "CCC"))
    docs = {}
    for measures_arg in ("mi,km,te", "mi", "te"):
        out = tmp_path / measures_arg
        result = runner.invoke(main, ["--out", str(out), "--format", "json", "analyze", "--measures", measures_arg, *paths])
        assert result.exit_code == 0, result.output
        docs[measures_arg] = {f.name: json.loads(f.read_text()) for f in out.glob("*_*.json")}
    assert len(rows) == 3 + 3 + 3
    for name in ("mutual_information.json", "transfer_entropy.json"):
        single = docs["mi" if name.startswith("mutual") else "te"][name]
        assert docs["mi,km,te"][name]["values"] == single["values"]
        assert docs["mi,km,te"][name]["params"] == single["params"]


def test_analyze_frees_the_binned_columns_that_no_later_measure_counts(runner, tmp_path, monkeypatch):
    # the drift solve of "mi,te,km" runs after TE freed the binned columns;
    # that of "mi,km,te" runs while they wait for TE
    refs, alive = [], []
    bin_windows, drift_estimate = measures.bin_windows, measures.drift_estimate

    def binned(*args, **kwargs):
        symbols, edges = bin_windows(*args, **kwargs)
        refs.append(weakref.ref(symbols))
        return symbols, edges

    def drift(*args, **kwargs):
        alive.append([ref() is not None for ref in refs])
        return drift_estimate(*args, **kwargs)

    monkeypatch.setattr(measures, "bin_windows", binned)
    monkeypatch.setattr(measures, "drift_estimate", drift)
    paths = write_panel(tmp_path, n_rows=120, ids=("AAA", "BBB", "CCC"))
    for measures_arg in ("mi,te,km", "mi,km,te"):
        refs.clear()
        result = runner.invoke(main, ["--out", str(tmp_path / measures_arg), "--format", "json",
                                      "analyze", "--measures", measures_arg, *paths])
        assert result.exit_code == 0, result.output
    assert alive == [[False], [True]]


@pytest.mark.parametrize("command, driver, position", [
    (["analyze"], "evaluate", 1),
    (["--windows", "segmented:2", "evolve"], "evolve", 2),
], ids=["analyze", "evolve"])
def test_repeated_measure_runs_once(runner, tmp_path, monkeypatch, command, driver, position):
    # corr and correlation name one measure: it is estimated once and its files written once
    runs, written = [], []
    run, emit_all = getattr(cli, driver), netout.emit_all

    def counted_run(*args, **kwargs):
        runs.append(args[position])
        return run(*args, **kwargs)

    def counted_emit_all(*args, **kwargs):
        written.extend(emit_all(*args, **kwargs))
        return written

    monkeypatch.setattr(cli, driver, counted_run)
    monkeypatch.setattr(netout, "emit_all", counted_emit_all)
    paths = write_panel(tmp_path, n_rows=80)
    out = tmp_path / "out"
    result = runner.invoke(main, ["--out", str(out), *command, "--measures", "corr,correlation,km", *paths])
    assert result.exit_code == 0, result.output
    assert runs == ["correlation", "km_drift"]
    assert len(written) == len(set(written)) == len(_files(out))
    assert json.loads((out / "config.json").read_text())["measures"] == ["corr", "correlation", "km"]


def test_analyze_unknown_measure_exit_2(runner, tmp_path):
    paths = write_panel(tmp_path)
    result = runner.invoke(
        main, ["--out", str(tmp_path / "o"), "analyze", "--measures", "sorcery", *paths]
    )
    assert result.exit_code == 2
    assert "unknown measure" in result.output


def test_analyze_degenerate_panel_exit_3(runner, tmp_path):
    base = dt.date(2020, 1, 1).toordinal()
    lines = ["Date,Adj Close"] + [
        f"{dt.date.fromordinal(base + i).isoformat()},100.0" for i in range(30)
    ]
    flat = tmp_path / "FLAT.csv"
    flat.write_text("\n".join(lines) + "\n")
    paths = [str(flat), *write_panel(tmp_path, ids=("GOOD",))]
    result = runner.invoke(
        main, ["--out", str(tmp_path / "o"), "analyze", "--measures", "correlation", *paths]
    )
    assert result.exit_code == 3
    assert "FLAT" in result.output


@pytest.mark.parametrize("measure", ["corr", "mi", "te", "km"])
def test_evolve_k1_equals_analyze(runner, tmp_path, measure):
    paths = write_panel(tmp_path, n_rows=80)
    out_a, out_e = tmp_path / "a", tmp_path / "e"
    r1 = runner.invoke(main, ["--out", str(out_a), "analyze", "--measures", measure, *paths])
    r2 = runner.invoke(
        main,
        ["--out", str(out_e), "--windows", "segmented:1", "evolve", "--measures", measure, *paths],
    )
    assert r1.exit_code == 0 and r2.exit_code == 0, r1.output + r2.output
    name = canonical_measure(measure)
    full = load_matrix_json(out_a / f"{name}.json")
    windowed = json.loads((out_e / f"evolve_{name}.json").read_text())
    assert len(windowed["windows"]) == 1
    assert np.array_equal(np.array(windowed["windows"][0]["values"]), full.values)


def test_evolve_window_too_large_exit_2(runner, tmp_path):
    paths = write_panel(tmp_path, n_rows=30)
    result = runner.invoke(
        main,
        ["--out", str(tmp_path / "o"), "--windows", "sliding:500:10",
         "evolve", "--measures", "corr", *paths],
    )
    assert result.exit_code == 2


def test_evolve_writes_long_csv(runner, tmp_path):
    paths = write_panel(tmp_path, n_rows=100)
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["--out", str(out), "--windows", "segmented:5", "evolve", "--measures", "corr", *paths],
    )
    assert result.exit_code == 0, result.output
    lines = (out / "evolve_correlation.csv").read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "window_start,window_end,from_asset,to_asset,value"
    assert len(data) == 1 + 5 * 4
    assert (out / "evolve_correlation.svg").exists()


@pytest.mark.parametrize("measure", ["corr", "te"])
def test_single_asset_evolve_writes_default_formats(runner, tmp_path, measure):
    # one asset has no pairs: the heatmap has no pair rows and a zero-span legend
    paths = write_panel(tmp_path, ids=("AAA",))
    out = tmp_path / "out"
    result = runner.invoke(
        main, ["--out", str(out), "--windows", "segmented:3", "evolve", "--measures", measure, *paths],
    )
    assert result.exit_code == 0, result.output
    stem = f"evolve_{canonical_measure(measure)}"
    assert _files(out) == ["config.json", f"{stem}.csv", f"{stem}.json", f"{stem}.svg"]
    assert len(json.loads((out / f"{stem}.json").read_text())["windows"]) == 3
    svg = (out / f"{stem}.svg").read_text()
    ET.fromstring(svg)
    assert svg.count("<rect") == 1 + 32  # the background and the legend's steps
    assert '<text x="150" y="94" font-size="11">0</text>\n' in svg
    assert '<text x="246" y="94" font-size="11" text-anchor="end">0</text>\n' in svg


def test_simulate_feeds_analyze(runner, tmp_path):
    out_sim = tmp_path / "sim"
    result = runner.invoke(
        main,
        ["--out", str(out_sim), "--seed", "5", "simulate", "--kind", "var1",
         "--steps", "400", "--matrix", "[[0.5, 0.0], [0.3, 0.4]]", "--sigma", "0.01"],
    )
    assert result.exit_code == 0, result.output
    csvs = sorted(out_sim.glob("S*.csv"))
    assert len(csvs) == 2
    out_an = tmp_path / "an"
    result = runner.invoke(
        main,
        ["--out", str(out_an), "analyze", "--measures", "km,corr",
         *[str(p) for p in csvs]],
    )
    assert result.exit_code == 0, result.output
    km = load_matrix_json(out_an / "km_drift.json")
    # log returns of the simulated prices reproduce the VAR panel: the drift
    # step map psi + I must sit near the true a_step
    psi = km.values  # step_duration 1, dt 1
    assert np.allclose(psi + np.eye(2), [[0.5, 0.0], [0.3, 0.4]], atol=0.12)


def test_simulate_coupled_binary(runner, tmp_path):
    out = tmp_path / "sim"
    result = runner.invoke(
        main,
        ["--out", str(out), "simulate", "--kind", "coupled_binary",
         "--steps", "50", "--eps", "0.1"],
    )
    assert result.exit_code == 0, result.output
    assert (out / "X.csv").exists() and (out / "Y.csv").exists()


def test_simulate_unstable_exit_2(runner, tmp_path):
    result = runner.invoke(
        main,
        ["--out", str(tmp_path / "o"), "simulate", "--kind", "var1",
         "--steps", "100", "--matrix", "[[1.5]]"],
    )
    assert result.exit_code == 2


@pytest.mark.parametrize("args, message", [
    (["--kind", "var1", "--sigma", "nan", "--steps", "300000", "--matrix", "[[0.5]]"],
     "error: sigma must be finite, got nan\n"),
    (["--kind", "ou_euler", "--dt-sim", "nan", "--steps", "300", "--matrix", "[[-1.0, 0.0], [0.6, -1.0]]"],
     "error: dt_sim must be finite, got nan\n"),
], ids=["var1-sigma", "ou-dt-sim"])
def test_simulate_non_finite_parameter_exit_2_before_any_draw(runner, tmp_path, monkeypatch, args, message):
    drawn = []
    monkeypatch.setattr(synth, "standard_normals", lambda *a: drawn.append(a))
    out = tmp_path / "sim"
    result = runner.invoke(main, ["--out", str(out), "simulate", *args])
    assert result.exit_code == 2, result.output
    assert result.output.endswith(message)
    assert not drawn and not out.exists()


@pytest.mark.parametrize("args, message", [
    (["--kind", "coupled_binary", "--assets", "X,X"], "error: X: two results would be written to X.csv\n"),
    (["--kind", "coupled_binary", "--assets", "X,"], "error: '': an asset id or result name cannot be empty\n"),
    (["--kind", "var1", "--assets", "A", "--matrix", "[[0.5, 0.0], [0.1, 0.4]]"],
     "error: assets: var1 emits exactly 2 series\n"),
    (["--kind", "ou_euler", "--assets", "A,B,C", "--matrix", "[[-0.5, 0.0], [0.1, -0.4]]"],
     "error: assets: ou_euler emits exactly 2 series\n"),
    (["--kind", "var1", "--matrix", "[[NaN]]"], "error: matrix: entries must be finite, got nan\n"),
    (["--kind", "ou_euler", "--matrix", "[[-1.0, 0.0], [0.0, -Infinity]]"],
     "error: matrix: entries must be finite, got -inf\n"),
    (["--kind", "var1", "--matrix", "[[1e400]]"], "error: matrix: entries must be finite, got inf\n"),
    (["--kind", "var1", "--matrix", "[[0.5, 0.1]]"], "error: matrix: must be square, got shape (1, 2)\n"),
    (["--kind", "ou_euler", "--matrix", "[[0.5, 0.1]]"], "error: matrix: must be square, got shape (1, 2)\n"),
    (["--kind", "coupled_binary", "--assets", "A,B,C"], "error: assets: coupled_binary emits exactly 2 series\n"),
    (["--kind", "var1"], "error: matrix: --matrix is required for var1/ou_euler\n"),
    (["--kind", "var1", "--matrix", "[[0.5"], "error: matrix: Expecting ',' delimiter: line 1 column 6 (char 5)\n"),
], ids=["duplicate-assets", "empty-asset", "var1-assets", "ou-assets", "nan", "minus-infinity", "overflow",
        "var1-not-square", "ou-not-square", "binary-assets", "no-matrix", "matrix-not-json"])
def test_simulate_bad_names_or_matrix_exit_2_before_out(runner, tmp_path, args, message):
    out = tmp_path / "sim"
    result = runner.invoke(main, ["--out", str(out), "simulate", "--steps", "10", *args])
    assert result.exit_code == 2, result.output
    assert result.output.endswith(message)
    assert not out.exists()


def test_fetch_duplicate_assets_exit_2_before_out(runner, tmp_path, served):
    out = tmp_path / "fetched"
    result = runner.invoke(main, ["--out", str(out), "fetch", "--endpoint", served, "--assets", "GLD,GLD",
                                  "--start", "2020-01-01", "--end", "2020-01-31"])
    assert result.exit_code == 2, result.output
    assert result.output.endswith("error: GLD: two results would be written to GLD.csv\n")
    assert not out.exists()


@pytest.mark.parametrize("assets, message", [
    ("GOOD,../bad", "error: ../bad: an asset id or result name cannot hold '/'\n"),
    ("A,,B", "error: '': an asset id or result name cannot be empty\n"),
], ids=["path-separator", "empty"])
def test_fetch_refuses_every_bad_asset_id_before_the_first_request(runner, tmp_path, monkeypatch, assets, message):
    def urlopen(*args, **kwargs):
        pytest.fail("urlopen called before every asset id was checked")

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    out = tmp_path / "fetched"
    result = runner.invoke(main, ["--out", str(out), "fetch", "--endpoint", "http://localhost/q/{asset}/{start}/{end}",
                                  "--assets", assets, "--start", "2020-01-01", "--end", "2020-01-31"])
    assert result.exit_code == 2, result.output
    assert result.output.endswith(message)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_overflow_writes_no_series(runner, tmp_path):
    # S4's price overflows to inf; S1-S3 are fine but nothing may be written,
    # and the overflow raises no numpy warning on the way to the price check
    chain = "[[-1,0,0,0],[0.6,-1,0,0],[0,0.6,-1,0],[0,0,0.6,-1]]"
    out = tmp_path / "sim"
    result = runner.invoke(
        main,
        ["--out", str(out), "--seed", "1", "simulate", "--kind", "ou_euler",
         "--steps", "100000", "--sigma", "0.1", "--matrix", chain],
    )
    assert result.exit_code == 2, result.output
    assert "error: S4 on 2169-09-27: non-finite price inf" in result.output
    assert not out.exists()


def test_missing_input_exit_2_names_path(runner, tmp_path):
    missing = tmp_path / "NOPE.csv"
    result = runner.invoke(main, ["--out", str(tmp_path / "o"), "stats", str(missing)])
    assert result.exit_code == 2, result.output
    assert str(missing) in result.output


def test_out_is_a_file_exit_2_names_path(runner, tmp_path):
    paths = write_panel(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("")
    result = runner.invoke(
        main, ["--out", str(taken), "analyze", "--measures", "correlation", *paths]
    )
    assert result.exit_code == 2, result.output
    assert str(taken) in result.output


def test_config_file_with_flag_override(runner, tmp_path):
    paths = write_panel(tmp_path)
    cfg = {
        "config_version": 1,
        "inputs": paths,
        "bins": 4,
        "measures": ["correlation"],
        "out_dir": str(tmp_path / "from_file"),
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "override"
    result = runner.invoke(main, ["--config", str(cfg_path), "--out", str(out), "analyze"])
    assert result.exit_code == 0, result.output
    assert (out / "correlation.json").exists()
    saved = json.loads((out / "config.json").read_text())
    assert saved["bins"] == 4
    assert saved["out_dir"] == str(out)


def test_config_unknown_field_exit_2(runner, tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"bogus_field": 1}))
    result = runner.invoke(main, ["--config", str(cfg_path), "stats"])
    assert result.exit_code == 2
    assert "bogus_field" in result.output


@pytest.mark.parametrize("args, message", [
    (["--config", "{tmp}/run.json", "analyze"],
     "error: config {tmp}/run.json: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n"),
    (["--config", "{tmp}/none.json", "analyze"],
     "error: config {tmp}/none.json: [Errno 2] No such file or directory: '{tmp}/none.json'\n"),
    (["fetch", "--endpoint", "http://127.0.0.1:1/{asset}", "--assets", "GLD",
      "--start", "2020-13-01", "--end", "2020-12-31"], "error: date: month must be in 1..12\n"),
    (["fetch", "--endpoint", "http://127.0.0.1:1/{asset}", "--assets", "GLD",
      "--start", "20200101", "--end", "2020-12-31"], "error: date: '20200101' is not a YYYY-MM-DD date\n"),
    (["fetch", "--endpoint", "http://127.0.0.1:1/{asset}", "--assets", "GLD",
      "--start", "2020-01-01", "--end", "2020-W53-5"], "error: date: '2020-W53-5' is not a YYYY-MM-DD date\n"),
    # refused before any request: the closed port would exit 3 with a refused connection
    (["fetch", "--endpoint", "http://127.0.0.1:1/{asset}", "--assets", "GLD",
      "--start", "2020-02-01", "--end", "2020-01-01"], "error: date: start 2020-02-01 is after end 2020-01-01\n"),
    (["--config", "{tmp}/list.json", "analyze"], "error: config {tmp}/list.json: expected a JSON object, got list\n"),
    (["--config", "{tmp}/null.json", "analyze"], "error: config {tmp}/null.json: expected a JSON object, got NoneType\n"),
    (["--config", "{tmp}/text.json", "analyze"], "error: config {tmp}/text.json: expected a JSON object, got str\n"),
    # an empty output path is refused before the input, which does not exist, is read
    (["--out", "", "analyze", "--measures", "corr", "{tmp}/none.csv"],
     "error: out_dir: expected a directory path, got ''\n"),
    (["--config", "{tmp}/no-out.json", "analyze", "--measures", "corr", "{tmp}/none.csv"],
     "error: out_dir: expected a directory path, got ''\n"),
], ids=["config-not-json", "config-missing", "fetch-bad-date", "fetch-basic-date", "fetch-week-date",
        "fetch-reversed-dates", "config-list", "config-null", "config-string", "out-flag-empty", "out-dir-empty"])
def test_unreadable_config_or_bad_date_exit_2_before_out(runner, tmp_path, args, message):
    (tmp_path / "run.json").write_text("{not json")
    (tmp_path / "no-out.json").write_text('{"out_dir": ""}')
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "null.json").write_text("null")
    (tmp_path / "text.json").write_text('"text"')
    out = tmp_path / "out"
    result = runner.invoke(main, ["--out", str(out), *(a.replace("{tmp}", str(tmp_path)) for a in args)])
    assert result.exit_code == 2, result.output
    assert result.output.endswith(message.replace("{tmp}", str(tmp_path)))
    assert not out.exists()


def test_config_unknown_format_exit_2_before_out(runner, tmp_path):
    paths = write_panel(tmp_path)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"formats": ["json", "parquet"]}))
    out = tmp_path / "out"
    result = runner.invoke(
        main, ["--config", str(cfg_path), "--out", str(out), "analyze", "--measures", "te", *paths],
    )
    assert result.exit_code == 2
    assert "parquet" in result.output
    assert not out.exists()


class _Handler(BaseHTTPRequestHandler):
    body = b"Date,Adj Close\n2020-01-01,100\n2020-01-02,101\n2020-01-03,102\n"

    def do_GET(self):
        self.send_response(200)
        self.send_header("Content-Length", str(len(self.body)))
        self.end_headers()
        self.wfile.write(self.body)

    def log_message(self, *args):
        pass


def test_fetch_writes_series(runner, tmp_path):
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        port = server.server_address[1]
        out = tmp_path / "fetched"
        result = runner.invoke(
            main,
            ["--out", str(out), "fetch",
             "--endpoint", f"http://127.0.0.1:{port}/{{asset}}/{{start}}/{{end}}",
             "--assets", "GLD,UUP", "--start", "2020-01-01", "--end", "2020-01-31",
             "--cache-dir", str(tmp_path / "cache")],
        )
        assert result.exit_code == 0, result.output
        assert (out / "GLD.csv").exists() and (out / "UUP.csv").exists()
        assert (tmp_path / "cache" / "GLD_2020-01-01_2020-01-31.csv").exists()
    finally:
        server.shutdown()
        server.server_close()


def _run_cli(args, cwd, env_extra=None):
    env = dict(os.environ, SOURCE_DATE_EPOCH="946684800", PYTHONPATH=child_pythonpath())
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "infodrift", *args],
        cwd=cwd, env=env, capture_output=True, text=True,
    )


def test_cli_import_loads_no_network_module(tmp_path):
    # only fetch needs urllib, which imports http.client, ssl and email
    code = (
        "import sys, infodrift.cli; "
        "print([m for m in ('urllib.request', 'http.client', 'ssl', 'email') if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=child_pythonpath())
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_rerun_from_embedded_config_reproduces_outputs(tmp_path):
    # a run's config.json alone must regenerate the exact same bytes
    proc = _run_cli(
        ["--out", "sim", "--seed", "2", "simulate", "--kind", "var1", "--steps", "300",
         "--matrix", "[[0.5, 0.0], [0.2, 0.4]]", "--sigma", "0.01"],
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    proc = _run_cli(
        ["--out", "out", "--seed", "4", "--bins", "4", "--surrogates", "3",
         "analyze", "--measures", "te,km", "sim/S1.csv", "sim/S2.csv"],
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "out"
    snapshot = {f.name: f.read_bytes() for f in out.iterdir()}
    proc = _run_cli(["--config", "out/config.json", "analyze"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    for name, blob in snapshot.items():
        assert (out / name).read_bytes() == blob, f"{name} differs after config replay"


def test_repeated_runs_bit_identical(tmp_path):
    # identical RunConfig means identical strings: each run gets its own
    # working directory with the same relative layout
    blobs = []
    for run in ("run1", "run2"):
        cwd = tmp_path / run
        cwd.mkdir()
        proc = _run_cli(
            ["--out", "sim", "--seed", "9", "simulate", "--kind", "ou_euler", "--steps", "300",
             "--matrix", "[[-0.5, 0.2], [0.0, -0.3]]", "--sigma", "0.1"],
            cwd=cwd,
        )
        assert proc.returncode == 0, proc.stderr
        proc = _run_cli(
            ["--out", "out", "--seed", "3", "--bins", "4", "--surrogates", "5",
             "analyze", "--measures", "corr,mi,te,km", "sim/S1.csv", "sim/S2.csv"],
            cwd=cwd,
        )
        assert proc.returncode == 0, proc.stderr
        files = sorted((cwd / "out").iterdir()) + sorted((cwd / "sim").iterdir())
        blobs.append({f.name: f.read_bytes() for f in files})
    assert blobs[0].keys() == blobs[1].keys()
    for name in blobs[0]:
        assert blobs[0][name] == blobs[1][name], f"{name} differs between runs"


def _files(out):
    return sorted(p.name for p in out.rglob("*")) if out.exists() else []


def _collinear_panel(tmp_path):
    # two columns with the same returns: the drift moment matrix is singular
    (path,) = write_panel(tmp_path, ids=("AAA",))
    twin = tmp_path / "TWIN.csv"
    twin.write_text((tmp_path / "AAA.csv").read_text())
    return [path, str(twin)]


def _flat_panel(tmp_path, rows=slice(None)):
    # AAA and BBB; BBB's price holds still over ``rows``, so its returns there are 0
    paths = write_panel(tmp_path)
    bbb = tmp_path / "BBB.csv"
    lines = bbb.read_text().splitlines()
    header, data = lines[0], lines[1:]
    flat = data[rows.start or 0].split(",")[1]
    for i in range(len(data))[rows]:
        data[i] = f"{data[i].split(',')[0]},{flat}"
    bbb.write_text("\n".join([header, *data]) + "\n")
    return paths


PANELS = {
    "random": write_panel,
    "collinear": _collinear_panel,
    # 59 returns in segmented:5 windows [0:12) [12:24) [24:36) [36:48) [48:59)
    "flat-window": lambda tmp_path: _flat_panel(tmp_path, slice(24, 37)),
    "flat": _flat_panel,
}
CORR_TE = ["analyze", "--measures", "corr,te"]


@pytest.mark.parametrize("args, code, message, panel", [
    (["--bins", "1", *CORR_TE], 2, "bins", "random"),
    (["--dt", "0", *CORR_TE], 2, "dt", "random"),
    (["--config", "{config}", *CORR_TE], 2, "strategy", "random"),
    (["--threshold", "-1", *CORR_TE], 2, "threshold", "random"),
    (["--windows", "sliding:0", *CORR_TE], 2, "error: windows: bad window spec 'sliding:0'", "random"),
    (["--format", "", *CORR_TE], 2, "error: format: unknown format ''", "random"),
    (["analyze", "--measures", "corr,km"], 3, "km_drift", "collinear"),
    (["--windows", "segmented:2", "evolve", "--measures", "corr,km"], 3, "km_drift: window 0", "collinear"),
    (["--windows", "segmented:10", "evolve", "--measures", "te"], 2,
     "error: transfer_entropy: window 0 [0:6): need at least 8 samples for quantile binning, got 6", "random"),
    (["--dt", "60", "analyze", "--measures", "km"], 2,
     "error: km_drift: lag 60 leaves fewer than 2 increments in 59 samples", "random"),
    (["--windows", "segmented:5", "--dt", "11", "evolve", "--measures", "te"], 2,
     "error: transfer_entropy: window 0 [0:12): need at least dt + 2 = 13 samples, got 12\n", "random"),
    (["--dt", "58", "analyze", "--measures", "te"], 2,
     "error: transfer_entropy: need at least dt + 2 = 60 samples, got 59\n", "random"),
    (["--dt", "400", "analyze", "--measures", "te"], 2,
     "error: transfer_entropy: no samples left after lag alignment (length 59, max lag 400)\n", "random"),
    (["--windows", "segmented:5", "--dt", "30", "evolve", "--measures", "te"], 2,
     "error: transfer_entropy: window 0 [0:12): no samples left after lag alignment (length 12, max lag 30)\n",
     "random"),
    (["--windows", "segmented:5", "evolve", "--measures", "te"], 3,
     "error: transfer_entropy: window 2 [24:36): BBB: all values equal\n", "flat-window"),
    (["--windows", "segmented:5", "evolve", "--measures", "corr"], 3,
     "error: correlation: window 2 [24:36): BBB: zero variance\n", "flat-window"),
    (["analyze", "--measures", "mi,te"], 3, "error: mutual_information: BBB: all values equal\n", "flat"),
    (["analyze", "--measures", ","], 2, "error: measures: at least one measure required\n", "random"),
], ids=["bins", "dt", "strategy", "threshold", "windows", "format-empty", "analyze-km", "evolve-km",
        "evolve-short-window", "analyze-short-lag", "evolve-short-te-lag", "analyze-short-te-lag",
        "analyze-te-lag-past-sample", "evolve-te-lag-past-window",
        "evolve-flat-window", "evolve-corr-flat-window",
        "analyze-flat", "no-measures"])
def test_failed_run_writes_nothing(runner, tmp_path, args, code, message, panel):
    paths = PANELS[panel](tmp_path)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"strategy": "bogus"}))
    out = tmp_path / "out"
    args = [a.format(config=cfg_path) for a in args]
    result = runner.invoke(main, ["--out", str(out), *args, *paths])
    assert result.exit_code == code, result.output
    assert message in result.output
    assert not out.exists()
    if panel == "flat":  # a one-window evolve names the asset that analyze names, for MI and for TE
        for name in ("mutual_information", "transfer_entropy"):
            for command, window in ((["analyze"], ""), (["--windows", "segmented:1", "evolve"], "window 0 [0:59): ")):
                result = runner.invoke(main, ["--out", str(out), *command, "--measures", name, *paths])
                assert result.exit_code == 3, result.output
                assert result.output.endswith(f"error: {name}: {window}BBB: all values equal\n")
                assert not out.exists()


def test_estimator_allocation_failure_exit_3_writes_nothing(runner, tmp_path, monkeypatch):
    # as --bins 2000 on 2,500 rows, whose 8e9-cell TE count numpy cannot allocate
    def no_memory(codes, size):
        raise MemoryError(f"cannot allocate {size} counts")

    monkeypatch.setattr(infoflow, "joint_counts", no_memory)
    paths = write_panel(tmp_path, ids=("AAA", "BBB", "CCC", "DDD"))
    out = tmp_path / "out"
    result = runner.invoke(main, ["--out", str(out), "--bins", "4", "analyze", "--measures", "te", *paths])
    assert result.exit_code == 3, result.output
    assert "error: transfer_entropy: bins 4: a count of " in result.output
    assert "histogram cells does not fit in memory" in result.output
    assert not out.exists()


THRESHOLD = "error: threshold: expected a finite number >= 0"


@pytest.mark.parametrize("args, config, message", [
    (["--threshold", "-1"], None, THRESHOLD),
    (["--threshold", "nan"], None, THRESHOLD),
    (["--threshold", "inf"], None, THRESHOLD),
    (["--config", "{config}"], '{"threshold": -0.5}', THRESHOLD),
    (["--config", "{config}"], '{"threshold": NaN}', THRESHOLD),
    (["--config", "{config}", "--threshold", "0.1"], '{"threshold": -Infinity}', THRESHOLD),
    (["--dt", "0"], None, "error: dt: expected an integer >= 1, got 0\n"),
    (["--config", "{config}"], '{"bins": 1}', "error: bins: expected an integer >= 2, got 1\n"),
    (["--seed", "-1", "--surrogates", "3"], None, "error: seed: expected an integer >= 0, got -1\n"),
], ids=["flag-negative", "flag-nan", "flag-inf", "config-negative", "config-nan", "config-under-flag",
        "dt-zero", "config-bins-one", "seed-negative"])
def test_threshold_not_finite_or_negative_exit_2_before_estimators(runner, tmp_path, monkeypatch, args, config,
                                                                   message):
    # a threshold, like bins, dt and seed, is checked where it is read, before
    # any estimator runs or --out exists
    paths = write_panel(tmp_path)
    cfg_path = tmp_path / "run.json"
    if config is not None:
        cfg_path.write_text(config)
    calls = []
    monkeypatch.setattr("infodrift.cli.evaluate", lambda *a, **k: calls.append(a))
    out = tmp_path / "out"
    args = [a.format(config=cfg_path) for a in args]
    result = runner.invoke(main, [*args, "--out", str(out), "analyze", "--measures", "corr,te", *paths])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("out_parts, existed", [
    (("out",), False), (("new", "nested", "out"), False), (("out",), True),
], ids=["new", "new-parents", "existing"])
def test_failed_write_removes_the_out_this_run_made(runner, tmp_path, monkeypatch, out_parts, existed):
    def disk_full(obj, fh, config, threshold):
        fh.write("<svg")
        raise OSError("disk full")

    monkeypatch.setitem(netout._WRITERS, (InteractionMatrix, "svg_heatmap"), disk_full)
    paths = write_panel(tmp_path)
    out = tmp_path.joinpath(*out_parts)
    if existed:
        out.mkdir()
        (out / "keep.txt").write_text("mine")
    result = runner.invoke(main, ["--out", str(out), "analyze", "--measures", "corr,te", *paths])
    assert result.exit_code == 2, result.output
    assert "disk full" in result.output
    assert _files(out) == (["keep.txt"] if existed else [])
    assert (tmp_path / out_parts[0]).exists() == existed


def _snapshot(out):
    return {p.name: p.read_bytes() for p in out.iterdir()}


@pytest.mark.parametrize("epoch, message", [
    ("abc", "error: SOURCE_DATE_EPOCH: invalid literal for int() with base 10: 'abc'\n"),
    ("99999999999999999999", "error: SOURCE_DATE_EPOCH: "),
], ids=["not-an-integer", "out-of-range"])
def test_bad_source_date_epoch_exit_2_and_keeps_the_earlier_run(runner, tmp_path, monkeypatch, epoch, message):
    # the stamp fails only when the first stamped file is written, after
    # config.json: a re-run into the same --out changes none of its files
    paths = write_panel(tmp_path)
    out = tmp_path / "out"
    args = ["--out", str(out), "analyze", "--measures", "corr,te", *paths]
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "946684800")
    assert runner.invoke(main, args).exit_code == 0
    earlier = _snapshot(out)
    assert len(earlier) == 9
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert _snapshot(out) == earlier
    result = runner.invoke(main, ["--out", str(tmp_path / "new"), *args[2:]])
    assert result.exit_code == 2, result.output
    assert not (tmp_path / "new").exists()
    assert not list(tmp_path.rglob(".infodrift-*"))


def test_directory_at_a_planned_name_exit_2_and_moves_no_file(runner, tmp_path):
    paths = write_panel(tmp_path)
    out = tmp_path / "out"
    (out / "transfer_entropy.json").mkdir(parents=True)
    (out / "config.json").write_text("older")
    result = runner.invoke(main, ["--out", str(out), "analyze", "--measures", "corr,te", *paths])
    assert result.exit_code == 2, result.output
    assert f"error: {out / 'transfer_entropy.json'}: is a directory\n" in result.output
    assert _files(out) == ["config.json", "transfer_entropy.json"]
    assert (out / "config.json").read_text() == "older"


@pytest.mark.parametrize("args, command", [
    (["--surrogates", "-3"], ["analyze", "--measures", "te"]),
    (["--config", "{config}"], ["analyze", "--measures", "te"]),
    (["--surrogates", "-3"], ["evolve", "--measures", "corr"]),
    (["--surrogates", "-3"], ["stats"]),
], ids=["flag", "config", "evolve-flag", "stats-flag"])
def test_negative_surrogates_exit_2_before_out(runner, tmp_path, args, command):
    paths = write_panel(tmp_path)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"surrogates": -3}))
    out = tmp_path / "out"
    args = [a.format(config=cfg_path) for a in args]
    result = runner.invoke(main, [*args, "--out", str(out), *command, *paths])
    assert result.exit_code == 2, result.output
    assert "surrogates must be >= 0" in result.output
    assert not out.exists()


@pytest.mark.parametrize("version", [99, 0, True, 1.0, "1", None])
def test_config_version_other_than_1_exit_2_before_out(runner, tmp_path, version):
    paths = write_panel(tmp_path)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"config_version": version}))
    out = tmp_path / "out"
    result = runner.invoke(main, ["--config", str(cfg_path), "--out", str(out), "analyze", *paths])
    assert result.exit_code == 2, result.output
    assert result.output.endswith(f"error: config_version: expected 1, got {version!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("bins", "8"), ("seed", True), ("threshold", "0.5"), ("measures", "corr"), ("inputs", ["a.csv", 3]),
])
def test_config_field_of_wrong_type_exit_2_before_out(runner, tmp_path, field, value):
    paths = write_panel(tmp_path)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({field: value}))
    out = tmp_path / "out"
    result = runner.invoke(
        main, ["--config", str(cfg_path), "--out", str(out), "analyze", "--measures", "corr,te", *paths],
    )
    assert result.exit_code == 2, result.output
    assert f"{field}: expected" in result.output
    assert not out.exists()


@pytest.mark.parametrize("field", ["windows", "strategy", "return_kind"])
def test_config_field_of_bad_value_exit_2_before_out(runner, tmp_path, field):
    # each value is checked when the config is loaded, as its flag is, even
    # where the command never uses it
    paths = write_panel(tmp_path)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({field: "bogus"}))
    out = tmp_path / "out"
    result = runner.invoke(
        main, ["--config", str(cfg_path), "--out", str(out), "analyze", "--measures", "corr", *paths],
    )
    assert result.exit_code == 2, result.output
    assert f"error: {field}: " in result.output
    assert not out.exists()


def test_simulate_writes_the_run_price_column(runner, tmp_path):
    cfg_path = tmp_path / "run.json"
    # threshold 0 is an int in a float field, which a config may hold
    cfg_path.write_text(json.dumps({"price_column": "Close", "threshold": 0}))
    sim, out = tmp_path / "sim", tmp_path / "out"
    result = runner.invoke(
        main, ["--config", str(cfg_path), "--out", str(sim), "simulate", "--kind", "coupled_binary",
               "--steps", "80"],
    )
    assert result.exit_code == 0, result.output
    assert [l for l in (sim / "X.csv").read_text().splitlines() if not l.startswith("#")][0] == "Date,Close"
    result = runner.invoke(
        main, ["--config", str(cfg_path), "--out", str(out), "analyze", str(sim / "X.csv"), str(sim / "Y.csv")],
    )
    assert result.exit_code == 0, result.output
    assert (out / "correlation.json").exists()


@pytest.fixture
def served():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield f"http://127.0.0.1:{server.server_address[1]}/{{asset}}/{{start}}/{{end}}"
    server.shutdown()
    server.server_close()


@pytest.mark.parametrize("command, reads_panel", [
    (["stats"], True),
    (["--surrogates", "2", "analyze", "--measures", "corr,te,km"], True),
    (["--windows", "segmented:2", "evolve", "--measures", "corr,km"], True),
    (["simulate", "--kind", "coupled_binary", "--steps", "40"], False),
    (["fetch", "--assets", "GLD,UUP", "--start", "2020-01-01", "--end", "2020-01-31"], False),
], ids=["stats", "analyze", "evolve", "simulate", "fetch"])
def test_each_command_writes_through_one_emit_all(runner, tmp_path, monkeypatch, served, command, reads_panel):
    calls = []
    emit_all = netout.emit_all

    def counted(*args, **kwargs):
        calls.append(emit_all(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(netout, "emit_all", counted)
    out = tmp_path / "out"
    inputs = write_panel(tmp_path, n_rows=80) if reads_panel else []
    if command[0] == "fetch":
        command = [*command, "--endpoint", served]
    result = runner.invoke(main, ["--out", str(out), *command, *inputs])
    assert result.exit_code == 0, result.output
    assert len(calls) == 1
    assert sorted(os.path.basename(p) for p in calls[0]) == _files(out)
    assert "config.json" in _files(out)
