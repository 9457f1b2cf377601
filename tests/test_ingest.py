import codecs
import csv
import datetime as dt
import json
import math
import re
import threading
import tracemalloc
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from infodrift import align, fetch_remote, kernels, load_csv, write_csv
from infodrift.cli import main
from infodrift.ingest import AlignedPanel, PriceSeries, _parse_csv, load_csvs
from infodrift.kmdrift import drift_estimate
from infodrift.stats import ReturnsMatrix, compute_returns, correlation_matrix
from infodrift.errors import (
    DataValidationError,
    DuplicateAssetId,
    DuplicateDate,
    EmptyFile,
    HttpStatusError,
    InsufficientOverlap,
    MalformedRow,
    NetworkError,
    NonPositivePrice,
    PayloadParseError,
)

from conftest import assert_no_child_process, iso_days, make_panel, make_series

SIMPLE = {"date": "date", "price": "close"}


def test_load_csv_three_rows(csv_dir):
    path = csv_dir("a.csv", "date,close\n2020-01-01,100\n2020-01-02,101\n2020-01-03,102\n")
    series = load_csv(path, schema=SIMPLE)
    assert len(series) == 3
    assert series.asset_id == "a"
    assert list(series.prices) == [100.0, 101.0, 102.0]


def test_load_csv_default_schema(csv_dir):
    path = csv_dir("b.csv", "Date,Adj Close\n2020-01-01,10\n2020-01-02,11\n")
    series = load_csv(path)
    assert len(series) == 2


def test_load_csv_negative_price_line_number(csv_dir):
    path = csv_dir("a.csv", "date,close\n2020-01-01,-1\n2020-01-02,101\n")
    with pytest.raises(NonPositivePrice) as err:
        load_csv(path, schema=SIMPLE)
    assert err.value.line == 2


def test_price_series_rejects_inf_price_and_names_asset():
    with pytest.raises(NonPositivePrice) as err:
        make_series("GLD", "2020-01-01", [100.0, float("inf"), 101.0])
    assert "GLD on 2020-01-02" in str(err.value)


@pytest.mark.parametrize("bad", [float("inf"), 0.0])
def test_aligned_panel_rejects_bad_price_and_names_asset(bad):
    with pytest.raises(NonPositivePrice) as err:
        make_panel([[100.0, 50.0], [101.0, bad], [102.0, 52.0]], asset_ids=("GLD", "UUP"))
    assert "UUP on 2020-01-02" in str(err.value)


def test_load_csv_out_of_order_resorted(csv_dir):
    path = csv_dir("a.csv", "date,close\n2020-01-03,102\n2020-01-01,100\n2020-01-02,101\n")
    series = load_csv(path, schema=SIMPLE)
    assert iso_days(series.days) == ["2020-01-01", "2020-01-02", "2020-01-03"]
    assert list(series.prices) == [100.0, 101.0, 102.0]


def test_load_csv_duplicate_date(csv_dir):
    path = csv_dir("a.csv", "date,close\n2020-01-01,100\n2020-01-01,101\n2020-01-02,99\n")
    with pytest.raises(DuplicateDate):
        load_csv(path, schema=SIMPLE)


def test_load_csv_empty_and_header_only(csv_dir):
    with pytest.raises(EmptyFile):
        load_csv(csv_dir("empty.csv", ""), schema=SIMPLE)
    with pytest.raises(EmptyFile):
        load_csv(csv_dir("hdr.csv", "date,close\n"), schema=SIMPLE)


def test_load_csv_malformed_rows(csv_dir):
    with pytest.raises(MalformedRow) as err:
        load_csv(csv_dir("bad.csv", "date,close\n2020-01-01,100\nnot-a-date,5\n"), schema=SIMPLE)
    assert err.value.line == 3
    with pytest.raises(MalformedRow):
        load_csv(csv_dir("bad2.csv", "date,close\n2020-01-01,abc\n"), schema=SIMPLE)
    with pytest.raises(MalformedRow):
        load_csv(csv_dir("bad3.csv", "when,close\n2020-01-01,100\n"), schema=SIMPLE)


def test_load_csv_skips_comment_lines(csv_dir):
    path = csv_dir("c.csv", "# config: {}\ndate,close\n2020-01-01,100\n2020-01-02,101\n")
    assert len(load_csv(path, schema=SIMPLE)) == 2


def test_write_load_round_trip(tmp_path):
    series = make_series("x", "2021-03-01", [100.0, 100.5, 99.25, 101.125])
    path = tmp_path / "x.csv"
    write_csv(series, path)
    again = load_csv(path)
    assert np.array_equal(again.days, series.days)
    assert np.array_equal(again.prices, series.prices)


def test_align_insufficient_overlap():
    a = make_series("a", "2020-01-01", [1, 2, 3])
    b = make_series("b", "2020-01-02", [4, 5, 6])  # shares only 2 days with a
    with pytest.raises(InsufficientOverlap):
        align([a, b])


def test_align_identical_dates():
    a = make_series("a", "2020-01-01", [1, 2, 3, 4, 5])
    b = make_series("b", "2020-01-01", [5, 4, 3, 2, 1])
    panel = align([a, b])
    assert panel.prices.shape == (5, 2)
    assert panel.asset_ids == ("a", "b")


def test_align_three_series_intersection_and_column_order():
    a = make_series("a", "2020-01-01", [1, 2, 3, 4, 5, 6])
    b = make_series("b", "2020-01-02", [10, 20, 30, 40, 50])
    c = make_series("c", "2020-01-03", [7, 8, 9, 11])
    panel = align([c, a, b])
    assert panel.asset_ids == ("c", "a", "b")
    assert len(panel.days) == 4
    assert iso_days(panel.days)[0] == "2020-01-03"
    # column values follow each series on the common dates
    assert list(panel.prices[:, 0]) == [7.0, 8.0, 9.0, 11.0]
    assert list(panel.prices[:, 1]) == [3.0, 4.0, 5.0, 6.0]


def test_align_duplicate_asset_id():
    a = make_series("a", "2020-01-01", [1, 2, 3, 4])
    b = make_series("a", "2020-01-01", [1, 2, 3, 4])
    with pytest.raises(DuplicateAssetId):
        align([a, b])


@st.composite
def series_family(draw):
    n_series = draw(st.integers(2, 4))
    out = []
    for k in range(n_series):
        offsets = draw(st.sets(st.integers(0, 15), min_size=4, max_size=12))
        base = dt.date(2020, 1, 1).toordinal()
        days = np.array([base + o for o in sorted(offsets)])
        prices = np.arange(1.0, len(days) + 1.0) + k
        out.append((f"s{k}", days, prices))
    return out


@given(series_family())
@settings(max_examples=40, deadline=None)
def test_align_dates_are_set_intersection(family):
    series = [PriceSeries(asset_id=i, days=d, prices=p) for i, d, p in family]
    expected = set(series[0].days.tolist())
    for s in series[1:]:
        expected &= set(s.days.tolist())
    if len(expected) < 3:
        with pytest.raises(InsufficientOverlap):
            align(series)
        return
    panel = align(series)
    assert set(panel.days.tolist()) == expected
    assert panel.days.tolist() == sorted(expected)


@given(st.permutations(range(5)))
@settings(max_examples=20, deadline=None)
def test_align_row_order_invariant(perm):
    # shuffling observation rows within the CSV never changes the panel
    base = dt.date(2020, 1, 1).toordinal()
    days = [base + i for i in range(5)]
    prices = [10.0, 11.0, 12.0, 13.0, 14.0]
    shuffled = sorted((days[i], prices[i]) for i in perm)
    s1 = PriceSeries(asset_id="a", days=[d for d, _ in shuffled],
                     prices=np.array([p for _, p in shuffled]))
    s2 = make_series("b", "2020-01-01", [5, 6, 7, 8, 9])
    panel = align([s1, s2])
    assert list(panel.prices[:, 0]) == prices


class _Handler(BaseHTTPRequestHandler):
    responses = {}

    def do_GET(self):
        status, body = self.responses.get(self.path, (404, b"missing"))
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


CSV_BODY = b"date,close\n2020-01-01,100\n2020-01-02,101\n2020-01-03,102\n"


def test_fetch_remote_csv_matches_load_csv(http_server, csv_dir):
    _Handler.responses["/q/AAA/2020-01-01/2020-01-31"] = (200, CSV_BODY)
    series = fetch_remote(
        http_server + "/q/{asset}/{start}/{end}",
        "AAA",
        (dt.date(2020, 1, 1), dt.date(2020, 1, 31)),
        schema=SIMPLE,
    )
    local = load_csv(csv_dir("ref.csv", CSV_BODY.decode()), schema=SIMPLE, asset_id="AAA")
    assert np.array_equal(series.days, local.days)
    assert np.array_equal(series.prices, local.prices)


def test_fetch_remote_http_500(http_server):
    _Handler.responses["/q/BAD/2020-01-01/2020-01-31"] = (500, b"boom")
    with pytest.raises(HttpStatusError) as err:
        fetch_remote(
            http_server + "/q/{asset}/{start}/{end}",
            "BAD",
            (dt.date(2020, 1, 1), dt.date(2020, 1, 31)),
        )
    assert err.value.status == 500


def test_fetch_remote_json_payload(http_server):
    doc = {"timestamps": ["2020-01-01", "2020-01-02"], "closes": [10.0, 11.0]}
    _Handler.responses["/q/J/2020-01-01/2020-01-31"] = (200, json.dumps(doc).encode())
    series = fetch_remote(
        http_server + "/q/{asset}/{start}/{end}",
        "J",
        (dt.date(2020, 1, 1), dt.date(2020, 1, 31)),
    )
    assert list(series.prices) == [10.0, 11.0]


def test_fetch_remote_json_payload_after_byte_order_mark(http_server):
    doc = {"timestamps": ["2020-01-01", "2020-01-02"], "closes": [10.0, 11.0]}
    _Handler.responses["/q/K/2020-01-01/2020-01-31"] = (200, codecs.BOM_UTF8 + json.dumps(doc).encode())
    series = fetch_remote(
        http_server + "/q/{asset}/{start}/{end}",
        "K",
        (dt.date(2020, 1, 1), dt.date(2020, 1, 31)),
    )
    assert list(series.prices) == [10.0, 11.0]


def test_fetch_remote_json_null_close_names_index(http_server):
    doc = {"timestamps": ["2020-01-01", "2020-01-02"], "closes": [10.0, None]}
    _Handler.responses["/q/N/2020-01-01/2020-01-31"] = (200, json.dumps(doc).encode())
    with pytest.raises(PayloadParseError) as err:
        fetch_remote(
            http_server + "/q/{asset}/{start}/{end}",
            "N",
            (dt.date(2020, 1, 1), dt.date(2020, 1, 31)),
        )
    assert "index 1" in str(err.value)


def test_fetch_remote_epoch_timestamps(http_server):
    stamps = [1577836800, 1577923200]  # 2020-01-01, 2020-01-02 UTC
    doc = {"timestamps": stamps, "closes": [1.5, 2.5]}
    _Handler.responses["/q/E/2020-01-01/2020-01-31"] = (200, json.dumps(doc).encode())
    series = fetch_remote(
        http_server + "/q/{asset}/{start}/{end}",
        "E",
        (dt.date(2020, 1, 1), dt.date(2020, 1, 31)),
    )
    assert iso_days(series.days)[0] == "2020-01-01"


def test_fetch_remote_cache_round_trip(http_server, tmp_path):
    _Handler.responses["/q/C/2020-01-01/2020-01-31"] = (200, CSV_BODY)
    args = (http_server + "/q/{asset}/{start}/{end}", "C", (dt.date(2020, 1, 1), dt.date(2020, 1, 31)))
    first = fetch_remote(*args, schema=SIMPLE, cache_dir=tmp_path)
    cache_file = tmp_path / "C_2020-01-01_2020-01-31.csv"
    assert cache_file.exists()
    assert cache_file.read_bytes() == CSV_BODY
    # server now gone from the responses map; cached payload must satisfy the call
    del _Handler.responses["/q/C/2020-01-01/2020-01-31"]
    second = fetch_remote(*args, schema=SIMPLE, cache_dir=tmp_path)
    assert np.array_equal(first.prices, second.prices)


def test_fetch_remote_caches_only_parsed_payloads(http_server, tmp_path):
    key = "/q/P/2020-01-01/2020-01-31"
    args = (http_server + "/q/{asset}/{start}/{end}", "P", (dt.date(2020, 1, 1), dt.date(2020, 1, 31)))
    cache_file = tmp_path / "P_2020-01-01_2020-01-31.csv"
    _Handler.responses[key] = (200, b"<html>rate limited</html>")
    with pytest.raises(PayloadParseError):
        fetch_remote(*args, schema=SIMPLE, cache_dir=tmp_path)
    assert not cache_file.exists()
    _Handler.responses[key] = (200, CSV_BODY)
    series = fetch_remote(*args, schema=SIMPLE, cache_dir=tmp_path)
    assert cache_file.read_bytes() == CSV_BODY
    assert list(series.prices) == [100.0, 101.0, 102.0]


def test_fetch_remote_refuses_a_cache_file_outside_the_cache_dir(tmp_path, monkeypatch):
    def urlopen(*args, **kwargs):
        pytest.fail("urlopen called for an asset id that holds a path separator")

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    cache = tmp_path / "cache"
    with pytest.raises(DataValidationError, match=r"^\.\./outside: an asset id or result name cannot hold '/'$"):
        fetch_remote("http://localhost/q/{asset}/{start}/{end}", "../outside",
                     (dt.date(2020, 1, 1), dt.date(2020, 1, 31)), cache_dir=cache)
    assert list(tmp_path.iterdir()) == []


def test_fetch_remote_without_a_cache_refuses_a_path_separator_before_any_request(monkeypatch):
    def urlopen(*args, **kwargs):
        pytest.fail("urlopen called for an asset id that holds a path separator")

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    with pytest.raises(DataValidationError, match=r"^\.\./outside: an asset id or result name cannot hold '/'$"):
        fetch_remote("http://localhost/q/{asset}/{start}/{end}", "../outside", (dt.date(2020, 1, 1), dt.date(2020, 1, 31)))


def test_fetch_cli_failed_asset_writes_nothing(http_server, tmp_path):
    _Handler.responses["/q/GLD/2020-01-01/2020-01-31"] = (200, b"Date,Adj Close\n2020-01-01,100\n2020-01-02,101\n")
    _Handler.responses["/q/BAD/2020-01-01/2020-01-31"] = (500, b"boom")
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [
        "--out", str(out), "fetch", "--endpoint", http_server + "/q/{asset}/{start}/{end}",
        "--assets", "GLD,BAD", "--start", "2020-01-01", "--end", "2020-01-31",
    ])
    assert result.exit_code == 3
    assert not out.exists()


def test_fetch_remote_network_error():
    with pytest.raises(NetworkError):
        fetch_remote(
            "http://127.0.0.1:1/q/{asset}/{start}/{end}",
            "X",
            (dt.date(2020, 1, 1), dt.date(2020, 1, 2)),
            timeout=0.5,
        )


@pytest.mark.parametrize("body, message", [
    (b"Date,Adj Close\n2020-01-01,100\n2020-01-02,101\n2020-01-01,102\n",
     "ODD: date 2020-01-01 on lines 2 and 4"),
    (b"Date,Adj Close\n2020-01-01,100\n2020-01-02,0\n", "line 3: ODD: non-positive price 0.0"),
    (json.dumps({"timestamps": ["2020-01-01"], "closes": [10.0]}).encode(),
     "ODD: need at least 2 observations, got 1"),
    (json.dumps({"timestamps": ["2020-01-01", "2020-01-01"], "closes": [10.0, 11.0]}).encode(),
     "ODD: date 2020-01-01 on indices 0 and 1"),
    (json.dumps({"timestamps": 5, "closes": 5}).encode(), "ODD: 'timestamps' must be a list, got 5"),
    (json.dumps({"timestamps": [1e20, 1e20], "closes": [1, 2]}).encode(),
     "ODD: bad timestamp 1e+20 at index 0"),
    (json.dumps({"timestamps": ["2020-01-01", True], "closes": [1, 2]}).encode(),
     "ODD: bad timestamp True at index 1"),
    (json.dumps({"timestamps": ["2020-01-01", "2020-01-02"], "closes": [1.5, True]}).encode(),
     "ODD: bad close True at index 1"),
    (b"{bad", "ODD: invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    (json.dumps({"timestamps": [1]}).encode(), "ODD: JSON payload must have 'timestamps' and 'closes'"),
    (json.dumps({"timestamps": ["2020-01-01"], "closes": [1, 2]}).encode(),
     "ODD: timestamps (1) and closes (2) differ in length"),
    (json.dumps({"timestamps": [], "closes": []}).encode(), "ODD: empty payload"),
    (json.dumps({"timestamps": ["2020-02-30"], "closes": [1]}).encode(), "ODD: bad date '2020-02-30' at index 0"),
    (json.dumps({"timestamps": ["2020-01-01", "20200102"], "closes": [1, 2]}).encode(),
     "ODD: bad date '20200102' at index 1"),
    (json.dumps({"timestamps": ["2020-W01-3", "2020-01-02"], "closes": [1, 2]}).encode(),
     "ODD: bad date '2020-W01-3' at index 0"),
    (json.dumps({"timestamps": ["2020-01-01", "2020-01-02"], "closes": [1, -2]}).encode(),
     "ODD: non-positive close -2.0 at index 1"),
], ids=["csv-duplicate-date", "csv-zero-price", "json-one-row", "json-duplicate-date",
        "json-not-lists", "json-timestamp-out-of-range", "json-bool-timestamp", "json-bool-close",
        "json-invalid", "json-no-closes", "json-lengths-differ", "json-empty", "json-bad-date",
        "json-basic-date", "json-week-date", "json-negative-close"])
def test_fetch_cli_payload_fault_exit_3_names_asset(http_server, tmp_path, body, message):
    _Handler.responses["/q/ODD/2020-01-01/2020-01-31"] = (200, body)
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [
        "--out", str(out), "fetch", "--endpoint", http_server + "/q/{asset}/{start}/{end}",
        "--assets", "ODD", "--start", "2020-01-01", "--end", "2020-01-31", "--cache-dir", str(tmp_path / "c"),
    ])
    assert result.exit_code == 3, result.output
    assert f"error: {message}" in result.output.splitlines()  # the asset named once
    assert not out.exists()
    assert not (tmp_path / "c" / "ODD_2020-01-01_2020-01-31.csv").exists()


def test_price_series_names_first_date_out_of_order():
    days = [dt.date(2020, 1, d) for d in (1, 3, 3, 2)]
    with pytest.raises(DuplicateDate) as err:
        PriceSeries(asset_id="a", days=[d.toordinal() for d in days], prices=np.ones(4))
    assert str(err.value) == "a: dates not strictly increasing at 2020-01-03"


BAD_DAYS = [
    (np.array([737425.0, 737426.0, 737427.0]), "days must be a 1-D integer array of ordinals, got float64 of shape (3,)"),
    (np.array([[737425, 737426, 737427]]), "days must be a 1-D integer array of ordinals, got int64 of shape (1, 3)"),
    (tuple(dt.date(2020, 1, d) for d in (1, 2, 3)), "days must be a 1-D integer array of ordinals, got object of shape (3,)"),
    (np.array([0, 1, 2]), "days must be ordinals from 1 to 3652059, got 0 to 2"),
    (np.array([1, 2, 2**63], dtype=np.uint64), "days must be ordinals from 1 to 3652059, got -9223372036854775808 to 2"),
]
BAD_DAYS_IDS = ["float", "2-D", "date-objects", "before-year-1", "past-int64"]


@pytest.mark.parametrize("days, message", BAD_DAYS, ids=BAD_DAYS_IDS)
def test_price_series_refuses_days_that_are_not_1d_integer_ordinals(days, message):
    with pytest.raises(ValueError) as err:
        PriceSeries(asset_id="a", days=days, prices=np.ones(3))
    assert str(err.value) == message


# each value type that holds days, built on three rows: (builder, the name
# that begins its out-of-order message, the field its days must match)
DAY_HOLDERS = {
    "AlignedPanel": (lambda days: AlignedPanel(("a", "b"), days, np.ones((3, 2))), "panel", "prices"),
    "ReturnsMatrix": (lambda days: ReturnsMatrix(("a", "b"), np.zeros((3, 2)), "log", days), "returns", "values"),
}


@pytest.mark.parametrize("holder", DAY_HOLDERS)
@pytest.mark.parametrize("days, message", BAD_DAYS + [
    (np.array([737425, 737426, 737427, 737428]), "days and {rows} differ in length"),
    (np.array([737427, 737426, 737425]), "{name}: dates not strictly increasing at 2020-01-02"),
    (np.array([737425, 737426, 737426]), "{name}: dates not strictly increasing at 2020-01-02"),
], ids=BAD_DAYS_IDS + ["a-day-too-many", "reversed", "repeated"])
def test_panel_and_returns_refuse_the_days_a_price_series_refuses(holder, days, message):
    build, name, rows = DAY_HOLDERS[holder]
    with pytest.raises(DuplicateDate if "increasing" in message else ValueError) as err:
        build(days)
    assert str(err.value) == message.format(name=name, rows=rows)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_price_series_holds_read_only_int64_days(dtype):
    days, prices = np.array([737425, 737427], dtype=dtype), np.array([1.0, 2.0])
    series = PriceSeries(asset_id="a", days=days, prices=prices)
    assert series.days.dtype == np.int64 and series.days.ndim == 1
    assert not series.days.flags.writeable and not series.prices.flags.writeable
    assert days.flags.writeable and prices.flags.writeable  # the caller's arrays are left as they were
    assert iso_days(series.days) == ["2020-01-01", "2020-01-03"]
    assert len(series) == 2


def test_load_csv_retains_at_most_24_bytes_per_row(tmp_path):
    # the series holds 8 bytes of ordinal and 8 of price per row; a tuple of
    # datetime.date objects would add about 32 more
    rows = 100_000
    base = dt.date(1800, 1, 1).toordinal()
    path = tmp_path / "long.csv"
    path.write_text("Date,Adj Close\n" + "".join(
        f"{dt.date.fromordinal(base + i)},{100 + i % 997}.25\n" for i in range(rows)))
    tracemalloc.start()
    try:
        series = load_csv(path)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(series) == rows
    assert retained / rows <= 24, f"{retained / rows:.1f} bytes per row"


def test_load_csv_undecodable_byte_names_path_and_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"Date,Adj Close\r\n2020-01-01,100\r\n2020-01-02,1\xff1\r\n")
    with pytest.raises(MalformedRow) as err:
        load_csv(path)
    assert err.value.line == 3
    assert str(err.value) == f"line 3: {path}: not UTF-8: byte 0xff (invalid start byte)"
    result = CliRunner().invoke(main, ["--out", str(tmp_path / "out"), "stats", str(path)])
    assert result.exit_code == 2, result.output
    assert result.output.endswith(f"error: {err.value}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("boundary", ["\x0c", "\x0b", "\x1c", "\x85", "\u2028"],
                         ids=["form-feed", "vertical-tab", "file-separator", "next-line", "line-separator"])
def test_load_csv_counts_only_physical_lines(tmp_path, boundary):
    # str.splitlines would split line 2 at the boundary, and every later line
    # number would be one too high
    path = tmp_path / "A.csv"
    head = f"Date,Adj Close\n# page{boundary}break\n2020-01-01,1.0\n".encode()
    tail = b"".join(b"2020-01-0%d,%d.0\n" % (day, day) for day in range(3, 7))
    path.write_bytes(head + b"2020-01-02,2.0\n" + tail)
    assert len(load_csv(path)) == 6
    result = CliRunner().invoke(main, ["--out", str(tmp_path / "out"), "stats", str(path)])
    assert result.exit_code == 0, result.output
    path.write_bytes(head + b"2020-01-02,1\xff1\n" + tail)
    with pytest.raises(MalformedRow) as err:
        load_csv(path)
    assert str(err.value) == f"line 4: {path}: not UTF-8: byte 0xff (invalid start byte)"


def test_load_csv_skips_a_byte_order_mark(tmp_path):
    text = b"Date,Adj Close\r\n2020-01-01,100\r\n2020-01-02,101\r\n2020-01-03,102\r\n"
    plain, marked, bad = tmp_path / "plain.csv", tmp_path / "marked.csv", tmp_path / "bad.csv"
    plain.write_bytes(text)
    marked.write_bytes(codecs.BOM_UTF8 + text)
    a, b = load_csv(plain, asset_id="X"), load_csv(marked, asset_id="X")
    assert np.array_equal(a.days, b.days) and np.array_equal(a.prices, b.prices)
    # the line and byte of a fault past the mark are those of the file
    bad.write_bytes(codecs.BOM_UTF8 + text.replace(b"101", b"1\xff1"))
    with pytest.raises(MalformedRow) as err:
        load_csv(bad)
    assert str(err.value) == f"line 3: {bad}: not UTF-8: byte 0xff (invalid start byte)"


@pytest.mark.parametrize("date", ["20200102", "2020-W01-4", "2020-01-0\u0662", "2020/01/02"],
                         ids=["basic", "week", "arabic-indic-digit", "slashes"])
def test_load_csv_refuses_every_date_form_but_yyyy_mm_dd(tmp_path, date):
    # Python 3.11 and later read the basic and week forms with
    # date.fromisoformat, and 3.10 refuses them: one form loads on every Python
    path = tmp_path / "A.csv"
    path.write_text(f"Date,Adj Close\n2020-01-01,100\n# note\n{date},101\n2020-01-03,102\n", encoding="utf-8")
    with pytest.raises(MalformedRow) as err:
        load_csv(path)
    assert str(err.value) == f"line 4: {path}: bad date {date!r}"
    result = CliRunner().invoke(main, ["--out", str(tmp_path / "out"), "stats", str(path)])
    assert result.exit_code == 2, result.output
    assert result.output.endswith(f"error: {err.value}\n")
    assert not (tmp_path / "out").exists()


def test_load_csv_field_over_csv_limit_names_path_and_line(tmp_path):
    # csv.reader refuses a field longer than csv.field_size_limit() (131072)
    path = tmp_path / "big.csv"
    path.write_text('Date,Adj Close\n2020-01-01,100\n2020-01-02,"' + "1" * 200_000 + '"\n')
    with pytest.raises(MalformedRow) as err:
        load_csv(path)
    assert err.value.line == 3
    assert str(err.value) == f"line 3: {path}: field larger than field limit ({csv.field_size_limit()})"
    result = CliRunner().invoke(main, ["--out", str(tmp_path / "out"), "stats", str(path)])
    assert result.exit_code == 2, result.output
    assert result.output.endswith(f"error: {err.value}\n")
    assert not (tmp_path / "out").exists()


# The row-by-row reader that load_csv replaced, kept as the oracle of its
# results and of its errors: the same exception, line and message.

def test_load_csv_names_first_repeat_in_file_order(csv_dir):
    days = ["2020-01-05", "2020-01-02", "2020-01-05", "2020-01-02", "2020-01-05"]
    path = csv_dir("d.csv", "Date,Adj Close\n" + "".join(f"{d},1\n" for d in days))
    with pytest.raises(DuplicateDate) as err:
        load_csv(path)
    assert str(err.value) == "d: date 2020-01-05 on lines 2 and 4"


def _oracle_data_lines(text):
    for lineno, raw in enumerate(re.split("\r\n|\r|\n", text), start=1):
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        yield lineno, raw


def _oracle_parse_rows(text, schema, origin):
    lines = list(_oracle_data_lines(text))
    if not lines:
        raise EmptyFile(f"{origin}: no rows")
    header_line, header_raw = lines[0]
    header = next(csv.reader([header_raw]))
    header = [h.strip() for h in header]
    try:
        date_idx = header.index(schema["date"])
        price_idx = header.index(schema["price"])
    except ValueError:
        raise MalformedRow(
            header_line,
            f"{origin}: header {header!r} lacks column "
            f"{schema['date']!r} or {schema['price']!r}",
        ) from None

    out = []
    for lineno, raw in lines[1:]:
        fields = next(csv.reader([raw]))
        if len(fields) <= max(date_idx, price_idx):
            raise MalformedRow(lineno, f"{origin}: expected {len(header)} fields, got {len(fields)}")
        try:
            if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", fields[date_idx].strip()):
                raise ValueError
            day = dt.date.fromisoformat(fields[date_idx].strip())
        except ValueError:
            raise MalformedRow(lineno, f"{origin}: bad date {fields[date_idx]!r}") from None
        try:
            price = float(fields[price_idx])
        except ValueError:
            raise MalformedRow(lineno, f"{origin}: bad price {fields[price_idx]!r}") from None
        if not math.isfinite(price) or price <= 0:
            raise NonPositivePrice(lineno, price, where=f"line {lineno}: {origin}")
        out.append((lineno, day, price))
    if not out:
        raise EmptyFile(f"{origin}: header only, no data rows")
    return out


def _oracle_build_series(asset_id, rows, positions="lines"):
    seen = {}
    for pos, day, _ in rows:
        if day in seen:
            raise DuplicateDate(f"{asset_id}: date {day} on {positions} {seen[day]} and {pos}")
        seen[day] = pos
    rows = sorted(rows, key=lambda r: r[1])
    return PriceSeries(
        asset_id=asset_id,
        days=[r[1].toordinal() for r in rows],
        prices=np.array([r[2] for r in rows], dtype=np.float64),
    )


def _oracle_load_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return _oracle_build_series("f", _oracle_parse_rows(text, {"date": "Date", "price": "Adj Close"}, str(path)))


def _outcome(load):
    try:
        series = load()
    except Exception as e:
        return type(e), getattr(e, "line", None), str(e)
    return series.days.tolist(), series.prices.tobytes()


_FAULTS = {
    "short": lambda row, draw, rows: row[:1],
    "date": lambda row, draw, rows: [draw(st.sampled_from(
        ["2020-13-01", "x", "", "20-01-01", "20200105", "2020-W01-4", "2020-01-0\u0665"]))] + row[1:],
    "price": lambda row, draw, rows: row[:-1] + [draw(st.sampled_from(["abc", "", "1.2.3"]))],
    "sign": lambda row, draw, rows: row[:-1] + [draw(st.sampled_from(["0", "-1.5", "-0.0", "nan", "inf"]))],
    "duplicate": lambda row, draw, rows: [draw(st.sampled_from(rows))[0]] + row[1:],
    # an unterminated quote runs to the end of its line: one field
    "open-quote": lambda row, draw, rows: ['"' + row[0]] + row[1:],
}


@st.composite
def csv_texts(draw):
    """A CSV of 1-12 rows with comments, blank lines, quoting, CRLF and
    shuffled rows, and with up to three faults on one or more rows."""
    extra = draw(st.booleans())  # a column between the date and the price
    rows = []
    for offset in draw(st.lists(st.integers(0, 40), min_size=1, max_size=12, unique=True)):
        day = dt.date.fromordinal(dt.date(2020, 1, 1).toordinal() + offset).isoformat()
        price = draw(st.floats(min_value=0.01, max_value=1e6))
        rows.append([draw(st.sampled_from([day, f" {day} "])),
                     draw(st.sampled_from([repr(price), f"{price:.2f}", f" {price!r}"]))])
        if extra:
            rows[-1].insert(1, "1")
    if draw(st.booleans()):
        rows.sort(key=lambda r: r[0].strip())
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        k = draw(st.integers(0, len(rows) - 1))
        rows[k] = _FAULTS[draw(st.sampled_from(sorted(_FAULTS)))](rows[k], draw, rows)

    def render(fields):
        style = draw(st.sampled_from(["plain", "plain", "quoted", "open-last"]))
        if style == "quoted":  # a quoted field may hold a comma
            return ",".join(f'"{f},0"' if f == "1" else f'"{f}"' for f in fields)
        if style == "open-last":  # an unterminated quote that ends its line is harmless
            return ",".join(fields[:-1] + [f'"{fields[-1]}'])
        return ",".join(fields)

    header = ["Date", "Open", "Adj Close"] if extra else ["Date", "Adj Close"]
    lines = [draw(st.sampled_from([",".join(header), ",".join(f'"{h}"' for h in header), " , ".join(header)]))]
    lines += [render(r) for r in rows]
    noise = st.sampled_from(["", "   ", "\t", "# note", "  # a, comment", "# page\x0cbreak"])
    text_lines = []
    for line in lines:
        text_lines += draw(st.lists(noise, max_size=2)) + [line]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(text_lines) + draw(st.sampled_from(["", newline]))


@given(csv_texts())
@settings(max_examples=300, deadline=None)
def test_load_csv_matches_row_by_row_oracle(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("oracle") / "f.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(lambda: load_csv(path)) == _outcome(lambda: _oracle_load_csv(path))


def test_align_keeps_transposed_layout_and_its_bits():
    # numpy reductions follow memory order, so a C-ordered (T, N) panel with
    # the same values gives other correlation and drift bits
    rng = np.random.default_rng(7)
    base = dt.date(2020, 1, 1).toordinal()
    series = []
    for k in range(12):
        days = np.sort(rng.choice(700, size=640, replace=False))
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, len(days))))
        series.append(PriceSeries(f"s{k}", base + days, prices))
    panel = align(series)

    common = sorted(set.intersection(*(set(s.days.tolist()) for s in series)))
    reference = np.array([[dict(zip(s.days.tolist(), s.prices))[d] for d in common] for s in series]).T
    assert panel.days.tolist() == common
    assert np.array_equal(panel.prices, reference)
    assert panel.prices.strides == reference.strides
    ref_panel = AlignedPanel(panel.asset_ids, np.array(common), reference)
    for measure in (lambda p: correlation_matrix(compute_returns(p)).values,
                    lambda p: drift_estimate(compute_returns(p)).A):
        assert measure(panel).tobytes() == measure(ref_panel).tobytes()


# one file per path of the parse: split once, or line by line for a quote or
# a line with another comma count; each holds 2020-01-01..03 in some order
_LOAD_CSVS_FILES = {
    "clean": b"Date,Adj Close\n2020-01-02,2.5\n2020-01-01,1\n2020-01-03,3\n",
    "quoted": b'Date,Adj Close\n2020-01-01,"1.5"\n"2020-01-02",2\n2020-01-03,3\n',
    "extra-column": b"Date,Adj Close\n2020-01-01,1,x\n2020-01-02,2\n2020-01-03,3\n",
    "comments": b"# source: test\n\nDate,Adj Close\n  # a, b\n2020-01-01,1\n\n2020-01-03,3\n2020-01-02,2\n",
    "crlf-bom": codecs.BOM_UTF8 + b"Date,Adj Close\r\n2020-01-01,1\r\n2020-01-02,2\r\n2020-01-03,3\r\n",
    "no-final-newline": b"Date,Adj Close\n2020-01-01,1\n2020-01-02,2\n2020-01-03,3.25",
    "cr": b"Date,Adj Close\r2020-01-01,1\r2020-01-02,2\r2020-01-03,3\r",
}


@pytest.mark.parametrize("cpus", [1, 2, 6])  # 6: six workers for seven files, more than most machines have CPUs
def test_load_csvs_equals_load_csv_bit_for_bit(tmp_path, monkeypatch, cpus):
    paths = []
    for name, data in _LOAD_CSVS_FILES.items():
        paths.append(tmp_path / f"{name}.csv")
        paths[-1].write_bytes(data)
    monkeypatch.setattr(kernels, "_cpus", lambda: cpus)
    got = load_csvs(paths)
    want = [load_csv(p) for p in paths]
    assert [(s.asset_id, s.days.dtype, s.days.tobytes(), s.prices.dtype, s.prices.tobytes()) for s in got] == [
        (s.asset_id, s.days.dtype, s.days.tobytes(), s.prices.dtype, s.prices.tobytes()) for s in want]
    assert load_csvs([]) == []
    assert_no_child_process()


def _parse_outcome(text):
    try:
        numbers, days, prices = _parse_csv(text, {"date": "Date", "price": "Adj Close"}, "f.csv")
    except Exception as e:
        return type(e), getattr(e, "line", None), str(e)
    return numbers, days.dtype, days.tobytes(), prices.dtype, prices.tobytes()


@st.composite
def plain_csv_texts(draw):
    """A CSV with no quote, either column first, spaces around fields, indented
    comments and CR, CRLF or LF endings, and at most one ragged row, bad date
    or bad price."""
    columns = draw(st.permutations(["Date", "Adj Close", "Open"][: draw(st.sampled_from([2, 3]))]))
    rows = []
    for offset in draw(st.lists(st.integers(0, 40), min_size=1, max_size=8, unique=True)):
        day = dt.date.fromordinal(dt.date(2020, 1, 1).toordinal() + offset).isoformat()
        fields = {"Date": day, "Adj Close": repr(draw(st.floats(0.01, 1e6))), "Open": "1"}
        rows.append([draw(st.sampled_from(["{}", " {}", "{} "])).format(fields[c]) for c in columns])
    fault = draw(st.sampled_from([None, None, "ragged", "date", "price"]))
    if fault is not None:
        k = draw(st.integers(0, len(rows) - 1))
        if fault == "ragged":
            rows[k] = rows[k][:-1] if draw(st.booleans()) else rows[k] + ["x"]
        else:
            rows[k][columns.index("Date" if fault == "date" else "Adj Close")] = draw(st.sampled_from(
                ["2020-02-30", "x", ""] if fault == "date" else ["abc", "", "-1", "nan"]))
    lines = [draw(st.sampled_from([",".join(columns), " , ".join(columns)]))] + [",".join(r) for r in rows]
    comments = st.sampled_from(["", "  ", "# note", "  # a, b", "\t# c"])
    text_lines = []
    for line in lines:
        text_lines += draw(st.lists(comments, max_size=2)) + [line]
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline, newline.join(text_lines) + draw(st.sampled_from(["", newline]))


@given(plain_csv_texts())
@settings(max_examples=300, deadline=None)
def test_parse_split_once_agrees_with_the_line_by_line_split(case):
    # a last comment line with a quote sends the text down the line-by-line
    # split without moving any data line
    newline, text = case
    quoted = text + ("" if text.endswith(newline) else newline) + '# "'
    assert _parse_outcome(text) == _parse_outcome(quoted)
