"""Loading, validation, and date alignment of multi-asset daily price data.

Sources are local CSV files (header row required, configurable column names)
or a remote endpoint returning either the same CSV schema or a JSON payload
``{"timestamps": [...], "closes": [...]}``. Alignment keeps only the calendar
days common to every series; no interpolation or fill is ever applied.

A CSV is read as columns: its lines are split once, and the date column,
the price column and the price checks each take one pass over the whole
file. Dates are sorted and checked for repeats as one array of ordinals, and
``align`` intersects those arrays. Errors are located only on failure: when a
pass fails, one helper walks the rows in file order to name the first faulty
line, with the exception, line and message a row-by-row reader would give.
"""

from __future__ import annotations

import codecs
import csv
import datetime as dt
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import (
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
    TooFewSamples,
)

DEFAULT_SCHEMA = {"date": "Date", "price": "Adj Close"}


def _check_prices(asset_ids, dates, prices: np.ndarray) -> None:
    """Raise NonPositivePrice naming the asset and date of the first (T, N)
    price that is not finite and positive."""
    bad = np.argwhere(~(np.isfinite(prices) & (prices > 0)))
    if len(bad):
        t, k = bad[0]
        raise NonPositivePrice(-1, float(prices[t, k]), where=f"{asset_ids[k]} on {dates[t]}")


def _ordinals(dates) -> np.ndarray:
    """The dates' proleptic Gregorian ordinals, as int64."""
    return np.fromiter(map(dt.date.toordinal, dates), np.int64, len(dates))


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """Dated price observations for one asset, sorted by calendar day."""

    asset_id: str
    dates: tuple[dt.date, ...]
    prices: np.ndarray

    def __post_init__(self):
        if len(self.dates) != len(self.prices):
            raise ValueError("dates and prices differ in length")
        if len(self.dates) < 2:
            raise TooFewSamples(
                f"{self.asset_id}: need at least 2 observations, got {len(self.dates)}"
            )
        ordinals = _ordinals(self.dates)
        bad = np.flatnonzero(ordinals[1:] <= ordinals[:-1])
        if len(bad):
            raise DuplicateDate(f"{self.asset_id}: dates not strictly increasing at {self.dates[bad[0] + 1]}")
        prices = np.asarray(self.prices, dtype=np.float64)
        _check_prices((self.asset_id,), self.dates, prices[:, np.newaxis])
        prices.flags.writeable = False
        object.__setattr__(self, "prices", prices)

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True, eq=False)
class AlignedPanel:
    """Prices of N assets on the T trading days they all share."""

    asset_ids: tuple[str, ...]
    dates: tuple[dt.date, ...]
    prices: np.ndarray  # (T, N)

    def __post_init__(self):
        prices = np.asarray(self.prices, dtype=np.float64)
        t, n = prices.shape
        if n != len(self.asset_ids):
            raise ValueError("column count does not match asset_ids")
        if t != len(self.dates) or t < 3:
            raise InsufficientOverlap(f"panel needs at least 3 common dates, got {t}")
        _check_prices(self.asset_ids, self.dates, prices)
        prices.flags.writeable = False
        object.__setattr__(self, "prices", prices)

    @property
    def n_assets(self) -> int:
        return len(self.asset_ids)

    @property
    def n_dates(self) -> int:
        return len(self.dates)


def _decode(data: bytes, origin: str) -> str:
    """``data`` as UTF-8 text, without a leading byte-order mark; an
    undecodable byte raises MalformedRow naming its line."""
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as e:  # e.object and e.start are past the mark
        line = len((e.object[: e.start].decode("utf-8") + "x").splitlines())
        raise MalformedRow(line, f"{origin}: not UTF-8: byte 0x{e.object[e.start]:02x} ({e.reason})") from None


def _raise_first_fault(origin: str, n_header: int, numbers, rows, date_idx: int, price_idx: int):
    """Raise the error of the first faulty row in file order. A row is checked
    for its field count, then its date, then its price, then the price's sign.
    Called only once the column pass of ``_parse_csv`` has failed."""
    for lineno, fields in zip(numbers, rows):
        if len(fields) <= max(date_idx, price_idx):
            raise MalformedRow(lineno, f"{origin}: expected {n_header} fields, got {len(fields)}")
        try:
            dt.date.fromisoformat(fields[date_idx].strip())
        except ValueError:
            raise MalformedRow(lineno, f"{origin}: bad date {fields[date_idx]!r}") from None
        try:
            price = float(fields[price_idx])
        except ValueError:
            raise MalformedRow(lineno, f"{origin}: bad price {fields[price_idx]!r}") from None
        if not math.isfinite(price) or price <= 0:
            raise NonPositivePrice(lineno, price, where=f"line {lineno}: {origin}")


def _quoted_fields(line: str, lineno: int, origin: str) -> list[str]:
    """The fields of a line that holds a quote, as csv.reader splits it; a
    field csv.reader refuses (one longer than ``csv.field_size_limit()``)
    raises MalformedRow naming the line."""
    try:
        return next(csv.reader((line,)))
    except csv.Error as e:
        raise MalformedRow(lineno, f"{origin}: {e}") from None


def _parse_csv(text: str, schema: dict, origin: str) -> tuple[list[int], list[dt.date], np.ndarray]:
    """The line numbers, dates and prices of a CSV text's data rows, in file order.

    Blank and ``#`` lines are skipped; the first other line is the header.
    Each column is parsed in one pass, and the rows are looked at one by one
    only to name the first faulty one.
    """
    lines = text.splitlines()
    numbers = [n for n, s in enumerate(map(str.lstrip, lines), start=1) if s and s[0] != "#"]
    if not numbers:
        raise EmptyFile(f"{origin}: no rows")
    # Each line is read on its own, so an unterminated quote ends with its
    # line; only a line that holds a quote goes through csv.reader.
    kept = [lines[n - 1] for n in numbers]
    rows = [_quoted_fields(line, n, origin) if '"' in line else line.split(",") for n, line in zip(numbers, kept)]
    header = [h.strip() for h in rows[0]]
    try:
        date_idx = header.index(schema["date"])
        price_idx = header.index(schema["price"])
    except ValueError:
        raise MalformedRow(
            numbers[0],
            f"{origin}: header {header!r} lacks column "
            f"{schema['date']!r} or {schema['price']!r}",
        ) from None
    numbers, rows = numbers[1:], rows[1:]
    if not rows:
        raise EmptyFile(f"{origin}: header only, no data rows")

    try:
        days = list(map(dt.date.fromisoformat, [r[date_idx].strip() for r in rows]))
        prices = np.fromiter(map(float, [r[price_idx] for r in rows]), np.float64, len(rows))
    except (IndexError, ValueError):  # a short row, a bad date or a bad price
        prices = None
    if prices is None or not (np.isfinite(prices) & (prices > 0)).all():
        _raise_first_fault(origin, len(header), numbers, rows, date_idx, price_idx)
    return numbers, days, prices


def _build_series(
    asset_id: str, positions, days: list[dt.date], prices: np.ndarray, unit: str = "lines"
) -> PriceSeries:
    """A PriceSeries from dates and prices in input order. ``positions`` number
    the observations in messages, as ``unit`` ("lines" of a CSV, JSON
    "indices"); a repeated date names its first repeat in input order."""
    ords = _ordinals(days)
    if not (ords[1:] > ords[:-1]).all():
        order = np.argsort(ords, kind="stable")
        sorted_ords = ords[order]
        repeats = order[1:][sorted_ords[1:] == sorted_ords[:-1]]
        if len(repeats):
            j = int(repeats.min())
            i = int(order[np.searchsorted(sorted_ords, ords[j])])
            raise DuplicateDate(f"{asset_id}: date {days[j]} on {unit} {positions[i]} and {positions[j]}")
        days = [days[k] for k in order.tolist()]
        prices = prices[order]
    return PriceSeries(asset_id=asset_id, dates=tuple(days), prices=prices)


def load_csv(path, schema: dict | None = None, asset_id: str | None = None) -> PriceSeries:
    """Load one asset's price series from a CSV file.

    ``schema`` maps the logical columns to header names, default
    ``{"date": "Date", "price": "Adj Close"}``. Rows may appear in any order;
    the result is sorted ascending by date. Lines starting with ``#`` are
    treated as comments.
    """
    schema = schema or DEFAULT_SCHEMA
    path = os.fspath(path)
    if asset_id is None:
        asset_id = os.path.splitext(os.path.basename(path))[0]
    with open(path, "rb") as fh:
        text = _decode(fh.read(), path)
    return _build_series(asset_id, *_parse_csv(text, schema, origin=path))


def write_csv(series: PriceSeries, path, schema: dict | None = None, header_comment: str | None = None) -> None:
    """Write a PriceSeries to ``path`` or an open file in the schema load_csv reads.

    Prices are written with repr so load_csv(write_csv(s)) reproduces the
    series exactly.
    """
    if not hasattr(path, "write"):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            return write_csv(series, fh, schema, header_comment)
    schema = schema or DEFAULT_SCHEMA
    if header_comment:
        for line in header_comment.splitlines():
            path.write(f"# {line}\n")
    writer = csv.writer(path)
    writer.writerow([schema["date"], schema["price"]])
    for day, price in zip(series.dates, series.prices):
        writer.writerow([day.isoformat(), repr(float(price))])


def align(series_list: list[PriceSeries]) -> AlignedPanel:
    """Intersect the series' dates and assemble the common-date price panel.

    Column order follows input order. Fewer than 3 common dates raises
    InsufficientOverlap.
    """
    if not series_list:
        raise InsufficientOverlap("no input series")
    ids = [s.asset_id for s in series_list]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise DuplicateAssetId(f"duplicate asset ids: {dupes}")

    ords = [_ordinals(s.dates) for s in series_list]
    common = ords[0]
    for o in ords[1:]:
        common = np.intersect1d(common, o, assume_unique=True)
    if len(common) < 3:
        raise InsufficientOverlap(
            f"only {len(common)} dates common to all {len(series_list)} series"
        )
    dates = tuple(map(dt.date.fromordinal, common.tolist()))
    # (N, T) transposed, not a C-ordered (T, N) copy: reductions over the panel
    # follow its memory order, and the output bytes depend on it
    prices = np.stack([s.prices[np.searchsorted(o, common)] for s, o in zip(series_list, ords)]).T
    return AlignedPanel(asset_ids=tuple(ids), dates=dates, prices=prices)


def _parse_json_payload(text: str, asset_id: str) -> tuple[range, list[dt.date], np.ndarray]:
    """The indices, dates and prices of a ``{"timestamps": [...], "closes": [...]}``
    payload. A timestamp is an ISO date or epoch seconds (UTC)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise PayloadParseError(f"{asset_id}: invalid JSON: {e}") from None
    if not isinstance(doc, dict) or "timestamps" not in doc or "closes" not in doc:
        raise PayloadParseError(f"{asset_id}: JSON payload must have 'timestamps' and 'closes'")
    stamps, closes = doc["timestamps"], doc["closes"]
    for key, value in (("timestamps", stamps), ("closes", closes)):
        if not isinstance(value, list):
            raise PayloadParseError(f"{asset_id}: {key!r} must be a list, got {value!r}")
    if len(stamps) != len(closes):
        raise PayloadParseError(
            f"{asset_id}: timestamps ({len(stamps)}) and closes ({len(closes)}) differ in length"
        )
    if not stamps:
        raise PayloadParseError(f"{asset_id}: empty payload")
    days = []
    prices = np.empty(len(closes))
    for i, (ts, close) in enumerate(zip(stamps, closes)):
        if close is None:
            raise PayloadParseError(f"{asset_id}: null close at index {i}")
        if isinstance(ts, str):
            try:
                days.append(dt.date.fromisoformat(ts))
            except ValueError:
                raise PayloadParseError(f"{asset_id}: bad date {ts!r} at index {i}") from None
        elif isinstance(ts, (int, float)) and not isinstance(ts, bool):
            try:
                days.append(dt.datetime.fromtimestamp(ts, tz=dt.timezone.utc).date())
            except (OverflowError, OSError, ValueError):  # out of range, or NaN
                raise PayloadParseError(f"{asset_id}: bad timestamp {ts!r} at index {i}") from None
        else:
            raise PayloadParseError(f"{asset_id}: bad timestamp {ts!r} at index {i}")
        try:
            if isinstance(close, bool):
                raise TypeError
            price = float(close)
        except (TypeError, ValueError, OverflowError):
            raise PayloadParseError(f"{asset_id}: bad close {close!r} at index {i}") from None
        if not math.isfinite(price) or price <= 0:
            raise PayloadParseError(f"{asset_id}: non-positive close {price!r} at index {i}")
        prices[i] = price
    return range(len(days)), days, prices


def _payload_to_series(payload: bytes, asset_id: str, schema: dict) -> PriceSeries:
    try:
        text = _decode(payload, asset_id)
        if payload.removeprefix(codecs.BOM_UTF8).lstrip()[:1] == b"{":
            return _build_series(asset_id, *_parse_json_payload(text, asset_id), unit="indices")
        return _build_series(asset_id, *_parse_csv(text, schema, origin=asset_id))
    except DataValidationError as e:
        # every message of the parsers and of PriceSeries names the asset already
        raise PayloadParseError(str(e)) from None


def check_stem(stem: str) -> None:
    """Refuse ``stem``, an asset id or result name that becomes a file name,
    when it is empty (a hidden ``.csv``) or holds a path separator: its file
    would land outside its directory."""
    if not stem:
        raise DataValidationError(f"{stem!r}: an asset id or result name cannot be empty")
    for sep in filter(None, (os.sep, os.altsep)):
        if sep in stem:
            raise DataValidationError(f"{stem}: an asset id or result name cannot hold {sep!r}")


def cache_path(cache_dir, asset_id: str, start: dt.date, end: dt.date) -> str:
    return os.path.join(os.fspath(cache_dir), f"{asset_id}_{start.isoformat()}_{end.isoformat()}.csv")


def fetch_remote(
    endpoint: str,
    asset_id: str,
    date_range: tuple[dt.date, dt.date],
    schema: dict | None = None,
    cache_dir=None,
    timeout: float = 30.0,
) -> PriceSeries:
    """Fetch one asset's series from a URL template.

    ``endpoint`` may contain ``{asset}``, ``{start}``, ``{end}`` placeholders.
    The raw response bytes are cached (when ``cache_dir`` is given) under
    ``{asset}_{start}_{end}.csv`` and reused on later calls, but only once
    they have parsed, so a bad payload is never replayed; cache writes are
    atomic so concurrent readers never see partial files. Validation is that
    of load_csv, and a payload that fails it raises PayloadParseError. An
    asset id that ``check_stem`` refuses is refused before any request.
    """
    check_stem(asset_id)
    schema = schema or DEFAULT_SCHEMA
    start, end = date_range
    cached = cache_path(cache_dir, asset_id, start, end) if cache_dir is not None else None

    if cached and os.path.exists(cached):
        with open(cached, "rb") as fh:
            return _payload_to_series(fh.read(), asset_id, schema)
    # imported here: it imports http.client, ssl and email, which only a fetch needs
    import urllib.error
    import urllib.request

    url = endpoint.format(asset=asset_id, start=start.isoformat(), end=end.isoformat())
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            status = getattr(resp, "status", 200)
            if status != 200:
                raise HttpStatusError(status, url)
            payload = resp.read()
    except urllib.error.HTTPError as e:
        e.close()  # the error is also the response, which holds the connection
        raise HttpStatusError(e.code, url) from None
    except urllib.error.URLError as e:
        raise NetworkError(f"{url}: {e.reason}") from None
    except OSError as e:
        raise NetworkError(f"{url}: {e}") from None
    series = _payload_to_series(payload, asset_id, schema)
    if cached:
        os.makedirs(os.path.dirname(cached) or ".", exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(cached) or ".", suffix=".part")
        try:
            with io.open(fd, "wb") as fh:
                fh.write(payload)
            os.replace(tmp, cached)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    return series
