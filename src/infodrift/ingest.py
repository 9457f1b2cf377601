"""Loading, validation, and date alignment of multi-asset daily price data.

Sources are local CSV files (header row required, configurable column names)
or a remote endpoint returning either the same CSV schema or a JSON payload
``{"timestamps": [...], "closes": [...]}``. Alignment keeps only the calendar
days common to every series; no interpolation or fill is ever applied.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import json
import math
import os
import tempfile
import urllib.error
import urllib.request
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
        for a, b in zip(self.dates, self.dates[1:]):
            if a >= b:
                raise DuplicateDate(f"{self.asset_id}: dates not strictly increasing at {b}")
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


def _data_lines(text: str):
    """Yield (line_number, raw_line) skipping blank and '#' comment lines."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        yield lineno, raw


def _parse_rows(text: str, schema: dict, origin: str) -> list[tuple[int, dt.date, float]]:
    lines = list(_data_lines(text))
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


def _build_series(
    asset_id: str, rows: list[tuple[int, dt.date, float]], positions: str = "lines"
) -> PriceSeries:
    """A PriceSeries from (position, date, price) rows; ``positions`` names
    what the positions count in messages ("lines" of a CSV, JSON "indices")."""
    seen: dict[dt.date, int] = {}
    for pos, day, _ in rows:
        if day in seen:
            raise DuplicateDate(f"{asset_id}: date {day} on {positions} {seen[day]} and {pos}")
        seen[day] = pos
    rows = sorted(rows, key=lambda r: r[1])
    return PriceSeries(
        asset_id=asset_id,
        dates=tuple(r[1] for r in rows),
        prices=np.array([r[2] for r in rows], dtype=np.float64),
    )


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
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return _build_series(asset_id, _parse_rows(text, schema, origin=path))


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

    common = set(series_list[0].dates)
    for s in series_list[1:]:
        common &= set(s.dates)
    if len(common) < 3:
        raise InsufficientOverlap(
            f"only {len(common)} dates common to all {len(series_list)} series"
        )
    dates = tuple(sorted(common))
    cols = []
    for s in series_list:
        lookup = dict(zip(s.dates, s.prices))
        cols.append([lookup[d] for d in dates])
    prices = np.array(cols, dtype=np.float64).T
    return AlignedPanel(asset_ids=tuple(ids), dates=dates, prices=prices)


def _parse_json_payload(payload: bytes, asset_id: str) -> list[tuple[int, dt.date, float]]:
    try:
        doc = json.loads(payload)
    except json.JSONDecodeError as e:
        raise PayloadParseError(f"{asset_id}: invalid JSON: {e}") from None
    if not isinstance(doc, dict) or "timestamps" not in doc or "closes" not in doc:
        raise PayloadParseError(f"{asset_id}: JSON payload must have 'timestamps' and 'closes'")
    stamps, closes = doc["timestamps"], doc["closes"]
    if len(stamps) != len(closes):
        raise PayloadParseError(
            f"{asset_id}: timestamps ({len(stamps)}) and closes ({len(closes)}) differ in length"
        )
    rows = []
    for i, (ts, close) in enumerate(zip(stamps, closes)):
        if close is None:
            raise PayloadParseError(f"{asset_id}: null close at index {i}")
        if isinstance(ts, str):
            try:
                day = dt.date.fromisoformat(ts)
            except ValueError:
                raise PayloadParseError(f"{asset_id}: bad date {ts!r} at index {i}") from None
        elif isinstance(ts, (int, float)):
            day = dt.datetime.fromtimestamp(ts, tz=dt.timezone.utc).date()
        else:
            raise PayloadParseError(f"{asset_id}: bad timestamp {ts!r} at index {i}")
        try:
            price = float(close)
        except (TypeError, ValueError):
            raise PayloadParseError(f"{asset_id}: bad close {close!r} at index {i}") from None
        if not math.isfinite(price) or price <= 0:
            raise PayloadParseError(f"{asset_id}: non-positive close {price!r} at index {i}")
        rows.append((i, day, price))
    if not rows:
        raise PayloadParseError(f"{asset_id}: empty payload")
    return rows


def _payload_to_series(payload: bytes, asset_id: str, schema: dict) -> PriceSeries:
    try:
        if payload.lstrip()[:1] == b"{":
            return _build_series(asset_id, _parse_json_payload(payload, asset_id), positions="indices")
        text = payload.decode("utf-8")
        return _build_series(asset_id, _parse_rows(text, schema, origin=asset_id))
    except UnicodeDecodeError as e:
        raise PayloadParseError(f"{asset_id}: undecodable payload: {e}") from None
    except DataValidationError as e:
        # every message of the row parser and of PriceSeries names the asset already
        raise PayloadParseError(str(e)) from None


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
    of load_csv, and a payload that fails it raises PayloadParseError.
    """
    schema = schema or DEFAULT_SCHEMA
    start, end = date_range
    cached = cache_path(cache_dir, asset_id, start, end) if cache_dir is not None else None

    if cached and os.path.exists(cached):
        with open(cached, "rb") as fh:
            return _payload_to_series(fh.read(), asset_id, schema)
    url = endpoint.format(asset=asset_id, start=start.isoformat(), end=end.isoformat())
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            status = getattr(resp, "status", 200)
            if status != 200:
                raise HttpStatusError(status, url)
            payload = resp.read()
    except urllib.error.HTTPError as e:
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
