"""Loading, validation, and date alignment of multi-asset daily price data.

Sources are local CSV files (header row required, configurable column names)
or a remote endpoint returning either the same CSV schema or a JSON payload
``{"timestamps": [...], "closes": [...]}``. Alignment keeps only the calendar
days common to every series; no interpolation or fill is ever applied.

A CSV is read as columns: its lines are split once, and the date column,
the price column and the price checks each take one pass over the whole
file. Series, panels and returns hold dates as int64 arrays of proleptic
Gregorian ordinals under one rule, ``freeze_days``. A series takes its
array as the date column is parsed and sorts it, and ``align`` intersects
those arrays. Errors are located only on failure: when a pass fails, one
helper walks the rows in file order to name the first faulty line, with
the exception, line and message a row-by-row reader would give.
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
from .matrices import freeze

DEFAULT_SCHEMA = {"date": "Date", "price": "Adj Close"}


def _check_prices(asset_ids, days: np.ndarray, prices: np.ndarray) -> None:
    """Raise NonPositivePrice naming the asset and date of the first (T, N)
    price that is not finite and positive; ``days[t]`` is row t's ordinal."""
    bad = np.argwhere(~(np.isfinite(prices) & (prices > 0)))
    if len(bad):
        t, k = bad[0]
        raise NonPositivePrice(-1, float(prices[t, k]), where=f"{asset_ids[k]} on {_date(days[t])}")


def _date(ordinal) -> dt.date:
    """The date of a proleptic Gregorian ordinal, for a message or a label."""
    return dt.date.fromordinal(int(ordinal))


_LAST_ORDINAL = dt.date.max.toordinal()


def freeze_days(obj, rows: str, name: str) -> None:
    """Set field ``days`` of the frozen dataclass ``obj`` to a read-only int64
    view of its 1-D integer ordinals (``date.toordinal()``), one per row of
    field ``rows``, each in 1..3652059 and strictly increasing; ``name``
    begins the message of a day out of order."""
    days = np.asarray(obj.days)
    if days.ndim != 1 or days.dtype.kind not in "iu":
        raise ValueError(f"days must be a 1-D integer array of ordinals, got {days.dtype} of shape {days.shape}")
    days = freeze(obj, "days", np.int64)
    if len(days) != len(getattr(obj, rows)):
        raise ValueError(f"days and {rows} differ in length")
    if ((days < 1) | (days > _LAST_ORDINAL)).any():  # uint64 past 2**63 wraps below 1
        raise ValueError(f"days must be ordinals from 1 to {_LAST_ORDINAL}, got {days.min()} to {days.max()}")
    bad = np.flatnonzero(days[1:] <= days[:-1])
    if len(bad):
        raise DuplicateDate(f"{name}: dates not strictly increasing at {_date(days[bad[0] + 1])}")


def _iso_form(texts: list[str]) -> bool:
    """Whether every text is ten ASCII characters with ``-`` at 4 and 7,
    checked by a few scans of the texts joined, not by a call per text."""
    joined = "".join(texts)
    return (set(map(len, texts)) <= {10} and joined.isascii()
            and joined[4::10].count("-") == joined[7::10].count("-") == len(texts))


def iso_dates(texts: list[str]) -> list[dt.date]:
    """The date of each text, which must be ten ASCII characters
    ``YYYY-MM-DD``: the one form ``date.fromisoformat`` reads on every
    supported Python (3.11 and later also read ``20200101`` and
    ``2020-W01-1``, which 3.10 refuses). Any other text raises ValueError
    naming the first such one; an impossible date, ``date.fromisoformat``'s
    ValueError."""
    if not _iso_form(texts):
        bad = next(text for text in texts if not _iso_form([text]))
        raise ValueError(f"{bad!r} is not a YYYY-MM-DD date")
    return list(map(dt.date.fromisoformat, texts))


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """Dated price observations for one asset, sorted by calendar day, which
    ``days`` holds as ordinals under the rule of ``freeze_days``."""

    asset_id: str
    days: np.ndarray
    prices: np.ndarray

    def __post_init__(self):
        freeze_days(self, "prices", self.asset_id)
        if len(self.days) < 2:
            raise TooFewSamples(f"{self.asset_id}: need at least 2 observations, got {len(self.days)}")
        prices = freeze(self, "prices")
        _check_prices((self.asset_id,), self.days, prices[:, np.newaxis])

    def __len__(self) -> int:
        return len(self.days)


@dataclass(frozen=True, eq=False)
class AlignedPanel:
    """Prices of N assets on the T trading days they all share, as ``days``."""

    asset_ids: tuple[str, ...]
    days: np.ndarray
    prices: np.ndarray  # (T, N)

    def __post_init__(self):
        prices = freeze(self, "prices")
        t, n = prices.shape
        if n != len(self.asset_ids):
            raise ValueError("column count does not match asset_ids")
        freeze_days(self, "prices", "panel")
        if t < 3:
            raise InsufficientOverlap(f"panel needs at least 3 common dates, got {t}")
        _check_prices(self.asset_ids, self.days, prices)

    @property
    def n_assets(self) -> int:
        return len(self.asset_ids)

    @property
    def n_dates(self) -> int:
        return len(self.days)


def _lines(text: str) -> list[str]:
    """The lines of ``text``, split at ``\\r\\n``, ``\\r`` and ``\\n`` only, as
    ``csv`` and text-mode files split them; ``str.splitlines`` also splits at
    form feeds and other Unicode line boundaries."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _decode(data: bytes, origin: str) -> str:
    """``data`` as UTF-8 text, without a leading byte-order mark; an
    undecodable byte raises MalformedRow naming its line."""
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as e:  # e.object and e.start are past the mark
        line = len(_lines(e.object[: e.start].decode("utf-8")))
        raise MalformedRow(line, f"{origin}: not UTF-8: byte 0x{e.object[e.start]:02x} ({e.reason})") from None


def _raise_first_fault(origin: str, n_header: int, numbers, rows, date_idx: int, price_idx: int):
    """Raise the error of the first faulty row in file order. A row is checked
    for its field count, then its date, then its price, then the price's sign.
    Called only once the column pass of ``_parse_csv`` has failed."""
    for lineno, fields in zip(numbers, rows):
        if len(fields) <= max(date_idx, price_idx):
            raise MalformedRow(lineno, f"{origin}: expected {n_header} fields, got {len(fields)}")
        try:
            iso_dates([fields[date_idx].strip()])
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


def _parse_csv(text: str, schema: dict, origin: str) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The line numbers, date ordinals and prices of a CSV text's data rows, in
    file order.

    Blank and ``#`` lines are skipped; the first other line is the header.
    Each column is parsed in one pass, and the rows are looked at one by one
    only to name the first faulty one.
    """
    lines = _lines(text)
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
        days = np.fromiter(
            map(dt.date.toordinal, iso_dates([r[date_idx].strip() for r in rows])),
            np.int64, len(rows),
        )
        prices = np.fromiter(map(float, [r[price_idx] for r in rows]), np.float64, len(rows))
    except (IndexError, ValueError):  # a short row, a bad date or a bad price
        prices = None
    if prices is None or not (np.isfinite(prices) & (prices > 0)).all():
        _raise_first_fault(origin, len(header), numbers, rows, date_idx, price_idx)
    return numbers, days, prices


def _build_series(
    asset_id: str, positions, days: np.ndarray, prices: np.ndarray, unit: str = "lines"
) -> PriceSeries:
    """A PriceSeries from date ordinals and prices in input order. ``positions``
    number the observations in messages, as ``unit`` ("lines" of a CSV, JSON
    "indices"); a repeated date names its first repeat in input order."""
    if not (days[1:] > days[:-1]).all():
        order = np.argsort(days, kind="stable")
        sorted_days = days[order]
        repeats = order[1:][sorted_days[1:] == sorted_days[:-1]]
        if len(repeats):
            j = int(repeats.min())
            i = int(order[np.searchsorted(sorted_days, days[j])])
            raise DuplicateDate(f"{asset_id}: date {_date(days[j])} on {unit} {positions[i]} and {positions[j]}")
        days, prices = sorted_days, prices[order]
    return PriceSeries(asset_id=asset_id, days=days, prices=prices)


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
    for day, price in zip(map(dt.date.fromordinal, series.days.tolist()), series.prices.tolist()):
        writer.writerow([day.isoformat(), repr(price)])


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

    common = series_list[0].days
    for s in series_list[1:]:
        common = np.intersect1d(common, s.days, assume_unique=True)
    if len(common) < 3:
        raise InsufficientOverlap(
            f"only {len(common)} dates common to all {len(series_list)} series"
        )
    # (N, T) transposed, not a C-ordered (T, N) copy: reductions over the panel
    # follow its memory order, and the output bytes depend on it
    prices = np.stack([s.prices[np.searchsorted(s.days, common)] for s in series_list]).T
    return AlignedPanel(asset_ids=tuple(ids), days=common, prices=prices)


def _parse_json_payload(text: str, asset_id: str) -> tuple[range, np.ndarray, np.ndarray]:
    """The indices, date ordinals and prices of a ``{"timestamps": [...], "closes": [...]}``
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
    days = np.empty(len(stamps), dtype=np.int64)
    prices = np.empty(len(closes))
    for i, (ts, close) in enumerate(zip(stamps, closes)):
        if close is None:
            raise PayloadParseError(f"{asset_id}: null close at index {i}")
        if isinstance(ts, str):
            try:
                days[i] = iso_dates([ts])[0].toordinal()
            except ValueError:
                raise PayloadParseError(f"{asset_id}: bad date {ts!r} at index {i}") from None
        elif isinstance(ts, (int, float)) and not isinstance(ts, bool):
            try:
                days[i] = dt.datetime.fromtimestamp(ts, tz=dt.timezone.utc).date().toordinal()
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
