"""Serialization of every result and of the run config. ``_WRITERS`` is the
one list of shapes and formats.

JSON and CSV writers print floats with repr, so parse(emit(x)) reproduces the
numbers exactly. Every JSON file is ``json.dumps(doc, indent=2)`` byte for
byte, so non-finite values are written as ``NaN``, ``Infinity`` and
``-Infinity``. SVG heatmaps are assembled from strings with fixed formatting
and carry no wall-clock state, making the bytes a pure function of the input.
The ``generated_at`` stamp honours SOURCE_DATE_EPOCH so archived runs can be
reproduced byte for byte.

Writers write to the open file as they go, never building the whole file:
the windowed JSON and CSV one window at a time, the windowed SVG one pair row
at a time, and other JSON by ``json.dump``. A windowed result's JSON and CSV
are written in one pass that formats each value once.

``emit_all`` writes a run: ``config.json`` in-process, then each result,
all of its files, as one ``kernels.fan_out`` task, so a run's results are
written on every CPU. ``emit`` and ``emit_all`` share one commit step
(``_commit``): the files are written into a fresh hidden directory
(``.infodrift-*``) in the output directory, or in its nearest existing
parent, and are moved into the output directory with ``os.replace`` only
when every one is written. A failed or interrupted write therefore leaves
the output directory as it was, or never creates it. A file that is there
already is replaced, not written through: a symlink is replaced by the new
file, and the old file's mode is not kept.
"""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
import io
import itertools
import json
import math
import os
import re
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError, UnsupportedFormatForShape
from .ingest import DEFAULT_SCHEMA, PriceSeries, check_stem, write_csv
from .kernels import fan_out
from .kmdrift import DriftEstimate
from .matrices import MEASURES, InteractionMatrix, Measured, measure_facts
from .stats import StatsSummary
from .windows import WindowedResult

SCHEMA_VERSION = 1
_EXTENSIONS = {"json": "json", "csv": "csv", "dot": "dot", "svg_heatmap": "svg"}
FORMATS = tuple(_EXTENSIONS)
# Tables that sit next to a run's networks (the TE surrogate floor, per-asset
# statistics) are written in these formats whatever formats the run asks for.
TABLE_FORMATS = ("json", "csv")


def check_threshold(threshold: float) -> None:
    """Refuse a graph threshold that is not a finite number >= 0."""
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValueError(f"threshold: expected a finite number >= 0, got {threshold!r}")


@dataclass(frozen=True, eq=False)
class InteractionGraph(Measured):
    nodes: tuple[str, ...]
    edges: tuple  # ((from, to, weight), ...)
    threshold: float
    measure: str

    def __post_init__(self):
        measure_facts(self.measure)
        check_threshold(self.threshold)
        names = set(self.nodes)
        for src, dst, weight in self.edges:
            if src not in names or dst not in names:
                raise ValueError(f"edge ({src!r}, {dst!r}) references unknown node")
            if abs(weight) < self.threshold:
                raise ValueError(f"edge ({src!r}, {dst!r}) weight {weight} below threshold")


def parse_formats(text: str) -> list[str]:
    """Formats in a comma list, each named as in FORMATS or by its extension."""
    names = {ext: fmt for fmt, ext in _EXTENSIONS.items()} | {fmt: fmt for fmt in FORMATS}
    try:
        return [names[token.strip().lower()] for token in text.split(",")]
    except KeyError as e:
        raise UnsupportedFormatForShape(f"format: unknown format {e.args[0]!r}") from None


def _pairs(n: int, directed: bool, keep_self: bool = False):
    """(from, to, row, col) of each pair in the order of every writer; the
    pair's value is values[row][col]. See ``matrix_to_graph``."""
    for a in range(n):
        for b in range(n) if directed else range(a if keep_self else a + 1, n):
            if a != b or keep_self:
                yield (a, b, b, a) if directed else (a, b, a, b)


def matrix_to_graph(m: InteractionMatrix, threshold: float = 0.0, keep_self: bool = False) -> InteractionGraph:
    """Edges for every entry at or above ``threshold`` in absolute value.

    Directed matrices yield one edge per ordered pair (from j to i for
    values[i][j]); undirected matrices yield each unordered pair once.
    Self-loops are dropped unless ``keep_self``.
    """
    ids, values = m.asset_ids, m.values
    edges = []
    for a, b, i, j in _pairs(m.n, m.directed, keep_self):
        w = float(values[i, j])
        if abs(w) >= threshold:
            edges.append((ids[a], ids[b], w))
    return InteractionGraph(nodes=ids, edges=tuple(edges), threshold=threshold, measure=m.measure)


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        when = dt.datetime.now(tz=dt.timezone.utc)
    else:
        try:
            when = dt.datetime.fromtimestamp(int(epoch), tz=dt.timezone.utc)
        except (ValueError, OverflowError, OSError) as e:
            raise DataValidationError(f"SOURCE_DATE_EPOCH: {e}") from None
    return when.replace(microsecond=0).isoformat()


# ---------------------------------------------------------------- JSON

def _document(kind: str, body: dict, config: dict | None, stamped: bool = True) -> dict:
    """The envelope of every JSON file; statistics files carry no time stamp."""
    doc = {"schema_version": SCHEMA_VERSION, "kind": kind, **body}
    if stamped:
        doc["generated_at"] = _timestamp()
    if config is not None:
        doc["config"] = config
    return doc


def _write_json(doc, fh) -> None:
    """Write ``json.dumps(doc, indent=2)`` and a newline to ``fh``."""
    json.dump(doc, fh, indent=2)
    fh.write("\n")


def _json_list(texts, newline: str) -> str:
    """``json.dumps(lst, indent=2)`` at the indent that ``newline`` ends with,
    for a list whose items are given as their JSON ``texts``."""
    if not texts:
        return "[]"
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(texts) + newline + "]"


def _json_object(members: dict, newline: str) -> str:
    """``json.dumps(obj, indent=2)`` at the indent that ``newline`` ends with,
    for a dict given as {str key: the JSON text of its value}."""
    if not members:
        return "{}"
    inner = newline + "  "
    return "{" + inner + ("," + inner).join(f"{json.dumps(k)}: {v}" for k, v in members.items()) + newline + "}"


_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_texts(texts: list[str], values) -> list[str]:
    """``texts``, the repr of each float of the float64 array ``values``, as
    JSON writes them: ``NaN``, ``Infinity`` and ``-Infinity`` where not finite."""
    return texts if np.isfinite(values).all() else [_JSON_NON_FINITE.get(t, t) for t in texts]


def matrix_to_dict(m: InteractionMatrix, config: dict | None = None) -> dict:
    return _document("interaction_matrix", {
        "measure": m.measure,
        "directed": m.directed,
        "units": m.units,
        "asset_ids": list(m.asset_ids),
        "values": m.values.tolist(),
        "params": m.params,
    }, config)


def graph_to_dict(g: InteractionGraph, config: dict | None = None) -> dict:
    return _document("interaction_graph", {
        "measure": g.measure,
        "directed": g.directed,
        "threshold": g.threshold,
        "nodes": list(g.nodes),
        "edges": [{"from": a, "to": b, "weight": w} for a, b, w in g.edges],
    }, config)


_STATS_COLUMNS = ("mean", "std", "skewness", "excess_kurtosis")


def _stats_to_dict(s: StatsSummary, config: dict | None) -> dict:
    rows = [{"asset": asset, **dict(zip(_STATS_COLUMNS, map(float, moments)))} for asset, *moments in s.rows()]
    return _document("stats_summary", {"params": s.params, "rows": rows}, config, stamped=False)


def _loaded_matrix(path, doc: dict) -> InteractionMatrix:
    """The InteractionMatrix of a matrix file read as ``doc``. A file that
    makes none (a member missing or of the wrong type, a measure not in MEASURES,
    a ``directed`` or ``units`` not its measure's, a null value) raises ValueError naming ``path``."""
    missing = [key for key in ("asset_ids", "values", "measure") if key not in doc]
    if missing:
        raise ValueError(f"{path}: no {missing[0]!r} member")
    measure, params = doc["measure"], doc.get("params", {})
    try:
        facts = measure_facts(measure)
        for key, own in (("directed", facts.directed), ("units", facts.units)):
            if doc.get(key, own) != own:
                raise ValueError(f"{key} {doc[key]!r} contradicts {measure}, whose {key} is {own!r}")
        if not isinstance(doc["asset_ids"], list) or not all(isinstance(i, str) for i in doc["asset_ids"]):
            raise TypeError(f"asset_ids must be a list of str, got {doc['asset_ids']!r}")
        if not isinstance(params, dict):
            raise TypeError(f"params must be an object, got {params!r}")
        if None in np.asarray(doc["values"], object):  # a JSON null, which no writer writes
            raise ValueError("values must be numbers, got null")
        return InteractionMatrix(tuple(doc["asset_ids"]), np.asarray(doc["values"], float), measure, params)
    except (TypeError, ValueError) as e:
        raise ValueError(f"{path}: {e}") from None


def load_matrix_json(path) -> InteractionMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("kind") != "interaction_matrix":
        raise ValueError(f"{path}: not an interaction_matrix document")
    return _loaded_matrix(path, doc)


# ---------------------------------------------------------------- CSV

def _csv(fh, tag: str, config: dict | None, meta: dict | None = None):
    """Write the ``#`` header of every CSV file and return a writer for its rows."""
    fh.write(f"# infodrift-{tag} v1\n")
    for key, value in (meta or {}).items():
        fh.write(f"# {key}: {value}\n")
    if config is not None:
        fh.write(f"# config: {json.dumps(config, sort_keys=True)}\n")
    return csv.writer(fh)


def _matrix_csv(m: InteractionMatrix, fh, config: dict | None, threshold: float) -> None:
    writer = _csv(fh, "matrix", config, {"measure": m.measure, "directed": str(m.directed).lower(), "units": m.units})
    writer.writerow(["asset", *m.asset_ids])
    for i, asset in enumerate(m.asset_ids):
        writer.writerow([asset, *(repr(float(v)) for v in m.values[i])])


def load_matrix_csv(path) -> InteractionMatrix:
    """The matrix of a ``_matrix_csv`` file; without a ``# measure:`` line it is
    correlation, without ``# directed:`` or ``# units:`` its measure's."""
    meta = {"measure": "correlation"}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        # the leading "#" lines are the header; a row's quoted id may start
        # with "#" or hold a line break, which only csv.reader reads back
        line = fh.readline()
        while line.startswith("#"):
            key, colon, value = line[1:].partition(":")
            if colon:
                meta[key.strip()] = value.strip()
            line = fh.readline()
        rows = [row for row in csv.reader(itertools.chain([line], fh)) if row]
    if not rows:
        raise ValueError(f"{path}: empty matrix csv")
    if "directed" in meta:
        meta["directed"] = {"true": True, "false": False}.get(meta["directed"], meta["directed"])
    return _loaded_matrix(path, {**meta, "asset_ids": rows[0][1:], "values": [r[1:] for r in rows[1:]], "params": {}})


_EOL = csv.excel.lineterminator


def _csv_row(*fields: str) -> str:
    """``fields`` as ``csv.writer`` writes them in a row, without its line ending."""
    buf = io.StringIO()
    csv.writer(buf).writerow(fields)
    return buf.getvalue()[: -len(_EOL)]


def _edge_texts(w: WindowedResult):
    """Yield each window's bin edges as one list of JSON texts per asset.
    Overlapping windows share most quantile edges, so each distinct float64
    bit pattern is formatted once (by bits, not by value: -0.0 and 0.0 are
    two texts, and NaN equals no float). The distinct texts sit in one object
    array, which is indexed one window at a time. The distinct patterns are
    those of one sorted copy of the bits, let go before each edge's index
    among them is searched: about one copy of the edges is held at a time."""
    bits = w.edges.view(np.int64)
    distinct = np.sort(bits, axis=None)
    distinct = np.concatenate((distinct[:1], distinct[1:][distinct[1:] != distinct[:-1]]))
    where = np.searchsorted(distinct, bits)
    distinct = distinct.view(np.float64)
    texts = np.array(_json_texts(list(map(repr, distinct.tolist())), distinct), dtype=object)
    for window in where:
        yield texts[window].tolist()


def _windowed(w: WindowedResult, config: dict | None, json_fh=None, csv_fh=None) -> None:
    """Write the windowed JSON to ``json_fh`` and the long CSV to ``csv_fh``,
    either of them None, one window at a time, so no whole document is held.

    Each value is formatted once, by repr: the JSON rows hold those texts
    (``NaN``, ``Infinity`` and ``-Infinity`` for non-finite values) and the
    CSV, every ordered pair of every window with self pairs included, holds
    them in ``_pairs`` order. The JSON is ``json.dumps(doc, indent=2)`` of the
    document with a ``windows`` list of {start, end, start_index, end_index,
    values, bin_edges (where the result has them)}; its other members are
    ``json.dumps`` texts, and each window is assembled from its value texts.
    """
    ids = w.asset_ids
    n = len(ids)
    if csv_fh is not None:
        pairs = list(_pairs(n, directed=True, keep_self=True))
        order = [i * n + j for _, _, i, j in pairs]
        prefixes = [_csv_row(ids[a], ids[b]) + "," for a, b, _, _ in pairs]
        writer = _csv(csv_fh, "windowed", config, {"measure": w.measure})
        writer.writerow(["window_start", "window_end", "from_asset", "to_asset", "value"])
    if json_fh is not None:
        doc = _document("windowed_result", {
            "measure": w.measure,
            "directed": w.directed,
            "units": w.units,
            "asset_ids": list(ids),
            "window_spec": w.spec.describe(),
            "params": w.params,
            "windows": None,
        }, config)
        # json.dumps escapes every newline and NUL in a string: a member's text
        # moves one level in by its newlines, and the windows go where the NUL is
        members = {key: json.dumps(value, indent=2).replace("\n", "\n  ") for key, value in doc.items()}
        sep, tail = _json_object({**members, "windows": _json_list(["\x00"], "\n  ")}, "\n").split("\x00")
    edge_texts = _edge_texts(w) if json_fh is not None and w.edges is not None else itertools.repeat(None)
    for (lo, hi), (si, ei), values, edges in zip(w.labels, w.bounds.tolist(), w.values, edge_texts):
        values = values.ravel()
        found = list(map(repr, values.tolist()))
        if csv_fh is not None:
            label = _csv_row(lo, hi) + ","
            csv_fh.write("".join([f"{label}{pair}{found[k]}{_EOL}" for pair, k in zip(prefixes, order)]))
        if json_fh is not None:
            found = _json_texts(found, values)
            rows = [_json_list(found[i * n : (i + 1) * n], "\n        ") for i in range(n)]
            window = {
                "start": json.dumps(lo),
                "end": json.dumps(hi),
                "start_index": json.dumps(si),
                "end_index": json.dumps(ei),
                "values": _json_list(rows, "\n      "),
            }
            if edges is not None:
                edges = {asset: _json_list(e, "\n        ") for asset, e in zip(ids, edges)}
                window["bin_edges"] = _json_object(edges, "\n      ")
            json_fh.write(sep + _json_object(window, "\n    "))
            sep = ",\n    "
    if json_fh is not None:
        json_fh.write(tail + "\n")


def _graph_csv(g: InteractionGraph, fh, config: dict | None, threshold: float) -> None:
    writer = _csv(fh, "graph", config)
    writer.writerow(["from", "to", "weight"])
    for a, b, w in g.edges:
        writer.writerow([a, b, repr(float(w))])


def _stats_csv(s: StatsSummary, fh, config: dict | None, threshold: float) -> None:
    # rows end in \n, quoted as the default dialect quotes them: a \r too
    _csv(fh, "stats", config)
    fh.write(_csv_row("asset", *_STATS_COLUMNS) + "\n")
    for asset, *moments in s.rows():
        fh.write(_csv_row(asset, *(repr(float(v)) for v in moments)) + "\n")


def _series_csv(s: PriceSeries, fh, config: dict | None, threshold: float) -> None:
    """The file ``ingest.load_csv`` reads, in the run's date and price columns."""
    schema = {key: (config or {}).get(f"{key}_column", name) for key, name in DEFAULT_SCHEMA.items()}
    write_csv(s, fh, schema, None if config is None else f"config: {json.dumps(config, sort_keys=True)}")


# ---------------------------------------------------------------- DOT

def _dot_id(name: str) -> str:
    """``name`` as a quoted DOT ID: ``\\"`` is the only escape Graphviz reads in one,
    so a trailing backslash would escape the closing quote and is refused."""
    if name.endswith("\\"):
        raise UnsupportedFormatForShape(f"{name}: a DOT ID cannot end in a backslash")
    return '"' + name.replace('"', '\\"') + '"'


def graph_to_dot(g: InteractionGraph, config: dict | None = None) -> str:
    arrow = "->" if g.directed else "--"
    lines = []
    if config is not None:
        lines.append(f"// config: {json.dumps(config, sort_keys=True)}")
    lines.append("digraph G {" if g.directed else "graph G {")
    for node in g.nodes:
        lines.append(f"  {_dot_id(node)};")
    for a, b, w in g.edges:
        lines.append(f'  {_dot_id(a)} {arrow} {_dot_id(b)} [label="{w:.2f}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- SVG

# Code points outside the XML 1.0 Char production, which no escape can write:
# C0 controls but tab, LF and CR, surrogates, U+FFFE and U+FFFF.
_NOT_XML_CHAR = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _escape(text: str) -> str:
    """``text`` with ``&``, ``>`` and ``<`` written as entities, in the order
    ``xml.sax.saxutils.escape`` replaces them; importing that module would
    import ``urllib.request``, which no run needs. Text that holds a code
    point XML cannot hold is refused."""
    bad = _NOT_XML_CHAR.search(text)
    if bad:
        raise UnsupportedFormatForShape(f"{text!r}: SVG text cannot hold {bad.group()!r}")
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


_DIVERGING = ((33, 102, 172), (247, 247, 247), (178, 24, 43))
_SEQUENTIAL = ((255, 255, 255), (8, 48, 107))


def _scale(measure: str, values: np.ndarray) -> tuple[float, float, bool]:
    """(vmin, vmax, diverging): centred on zero for a signed measure, else from min(lowest, 0).
    No values (a single asset's pairs) give a zero-span scale."""
    if not values.size:
        return 0.0, 0.0, MEASURES[measure].signed
    vmin, vmax = float(values.min()), float(values.max())
    if MEASURES[measure].signed:
        limit = max(abs(vmin), abs(vmax))
        return -limit, limit, True
    return min(vmin, 0.0), vmax, False


def _colors(values, vmin: float, vmax: float, diverging: bool) -> np.ndarray:
    """The fill of each value as an int ``0xRRGGBB``, in the shape of ``values``.

    A value's position t on the scale is clamped to [0, 1], or to [-1, 1] when
    diverging, the way Python's ``max(lo, min(1.0, t))`` clamps it, which
    sends a NaN to 1.0 where ``np.clip`` would keep it. Each channel is
    ``a + (b - a) * |t|`` between the scale's colours, rounded half to even
    as ``round`` rounds it.
    """
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(all="ignore"):  # inf and NaN behave as in Python float arithmetic
        if diverging:
            t = values / max(abs(vmin), abs(vmax), 1e-300)
            lo = -1.0
        else:
            span = vmax - vmin
            t = np.zeros_like(values) if span <= 0 else (values - vmin) / span
            lo = 0.0
        t = np.where(t < 1.0, t, 1.0)
        t = np.where(t > lo, t, lo)
        if diverging:
            negative = t < 0
            start = np.array(_DIVERGING[1])
            end = np.where(negative[..., None], _DIVERGING[0], _DIVERGING[2])
            t = np.where(negative, -t, t)
        else:
            start, end = np.array(_SEQUENTIAL)
        rgb = np.rint(start + (end - start) * t[..., None]).astype(np.int64)
    return (rgb[..., 0] << 16) | (rgb[..., 1] << 8) | rgb[..., 2]


def _svg_open(fh, width: int, height: int, title: str, config: dict | None) -> None:
    fh.write(
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace">\n'
        f"<title>{_escape(title)}</title>\n"
    )
    if config is not None:
        fh.write(f"<metadata>{_escape(json.dumps(config, sort_keys=True))}</metadata>\n")
    fh.write(f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>\n')


def _legend(fh, x: int, y: int, width: int, vmin: float, vmax: float, diverging: bool) -> None:
    steps = 32
    sw = max(1, width // steps)
    fills = _colors([vmin + (vmax - vmin) * (k + 0.5) / steps for k in range(steps)], vmin, vmax, diverging)
    for k, fill in enumerate(fills.tolist()):
        fh.write(f'<rect x="{x + k * sw}" y="{y}" width="{sw}" height="10" fill="#{fill:06x}"/>\n')
    fh.write(f'<text x="{x}" y="{y + 24}" font-size="11">{vmin:.4g}</text>\n')
    fh.write(f'<text x="{x + steps * sw}" y="{y + 24}" font-size="11" text-anchor="end">{vmax:.4g}</text>\n')


def _matrix_svg(m: InteractionMatrix, fh, config: dict | None, threshold: float) -> None:
    n = m.n
    cell, left, top = 64, 96, 56
    width = left + n * cell + 24
    height = top + n * cell + 56
    vmin, vmax, diverging = _scale(m.measure, m.values)
    fills = _colors(m.values, vmin, vmax, diverging)

    _svg_open(fh, width, height, f"{m.measure} ({m.units})", config)
    fh.write(f'<text x="{left}" y="20" font-size="13">{_escape(m.measure)} [{_escape(m.units)}]</text>\n')
    for j, asset in enumerate(m.asset_ids):
        fh.write(
            f'<text x="{left + j * cell + cell // 2}" y="{top - 8}" font-size="11" '
            f'text-anchor="middle">{_escape(asset[:9])}</text>\n'
        )
    for i, asset in enumerate(m.asset_ids):
        fh.write(
            f'<text x="{left - 6}" y="{top + i * cell + cell // 2 + 4}" font-size="11" '
            f'text-anchor="end">{_escape(asset[:11])}</text>\n'
        )
        for j, (v, fill) in enumerate(zip(m.values[i].tolist(), fills[i].tolist())):
            x, y = left + j * cell, top + i * cell
            fh.write(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="#{fill:06x}" stroke="#808080" stroke-width="1"/>\n'
                f'<text x="{x + cell // 2}" y="{y + cell // 2 + 4}" font-size="11" '
                f'text-anchor="middle">{v:.3g}</text>\n'
            )
    _legend(fh, left, top + n * cell + 14, n * cell, vmin, vmax, diverging)
    fh.write("</svg>\n")


def _windowed_svg(w: WindowedResult, fh, config: dict | None, threshold: float) -> None:
    """Pairs-by-windows heatmap: one row per ordered (or unordered) pair,
    written a row at a time."""
    ids, arrow = w.asset_ids, "->" if w.directed else "--"
    pairs = list(_pairs(len(ids), w.directed))
    k = len(w.values)
    cell, left, top = 40, 150, 46
    width = left + k * cell + 24
    height = top + len(pairs) * cell + 56
    rows, cols = [i for _, _, i, _ in pairs], [j for _, _, _, j in pairs]
    pair_vals = w.values[:, rows, cols].T
    vmin, vmax, diverging = _scale(w.measure, pair_vals)

    _svg_open(fh, width, height, f"{w.measure} evolution", config)
    fh.write(f'<text x="{left}" y="20" font-size="13">{_escape(w.measure)} evolution</text>\n')
    xs = [left + t * cell for t in range(k)]
    fh.write("".join(
        f'<text x="{x + cell // 2}" y="{top - 8}" font-size="10" text-anchor="middle">w{t}</text>\n'
        for t, x in enumerate(xs)
    ))
    # the cells of one row, to be %-formatted with (y, fill) per cell
    row = "".join(
        f'<rect x="{x}" y="%d" width="{cell}" height="{cell}" '
        f'fill="#%06x" stroke="#808080" stroke-width="1"/>\n'
        for x in xs
    )
    for r, (a, b, _, _) in enumerate(pairs):
        y = top + r * cell
        label = f"{ids[a]}{arrow}{ids[b]}"
        fh.write(
            f'<text x="{left - 6}" y="{y + cell // 2 + 4}" font-size="10" '
            f'text-anchor="end">{_escape(label[:20])}</text>\n'
        )
        args = [y] * (2 * k)
        args[1::2] = _colors(pair_vals[r], vmin, vmax, diverging).tolist()
        fh.write(row % tuple(args))
    fh.write(
        f'<text x="{left}" y="{top + len(pairs) * cell + 16}" font-size="10">'
        f"windows {_escape(w.labels[0][0])} .. {_escape(w.labels[-1][1])}</text>\n"
    )
    _legend(fh, left, top + len(pairs) * cell + 24, k * cell, vmin, vmax, diverging)
    fh.write("</svg>\n")


# ---------------------------------------------------------------- emit

def _json(to_dict):
    return lambda obj, fh, config, threshold: _write_json(to_dict(obj, config), fh)


# (shape, format) -> writer(obj, fh, config, threshold). A matrix asked for as
# dot is written as its graph at the threshold; no other writer uses it.
_WRITERS = {
    (InteractionMatrix, "json"): _json(matrix_to_dict),
    (InteractionMatrix, "csv"): _matrix_csv,
    (InteractionMatrix, "dot"): lambda m, fh, config, threshold: fh.write(
        graph_to_dot(matrix_to_graph(m, threshold), config)
    ),
    (InteractionMatrix, "svg_heatmap"): _matrix_svg,
    (InteractionGraph, "json"): _json(graph_to_dict),
    (InteractionGraph, "csv"): _graph_csv,
    (InteractionGraph, "dot"): lambda g, fh, config, threshold: fh.write(graph_to_dot(g, config)),
    (WindowedResult, "json"): lambda w, fh, config, threshold: _windowed(w, config, json_fh=fh),
    (WindowedResult, "csv"): lambda w, fh, config, threshold: _windowed(w, config, csv_fh=fh),
    (WindowedResult, "svg_heatmap"): _windowed_svg,
    (DriftEstimate, "json"): _json(lambda est, config: _document("drift_estimate", est.to_dict(), config)),
    (StatsSummary, "json"): _json(_stats_to_dict),
    (StatsSummary, "csv"): _stats_csv,
    (PriceSeries, "csv"): _series_csv,
    (dict, "json"): lambda doc, fh, config, threshold: _write_json(doc, fh),
}


def _write(obj, files: dict, config: dict | None, threshold: float) -> None:
    """Write ``obj`` to each ``{fmt: path}`` of ``files``, formats its shape
    has: a windowed result's JSON and CSV in one pass, every other file by
    its writer."""
    with contextlib.ExitStack() as stack:
        sinks = {fmt: stack.enter_context(open(path, "w", encoding="utf-8", newline=""))
                 for fmt, path in files.items()}
        if type(obj) is WindowedResult and {"json", "csv"} <= sinks.keys():
            _windowed(obj, config, sinks.pop("json"), sinks.pop("csv"))
        for fmt, fh in sinks.items():
            _WRITERS[(type(obj), fmt)](obj, fh, config, threshold)


def _commit(out_dir, plan, config: dict | None, threshold: float, in_process: int) -> list[str]:
    """Write each ``(obj, {fmt: file name})`` of ``plan`` into a fresh hidden
    directory, the first ``in_process`` in this process and each other one
    as a ``fan_out`` task; then create ``out_dir`` and move every file into
    it, in plan order, and return their paths. The hidden directory goes in
    ``out_dir``, or in its nearest existing parent, and is always removed,
    so a failed or interrupted write leaves ``out_dir`` as it was."""
    names = [name for _, files in plan for name in files.values()]
    paths = [os.path.join(out_dir, name) for name in names]
    parent = os.path.abspath(out_dir)
    while not os.path.isdir(parent):
        parent = os.path.dirname(parent)
    stage = tempfile.mkdtemp(prefix=".infodrift-", dir=parent)
    try:

        def write(k):
            obj, files = plan[k]
            _write(obj, {fmt: os.path.join(stage, name) for fmt, name in files.items()}, config, threshold)

        for k in range(in_process):
            write(k)
        fan_out(lambda k: write(in_process + k), len(plan) - in_process)
        os.makedirs(out_dir, exist_ok=True)
        for path in paths:
            if os.path.isdir(path):
                raise DataValidationError(f"{path}: is a directory")
        for name, path in zip(names, paths):
            os.replace(os.path.join(stage, name), path)
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    return paths


def emit(obj, fmt: str, path, config: dict | None = None, threshold: float = 0.0) -> None:
    """Write ``obj``, of a shape in ``_WRITERS``, to ``path`` in ``fmt``,
    creating its directory. A write that fails leaves ``path`` as it was."""
    if (type(obj), fmt) not in _WRITERS:
        raise UnsupportedFormatForShape(f"cannot write {type(obj).__name__} as {fmt!r}")
    out_dir, name = os.path.split(os.fspath(path))
    _commit(out_dir or os.curdir, [(obj, {fmt: name})], config, threshold, 1)


def emit_all(out_dir, results, config: dict | None = None, threshold: float = 0.0) -> list[str]:
    """Write a run: ``out_dir/config.json`` when ``config`` is given, then
    each ``(stem, obj, formats)`` of ``results`` as ``<stem>.<extension>`` in
    each of ``formats`` its shape has, skipping the others; a format named
    twice for one result is written once. Return the paths, in that order.
    An unknown format, a stem that holds a path separator, or two results
    that map to the same file name, is an error raised before any file is
    written.

    ``config.json`` is written in-process and each result with a file to
    write, all of its files, is one ``fan_out`` task, so a one-result run
    forks nothing. The run is committed to ``out_dir`` only once every file
    is written (``_commit``): a run leaves all its files or changes nothing.
    """
    plan, names = [], set()  # (obj, {fmt: file name}) of each result with a file to write
    if config is not None:
        results = [("config", config, ("json",)), *results]
    for stem, obj, formats in results:
        check_stem(stem)
        files = {}
        for fmt in dict.fromkeys(formats):
            if fmt not in FORMATS:
                raise UnsupportedFormatForShape(f"unknown format {fmt!r}; choose from {FORMATS}")
            if (type(obj), fmt) in _WRITERS:
                name = f"{stem}.{_EXTENSIONS[fmt]}"
                if name in names:
                    raise DataValidationError(f"{stem}: two results would be written to {name}")
                names.add(name)
                files[fmt] = name
        if files:
            plan.append((obj, files))
    return _commit(out_dir, plan, config, threshold, int(config is not None))
