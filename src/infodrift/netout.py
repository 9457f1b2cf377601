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
the windowed CSV one window at a time, the windowed SVG one pair row at a
time, and JSON one key or flat list at a time.
"""

from __future__ import annotations

import csv
import datetime as dt
import functools
import io
import json
import os
from dataclasses import dataclass, field
from xml.sax.saxutils import escape

import numpy as np

from .errors import DataValidationError, UnsupportedFormatForShape
from .ingest import DEFAULT_SCHEMA, PriceSeries, write_csv
from .kmdrift import DriftEstimate
from .matrices import InteractionMatrix
from .stats import StatsSummary
from .windows import WindowedResult

SCHEMA_VERSION = 1
_EXTENSIONS = {"json": "json", "csv": "csv", "dot": "dot", "svg_heatmap": "svg"}
FORMATS = tuple(_EXTENSIONS)
# Tables that sit next to a run's networks (the TE surrogate floor, per-asset
# statistics) are written in these formats whatever formats the run asks for.
TABLE_FORMATS = ("json", "csv")
_SIGNED_MEASURES = ("correlation", "km_drift")


@dataclass(frozen=True, eq=False)
class InteractionGraph:
    nodes: tuple[str, ...]
    edges: tuple  # ((from, to, weight), ...)
    directed: bool
    threshold: float
    measure: str = ""

    def __post_init__(self):
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
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    ids, values = m.asset_ids, m.values
    edges = []
    for a, b, i, j in _pairs(m.n, m.directed, keep_self):
        w = float(values[i, j])
        if abs(w) >= threshold:
            edges.append((ids[a], ids[b], w))
    return InteractionGraph(
        nodes=ids, edges=tuple(edges), directed=m.directed,
        threshold=threshold, measure=m.measure,
    )


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        when = dt.datetime.fromtimestamp(int(epoch), tz=dt.timezone.utc)
    else:
        when = dt.datetime.now(tz=dt.timezone.utc)
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


_SCALARS = frozenset({str, int, float, bool, type(None)})


def _write_json(doc, fh) -> None:
    """Write ``json.dumps(doc, indent=2)`` and a newline to ``fh``."""
    _encode(doc, "\n", fh.write)
    fh.write("\n")


@functools.lru_cache(maxsize=None)
def _flat_encoder(inner: str):
    """``json.dumps(lst, separators=("," + inner, ": "))`` as one reused encoder:
    the C encoder, which ``json.dumps`` only uses without indent. Building a
    new one per call would cost about as much as encoding a row of floats."""
    return json.JSONEncoder(separators=("," + inner, ": ")).encode


def _encode(obj, newline: str, write) -> None:
    """Write ``json.dumps(obj, indent=2)`` for ``obj`` at the indent that
    ``newline`` ends with, a piece at a time; a flat list of scalars is one
    piece."""
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        sep = "{" + inner
        for key, value in obj.items():
            # a key that is no str is converted as json.dumps converts it
            write(sep + (json.dumps(key) if isinstance(key, str) else json.dumps({key: 0})[1:-4]) + ": ")
            _encode(value, inner, write)
            sep = "," + inner
        write(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            write("[]")
        elif _SCALARS.issuperset(map(type, obj)):
            write("[" + inner + _flat_encoder(inner)(obj)[1:-1] + newline + "]")
        else:
            sep = "[" + inner
            for value in obj:
                write(sep)
                _encode(value, inner, write)
                sep = "," + inner
            write(newline + "]")
    else:
        write(json.dumps(obj))


def matrix_to_dict(m: InteractionMatrix, config: dict | None = None) -> dict:
    return _document("interaction_matrix", {
        "measure": m.measure,
        "directed": m.directed,
        "units": m.units,
        "asset_ids": list(m.asset_ids),
        "values": m.values.tolist(),
        "params": m.params,
    }, config)


def windowed_to_dict(w: WindowedResult, config: dict | None = None) -> dict:
    first = w.entries[0][4]
    return _document("windowed_result", {
        "measure": w.measure,
        "directed": first.directed,
        "units": first.units,
        "asset_ids": list(first.asset_ids),
        "window_spec": w.spec.describe(),
        "params": w.params,
        "windows": [
            {
                "start": lo,
                "end": hi,
                "start_index": si,
                "end_index": ei,
                "values": matrix.values.tolist(),
                **(
                    {"bin_edges": matrix.params["bin_edges"]}
                    if "bin_edges" in matrix.params
                    else {}
                ),
            }
            for lo, hi, si, ei, matrix in w.entries
        ],
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


def load_matrix_json(path) -> InteractionMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("kind") != "interaction_matrix":
        raise ValueError(f"{path}: not an interaction_matrix document")
    return InteractionMatrix(
        asset_ids=tuple(doc["asset_ids"]),
        values=np.array(doc["values"], dtype=np.float64),
        measure=doc["measure"],
        directed=doc["directed"],
        units=doc["units"],
        params=doc.get("params", {}),
    )


# ---------------------------------------------------------------- CSV

def _csv(fh, tag: str, config: dict | None, **meta):
    """Write the ``#`` header of every CSV file and return a writer for its rows."""
    fh.write(f"# infodrift-{tag} v1\n")
    for key, value in meta.items():
        fh.write(f"# {key}: {value}\n")
    if config is not None:
        fh.write(f"# config: {json.dumps(config, sort_keys=True)}\n")
    return csv.writer(fh)


def _matrix_csv(m: InteractionMatrix, fh, config: dict | None, threshold: float) -> None:
    writer = _csv(fh, "matrix", config, measure=m.measure, directed=str(m.directed).lower(), units=m.units)
    writer.writerow(["asset", *m.asset_ids])
    for i, asset in enumerate(m.asset_ids):
        writer.writerow([asset, *(repr(float(v)) for v in m.values[i])])


def load_matrix_csv(path) -> InteractionMatrix:
    meta = {"measure": "correlation", "directed": "false", "units": "dimensionless"}
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if line.startswith("#"):
                body = line[1:].strip()
                if ":" in body:
                    key, _, value = body.partition(":")
                    meta[key.strip()] = value.strip()
                continue
            if line.strip():
                rows.append(next(csv.reader([line])))
    if not rows:
        raise ValueError(f"{path}: empty matrix csv")
    ids = tuple(rows[0][1:])
    values = np.array([[float(v) for v in row[1:]] for row in rows[1:]], dtype=np.float64)
    return InteractionMatrix(
        asset_ids=ids,
        values=values,
        measure=meta["measure"],
        directed=meta["directed"] == "true",
        units=meta["units"],
    )


_EOL = csv.excel.lineterminator


def _csv_prefix(*fields: str) -> str:
    """``fields`` as ``csv.writer`` writes them in a row, and a comma."""
    buf = io.StringIO()
    csv.writer(buf).writerow(fields)
    return buf.getvalue()[: -len(_EOL)] + ","


def _windowed_csv(w: WindowedResult, fh, config: dict | None, threshold: float) -> None:
    """Long format: every ordered pair of every window, self pairs included,
    written a window at a time."""
    ids = w.entries[0][4].asset_ids
    pairs = list(_pairs(len(ids), directed=True, keep_self=True))
    rows, cols = [i for _, _, i, _ in pairs], [j for _, _, _, j in pairs]
    pair_prefixes = [_csv_prefix(ids[a], ids[b]) for a, b, _, _ in pairs]
    writer = _csv(fh, "windowed", config, measure=w.measure)
    writer.writerow(["window_start", "window_end", "from_asset", "to_asset", "value"])
    for lo, hi, _, _, matrix in w.entries:
        window = _csv_prefix(lo, hi)
        values = matrix.values[rows, cols].tolist()
        fh.write("".join([f"{window}{pair}{v!r}{_EOL}" for pair, v in zip(pair_prefixes, values)]))


def _graph_csv(g: InteractionGraph, fh, config: dict | None, threshold: float) -> None:
    writer = _csv(fh, "graph", config)
    writer.writerow(["from", "to", "weight"])
    for a, b, w in g.edges:
        writer.writerow([a, b, repr(float(w))])


def _stats_csv(s: StatsSummary, fh, config: dict | None, threshold: float) -> None:
    _csv(fh, "stats", config)
    fh.write(",".join(["asset", *_STATS_COLUMNS]) + "\n")
    for asset, *moments in s.rows():
        fh.write(",".join([asset, *(repr(float(v)) for v in moments)]) + "\n")


def _series_csv(s: PriceSeries, fh, config: dict | None, threshold: float) -> None:
    """The file ``ingest.load_csv`` reads, in the run's date and price columns."""
    schema = {key: (config or {}).get(f"{key}_column", name) for key, name in DEFAULT_SCHEMA.items()}
    write_csv(s, fh, schema, None if config is None else f"config: {json.dumps(config, sort_keys=True)}")


# ---------------------------------------------------------------- DOT

def graph_to_dot(g: InteractionGraph, config: dict | None = None) -> str:
    arrow = "->" if g.directed else "--"
    lines = []
    if config is not None:
        lines.append(f"// config: {json.dumps(config, sort_keys=True)}")
    lines.append("digraph G {" if g.directed else "graph G {")
    for node in g.nodes:
        lines.append(f'  "{node}";')
    for a, b, w in g.edges:
        lines.append(f'  "{a}" {arrow} "{b}" [label="{w:.2f}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- SVG

_DIVERGING = ((33, 102, 172), (247, 247, 247), (178, 24, 43))
_SEQUENTIAL = ((255, 255, 255), (8, 48, 107))


def _scale(measure: str, values: np.ndarray) -> tuple[float, float, bool]:
    """(vmin, vmax, diverging): centred on zero for a signed measure, else from min(lowest, 0).
    No values (a single asset's pairs) give a zero-span scale."""
    if not values.size:
        return 0.0, 0.0, measure in _SIGNED_MEASURES
    vmin, vmax = float(values.min()), float(values.max())
    if measure in _SIGNED_MEASURES:
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
        f"<title>{escape(title)}</title>\n"
    )
    if config is not None:
        fh.write(f"<metadata>{escape(json.dumps(config, sort_keys=True))}</metadata>\n")
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
    fh.write(f'<text x="{left}" y="20" font-size="13">{escape(m.measure)} [{escape(m.units)}]</text>\n')
    for j, asset in enumerate(m.asset_ids):
        fh.write(
            f'<text x="{left + j * cell + cell // 2}" y="{top - 8}" font-size="11" '
            f'text-anchor="middle">{escape(asset[:9])}</text>\n'
        )
    for i, asset in enumerate(m.asset_ids):
        fh.write(
            f'<text x="{left - 6}" y="{top + i * cell + cell // 2 + 4}" font-size="11" '
            f'text-anchor="end">{escape(asset[:11])}</text>\n'
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
    first = w.entries[0][4]
    ids, arrow = first.asset_ids, "->" if first.directed else "--"
    pairs = list(_pairs(first.n, first.directed))
    k = len(w.entries)
    cell, left, top = 40, 150, 46
    width = left + k * cell + 24
    height = top + len(pairs) * cell + 56
    rows, cols = [i for _, _, i, _ in pairs], [j for _, _, _, j in pairs]
    pair_vals = w.values_stack()[:, rows, cols].T
    vmin, vmax, diverging = _scale(w.measure, pair_vals)

    _svg_open(fh, width, height, f"{w.measure} evolution", config)
    fh.write(f'<text x="{left}" y="20" font-size="13">{escape(w.measure)} evolution</text>\n')
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
            f'text-anchor="end">{escape(label[:20])}</text>\n'
        )
        args = [y] * (2 * k)
        args[1::2] = _colors(pair_vals[r], vmin, vmax, diverging).tolist()
        fh.write(row % tuple(args))
    first_lo = w.entries[0][0]
    last_hi = w.entries[-1][1]
    fh.write(
        f'<text x="{left}" y="{top + len(pairs) * cell + 16}" font-size="10">'
        f"windows {escape(first_lo)} .. {escape(last_hi)}</text>\n"
    )
    _legend(fh, left, top + len(pairs) * cell + 24, k * cell, vmin, vmax, diverging)
    fh.write("</svg>\n")


def _render(write, obj, config: dict | None) -> str:
    fh = io.StringIO()
    write(obj, fh, config, 0.0)
    return fh.getvalue()


def matrix_to_svg(m: InteractionMatrix, config: dict | None = None) -> str:
    """Self-contained N x N heatmap with value labels and a legend."""
    return _render(_matrix_svg, m, config)


def windowed_to_svg(w: WindowedResult, config: dict | None = None) -> str:
    """Pairs-by-windows heatmap: one row per ordered (or unordered) pair."""
    return _render(_windowed_svg, w, config)


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
    (WindowedResult, "json"): _json(windowed_to_dict),
    (WindowedResult, "csv"): _windowed_csv,
    (WindowedResult, "svg_heatmap"): _windowed_svg,
    (DriftEstimate, "json"): _json(lambda est, config: _document("drift_estimate", est.to_dict(), config)),
    (StatsSummary, "json"): _json(_stats_to_dict),
    (StatsSummary, "csv"): _stats_csv,
    (PriceSeries, "csv"): _series_csv,
    (dict, "json"): lambda doc, fh, config, threshold: _write_json(doc, fh),
}


def emit(obj, fmt: str, path, config: dict | None = None, threshold: float = 0.0) -> None:
    """Write ``obj``, of a shape in ``_WRITERS``, to ``path`` in ``fmt``. A
    write that fails removes the file."""
    write = _WRITERS.get((type(obj), fmt))
    if write is None:
        raise UnsupportedFormatForShape(f"cannot write {type(obj).__name__} as {fmt!r}")
    fh = open(path, "w", encoding="utf-8", newline="")
    try:
        with fh:
            write(obj, fh, config, threshold)
    except BaseException:
        os.unlink(path)
        raise


def emit_all(out_dir, results, config: dict | None = None, threshold: float = 0.0) -> list[str]:
    """Write a run: ``out_dir/config.json`` when ``config`` is given, then
    each ``(stem, obj, formats)`` of ``results`` in order as
    ``<stem>.<extension>`` in each of ``formats`` its shape has, skipping the
    others; a format named twice for one result is written once. Return the
    paths. An unknown format, or two results that map to the same file
    name, is an error raised before any file is written. A
    failed write removes every file this call wrote, so a run leaves all its
    files or none."""
    if config is not None:
        results = [("config", config, ("json",)), *results]
    plan = {}
    for stem, obj, formats in results:
        for fmt in dict.fromkeys(formats):
            if fmt not in FORMATS:
                raise UnsupportedFormatForShape(f"unknown format {fmt!r}; choose from {FORMATS}")
            if (type(obj), fmt) in _WRITERS:
                name = f"{stem}.{_EXTENSIONS[fmt]}"
                if name in plan:
                    raise DataValidationError(f"{stem}: two results would be written to {name}")
                plan[name] = (obj, fmt)
    written = []
    try:
        for name, (obj, fmt) in plan.items():
            path = os.path.join(out_dir, name)
            emit(obj, fmt, path, config, threshold)
            written.append(path)
    except BaseException:
        for path in written:
            if os.path.exists(path):
                os.unlink(path)
        raise
    return written
