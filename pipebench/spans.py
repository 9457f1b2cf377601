"""Traced runs: spans around infodrift's public functions, from outside.

Child usage (run.py starts it):
    python spans.py SPANS_PATH RUN_ID cli ARGS...
    python spans.py SPANS_PATH RUN_ID simlong OUT_DIR SEED

The child imports infodrift, replaces each function in ``TARGETS`` with a
wrapper in every infodrift module that holds it (modules import one
another's functions by name, so rebinding only the defining module would
miss calls), then runs the workload. Each call records a span: name, start,
end, parent span and run id, kept in memory in flat arrays and written to
SPANS_PATH (npz) when the workload ends, together with the work counters
the wrappers keep. ``summarize_one`` turns those files into the per-layer
metrics. Nothing in ``src/`` is changed.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from array import array

TARGETS = {
    "ingest": ("load_csv", "align"),
    "stats": ("compute_returns", "correlation_matrix"),
    "measures": ("compute_matrix",),
    "discretize": ("bin_series", "joint_histogram"),
    "kernels": ("joint_counts", "linear_recurrence"),
    "infoflow": ("te_matrix", "mi_matrix", "te_floor_matrix"),
    "kmdrift": ("increment_moments", "solve_drift"),
    "windows": ("evolve",),
    "netout": ("emit",),
    "synth": ("gen_ou", "standard_normals", "gen_coupled_binary"),
}
# spans the child opens itself: the import of the CLI and its whole run
OWN_SPANS = ("cli.import", "cli.main")


class Tracer:
    """In-memory span store plus the work counters kept at the same calls."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.distinct: dict[str, set] = {}

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, name_id: int) -> int:
        span = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(span)
        return span

    def close(self, span: int) -> None:
        self.end[span] = time.perf_counter()
        self.stack.pop()

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def see(self, key: str, item) -> None:
        self.distinct.setdefault(key, set()).add(item)

    def wrap(self, qualname: str, fn, hook=None):
        name_id = self.name_id(qualname)

        def traced(*args, **kwargs):
            span = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        import numpy as np

        meta = {
            "names": self.names,
            "counts": self.counts,
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }
        with open(path, "wb") as fh:
            np.savez(
                fh,
                name=np.frombuffer(self.name, dtype=np.int32),
                parent=np.frombuffer(self.parent, dtype=np.int32),
                start=np.frombuffer(self.start, dtype=np.float64),
                end=np.frombuffer(self.end, dtype=np.float64),
                run=np.full(len(self.start), self.run_id, dtype=np.int32),
                meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            )


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(repr(getattr(a, "shape", None)).encode())
        h.update(a.tobytes() if hasattr(a, "tobytes") else repr(a).encode())
    return h.hexdigest()


# Counter hooks run after the call's span closes; their cost is part of the
# trace overhead, not of any layer's self time.

def _load_csv(t, args, kwargs, result):
    t.add("ingest.rows_parsed", len(result))


def _align(t, args, kwargs, result):
    series = _arg(args, kwargs, 0, "series_list")
    mean_len = sum(len(s) for s in series) / len(series)
    t.add("ingest.align.kept_sum", result.n_dates / mean_len)
    t.add("ingest.align.n", 1)


def _bin_series(t, args, kwargs, result):
    import numpy as np

    t.see("discretize.columns", _digest(np.ascontiguousarray(_arg(args, kwargs, 0, "column"))))


def _joint_histogram(t, args, kwargs, result):
    seqs, lags = _arg(args, kwargs, 0, "seqs"), _arg(args, kwargs, 1, "lags")
    t.add("discretize.codes", len(seqs[0]) - max(lags))


def _joint_counts(t, args, kwargs, result):
    codes, size = _arg(args, kwargs, 0, "codes"), _arg(args, kwargs, 1, "size")
    t.add("kernels.joint_counts.bytes_computed", codes.nbytes + 8 * size)


def _linear_recurrence(t, args, kwargs, result):
    steps, n = _arg(args, kwargs, 1, "noise").shape
    t.add("kernels.linear_recurrence.flops_computed", 2 * steps * n * n)


def _te_matrix(t, args, kwargs, result):
    n = len(_arg(args, kwargs, 0, "seqs"))
    t.add("infoflow.pair_evals", n * n)


def _mi_matrix(t, args, kwargs, result):
    n = len(_arg(args, kwargs, 0, "seqs"))
    t.add("infoflow.pair_evals", n * (n + 1) // 2)


def _te_floor_matrix(t, args, kwargs, result):
    n = len(_arg(args, kwargs, 0, "seqs"))
    t.add("infoflow.shuffles", n * (n - 1) * _arg(args, kwargs, 2, "shuffles", 20))


def _solve_drift(t, args, kwargs, result):
    t.see("kmdrift.systems", _digest(
        _arg(args, kwargs, 0, "cross"), _arg(args, kwargs, 1, "second"),
        _arg(args, kwargs, 2, "dt", 1.0), _arg(args, kwargs, 3, "ridge", 0.0),
    ))


def _emit(t, args, kwargs, result):
    t.add("netout.bytes_written", os.path.getsize(_arg(args, kwargs, 2, "path")))


HOOKS = {
    "ingest.load_csv": _load_csv,
    "ingest.align": _align,
    "discretize.bin_series": _bin_series,
    "discretize.joint_histogram": _joint_histogram,
    "kernels.joint_counts": _joint_counts,
    "kernels.linear_recurrence": _linear_recurrence,
    "infoflow.te_matrix": _te_matrix,
    "infoflow.mi_matrix": _mi_matrix,
    "infoflow.te_floor_matrix": _te_floor_matrix,
    "kmdrift.solve_drift": _solve_drift,
    "netout.emit": _emit,
}


def install(tracer: Tracer) -> None:
    """Wrap every target in every loaded infodrift module."""
    import importlib

    modules = [m for k, m in sorted(sys.modules.items()) if k == "infodrift" or k.startswith("infodrift.")]
    for layer, functions in TARGETS.items():
        home = importlib.import_module(f"infodrift.{layer}")
        for fname in functions:
            qualname = f"{layer}.{fname}"
            original = getattr(home, fname)
            wrapper = tracer.wrap(qualname, original, HOOKS.get(qualname))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)


def _child(argv: list[str]) -> int:
    spans_path, run_id, mode, rest = argv[0], int(argv[1]), argv[2], argv[3:]
    tracer = Tracer(run_id)
    code = 0
    span = tracer.open(tracer.name_id("cli.import"))
    import infodrift  # noqa: F401  (loads every submodule)
    import infodrift.cli

    tracer.close(span)
    install(tracer)
    try:
        if mode == "cli":
            span = tracer.open(tracer.name_id("cli.main"))
            try:
                infodrift.cli.main(args=rest, prog_name="infodrift")
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
            finally:
                tracer.close(span)
        else:
            import simlong

            simlong.run(rest[0], int(rest[1]))
    finally:
        tracer.dump(spans_path)
    return code


# ---------------------------------------------------------------- summary

def _load(path: str):
    import numpy as np

    with np.load(path) as z:
        arrays = {k: z[k] for k in ("name", "parent", "start", "end", "run")}
        meta = json.loads(z["meta"].tobytes().decode())
    return arrays, meta


def summarize_one(path: str, wall_s: float) -> dict:
    """Per-layer metrics of one traced process whose spawn-to-exit wall is known."""
    import numpy as np

    s, meta = _load(path)
    names = meta["names"]
    dur = s["end"] - s["start"]
    child = np.zeros_like(dur)
    has_parent = s["parent"] >= 0
    np.add.at(child, s["parent"][has_parent], dur[has_parent])
    self_s = dur - child
    covered = float(dur[~has_parent].sum())

    out: dict[str, float] = {}
    for layer, functions in TARGETS.items():
        for fname in functions:
            qualname = f"{layer}.{fname}"
            mask = s["name"] == (names.index(qualname) if qualname in names else -1)
            out[f"{qualname}.calls"] = int(mask.sum())
            out[f"{qualname}.self_s"] = float(self_s[mask].sum())
            out[f"{qualname}.total_s"] = float(dur[mask].sum())
    for own in OWN_SPANS:
        mask = s["name"] == (names.index(own) if own in names else -1)
        out[f"{own}.self_s"] = float(self_s[mask].sum())

    counts, distinct = meta["counts"], meta["distinct"]
    for key in ("ingest.rows_parsed", "discretize.codes", "kernels.joint_counts.bytes_computed",
                "kernels.linear_recurrence.flops_computed", "infoflow.pair_evals",
                "infoflow.shuffles", "netout.bytes_written"):
        out[key] = counts.get(key, 0)
    n_align = counts.get("ingest.align.n", 0)
    out["ingest.align.kept_ratio"] = counts["ingest.align.kept_sum"] / n_align if n_align else 0.0
    calls = out["discretize.bin_series.calls"]
    out["discretize.bin_reuse_ratio"] = distinct.get("discretize.columns", 0) / calls if calls else 0.0
    calls = out["kmdrift.solve_drift.calls"]
    out["kmdrift.useful_solve_ratio"] = distinct.get("kmdrift.systems", 0) / calls if calls else 0.0
    pairs = out["infoflow.pair_evals"]
    matrix_s = out["infoflow.te_matrix.total_s"] + out["infoflow.mi_matrix.total_s"]
    out["infoflow.us_per_pair"] = 1e6 * matrix_s / pairs if pairs else 0.0

    # one window = the compute_matrix calls made directly by evolve at the same
    # position of each evolve call (one per measure), summed
    evolve_id = names.index("windows.evolve") if "windows.evolve" in names else -1
    compute_id = names.index("measures.compute_matrix") if "measures.compute_matrix" in names else -1
    per_window: dict[int, float] = {}
    for e in np.flatnonzero(s["name"] == evolve_id):
        inner = np.flatnonzero((s["parent"] == e) & (s["name"] == compute_id))
        for k, span in enumerate(inner):
            per_window[k] = per_window.get(k, 0.0) + float(dur[span])
    window_ms = 1e3 * np.array(list(per_window.values()))
    out["windows.windows"] = len(window_ms)
    out["windows.window_ms.p50"] = float(np.percentile(window_ms, 50)) if len(window_ms) else 0.0
    out["windows.window_ms.p95"] = float(np.percentile(window_ms, 95)) if len(window_ms) else 0.0

    # self times partition the covered time, so layers + uncovered = wall
    if abs(float(self_s.sum()) - covered) > 1e-6:
        raise ValueError(f"{path}: spans do not nest ({float(self_s.sum())} != {covered})")
    out["trace.spans"] = len(dur)
    out["trace.wall_s"] = wall_s
    out["trace.covered_s"] = covered
    out["trace.uncovered_s"] = wall_s - covered
    return out


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1:]))
