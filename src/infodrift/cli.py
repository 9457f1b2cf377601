"""Command-line front end: ingestion -> estimators -> serialized outputs.

Every run is driven by a RunConfig assembled from an optional JSON config
file plus flag overrides (flags win). The exact config is embedded in every
output file and written to ``<out>/config.json``, so a run can be reproduced
from its own artifacts. Each command computes all of its results first;
``netout.emit_all`` then writes them and config.json and commits them to
``--out`` together, so a failed run changes nothing there. Exit codes: 0
success, 2 usage, validation or file failure (a bad SOURCE_DATE_EPOCH, or a
lag that leaves no samples, among them), 3 runtime estimator or fetch
failure. Logs go to stderr, data only to files.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import json
import logging
import sys
from dataclasses import dataclass

import click
import numpy as np

from . import ingest, netout, synth
from .discretize import STRATEGIES
from .errors import DataValidationError, EstimatorError, InfodriftError, TooFewSamples
from .infoflow import te_floor_matrix
from .measures import canonical_measure, evaluate
from .stats import RETURN_KINDS, compute_returns, describe
from .windows import WindowSpec, evolve

log = logging.getLogger("infodrift")

CONFIG_VERSION = 1


@dataclass
class RunConfig:
    inputs: list[str] = dataclasses.field(default_factory=list)
    return_kind: str = "log"
    bins: int = 8
    strategy: str = "quantile"
    dt: int = 1
    windows: str = "segmented:10"
    measures: list[str] = dataclasses.field(default_factory=lambda: ["correlation"])
    threshold: float = 0.0
    out_dir: str = "out"
    seed: int = 0
    formats: list[str] = dataclasses.field(default_factory=lambda: list(netout.FORMATS))
    surrogates: int = 0
    date_column: str = ingest.DEFAULT_SCHEMA["date"]
    price_column: str = ingest.DEFAULT_SCHEMA["price"]

    @property
    def schema(self) -> dict:
        """The input CSV columns, keyed as ``ingest.DEFAULT_SCHEMA``."""
        return {"date": self.date_column, "price": self.price_column}

    def to_dict(self) -> dict:
        doc = {"config_version": CONFIG_VERSION}
        doc.update(dataclasses.asdict(self))
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        doc = dict(doc)
        version = doc.pop("config_version", CONFIG_VERSION)
        if type(version) is not int or version != CONFIG_VERSION:  # True == 1, and 1.0 == 1
            raise DataValidationError(f"config_version: expected {CONFIG_VERSION}, got {version!r}")
        defaults = dataclasses.asdict(cls())
        unknown = set(doc) - set(defaults)
        if unknown:
            raise DataValidationError(f"unknown config fields: {sorted(unknown)}")
        for name, value in doc.items():
            kind = type(defaults[name])  # a bool is no int, an int is a float, a list holds str
            if kind is list:
                ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
            else:
                ok = type(value) in ((int, float) if kind is float else (kind,))
            if not ok:
                expected = "list of str" if kind is list else kind.__name__
                raise DataValidationError(f"{name}: expected {expected}, got {value!r}")
        if not set(doc.get("formats", ())) <= set(netout.FORMATS):
            raise DataValidationError(f"formats: expected a list drawn from {netout.FORMATS}, got {doc['formats']!r}")
        for name, allowed in (("strategy", STRATEGIES), ("return_kind", RETURN_KINDS)):
            if name in doc and doc[name] not in allowed:
                raise DataValidationError(f"{name}: expected one of {allowed}, got {doc[name]!r}")
        if "windows" in doc:
            try:
                WindowSpec.parse(doc["windows"])
            except ValueError as e:
                raise DataValidationError(f"windows: {e}") from None
        for name, least in (("bins", 2), ("dt", 1), ("seed", 0)):
            if doc.get(name, least) < least:
                raise DataValidationError(f"{name}: expected an integer >= {least}, got {doc[name]!r}")
        netout.check_threshold(doc.get("threshold", 0.0))  # main exits 2 on its ValueError
        if doc.get("out_dir") == "":
            raise DataValidationError("out_dir: expected a directory path, got ''")
        if doc.get("surrogates", 0) < 0:
            raise DataValidationError("surrogates must be >= 0")
        return cls(**doc)


def _load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise DataValidationError(f"config {path}: {e}") from None
    if not isinstance(doc, dict):
        raise DataValidationError(f"config {path}: expected a JSON object, got {type(doc).__name__}")
    return RunConfig.from_dict(doc)


# every option but --config and -v is named after the RunConfig field it overrides
@click.group()
@click.option("--config", "config_path", type=click.Path(), default=None, help="JSON config file.")
@click.option("--out", "out_dir", default=None, help="Output directory.")
@click.option("--format", "formats", default=None, help="Comma list of json,csv,dot,svg.")
@click.option("--seed", type=int, default=None, help="Seed for surrogates and simulation.")
@click.option("--bins", type=int, default=None, help="Histogram bin count B.")
@click.option("--strategy", type=click.Choice(STRATEGIES), default=None)
@click.option("--return-kind", type=click.Choice(RETURN_KINDS), default=None)
@click.option("--dt", type=int, default=None, help="Estimator lag in steps.")
@click.option("--windows", default=None, help="segmented:K or sliding:LENGTH:STRIDE.")
@click.option("--threshold", type=float, default=None, help="Graph edge threshold.")
@click.option("--surrogates", type=int, default=None, help="Surrogate shuffles for the TE floor.")
@click.option("-v", "--verbose", is_flag=True, default=False)
@click.pass_context
def main(ctx, config_path, verbose, **flags):
    """Interaction-network estimation for multi-asset time series."""
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        loaded = _load_config(config_path)  # checked alone first: a flag does not hide its faults
        if flags["formats"] is not None:
            flags["formats"] = netout.parse_formats(flags["formats"])
        given = {name: value for name, value in flags.items() if value is not None}
        ctx.obj = RunConfig.from_dict({**loaded.to_dict(), **given})
    except (DataValidationError, ValueError) as e:
        _fail(2, str(e))


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_panel(cfg: RunConfig):
    if not cfg.inputs:
        raise DataValidationError("inputs: no input series")
    panel = ingest.align(ingest.load_csvs(cfg.inputs, cfg.schema))
    return compute_returns(panel, kind=cfg.return_kind)


def _measure_names(cfg: RunConfig) -> list[str]:
    if not cfg.measures:
        raise DataValidationError("measures: at least one measure required")
    try:  # a repeated measure, under any of its names, runs once
        return list(dict.fromkeys(canonical_measure(name) for name in cfg.measures))
    except ValueError as e:
        raise DataValidationError(f"measures: {e}") from None


def _run(compute, cfg: RunConfig, inputs=(), measures: str | None = None):
    """Apply the command's inputs and measures to ``cfg``, compute the run's results, then
    write config.json and every result to ``--out``, or nothing; map errors to exit codes."""
    if inputs:
        cfg.inputs = list(inputs)
    if measures is not None:
        cfg.measures = [m.strip() for m in measures.split(",") if m.strip()]
    try:
        written = netout.emit_all(cfg.out_dir, compute(), cfg.to_dict(), cfg.threshold)
        log.info("wrote %d files to %s", len(written), cfg.out_dir)
    except (DataValidationError, ValueError, OSError) as e:
        _fail(2, str(e))
    except InfodriftError as e:
        _fail(3, str(e))


@main.command()
@click.argument("inputs", nargs=-1, type=click.Path())
@click.pass_obj
def stats(cfg: RunConfig, inputs):
    """Per-asset descriptive statistics of returns (CSV + JSON)."""

    def compute():
        return [("stats", describe(_load_panel(cfg)), netout.TABLE_FORMATS)]

    _run(compute, cfg, inputs)


@main.command()
@click.argument("inputs", nargs=-1, type=click.Path())
@click.option("--measures", default=None, help="Comma list: corr,mi,te,km.")
@click.pass_obj
def analyze(cfg: RunConfig, inputs, measures):
    """Full-sample interaction matrices for the requested measures."""

    def compute():
        names = _measure_names(cfg)
        returns = _load_panel(cfg)
        results = []
        for name in names:
            try:
                matrix, basis = evaluate(returns, name, cfg.bins, cfg.strategy, cfg.dt)
                results.append((name, matrix, cfg.formats))
                if name == "km_drift":
                    results.append(("km_drift_estimate", basis, cfg.formats))
                if name == "transfer_entropy" and cfg.surrogates > 0:
                    floor = te_floor_matrix(basis[0], cfg.bins, dt=cfg.dt, shuffles=cfg.surrogates,
                                            seed=cfg.seed, asset_ids=returns.asset_ids)
                    results.append(("transfer_entropy_floor", floor, netout.TABLE_FORMATS))
            except (EstimatorError, TooFewSamples) as e:
                raise type(e)(f"{name}: {e}") from e
            basis = None  # a measure's binned columns do not outlive it
            log.info("measure %s done", name)
        return results

    _run(compute, cfg, inputs, measures)


@main.command("evolve")
@click.argument("inputs", nargs=-1, type=click.Path())
@click.option("--measures", default=None, help="Comma list: corr,mi,te,km.")
@click.pass_obj
def evolve_cmd(cfg: RunConfig, inputs, measures):
    """Windowed (time-resolved) matrices per measure."""

    def compute():
        names = _measure_names(cfg)
        spec = WindowSpec.parse(cfg.windows)
        returns = _load_panel(cfg)
        results = []
        for name in names:
            result = evolve(
                returns, spec, name, bins=cfg.bins, strategy=cfg.strategy, dt=cfg.dt,
            )
            results.append((f"evolve_{name}", result, cfg.formats))
            log.info("evolve %s over %d windows done", name, len(result.values))
        return results

    _run(compute, cfg, inputs, measures)


@main.command()
@click.option("--kind", type=click.Choice(["coupled_binary", "var1", "ou_euler"]), required=True)
@click.option("--steps", type=int, required=True)
@click.option("--eps", type=float, default=0.1, help="coupled_binary flip probability.")
@click.option("--matrix", "matrix_json", default=None,
              help="JSON N x N matrix: a_step for var1, a_true for ou_euler.")
@click.option("--sigma", type=float, default=0.1, help="Noise scale.")
@click.option("--dt-sim", type=float, default=0.01, help="ou_euler integration step.")
@click.option("--assets", default=None, help="Comma list of asset names.")
@click.option("--start-price", type=float, default=100.0)
@click.pass_obj
def simulate(cfg: RunConfig, kind, steps, eps, matrix_json, sigma, dt_sim, assets, start_price):
    """Generate a synthetic panel and write it as price CSVs.

    The process values are treated as log returns and integrated into
    positive prices (p_t = start_price * exp(cumsum x)), so the files feed
    straight back into stats/analyze/evolve. coupled_binary symbols are
    mapped to +/-1% returns before integration.
    """

    def compute():
        names = [a.strip() for a in assets.split(",")] if assets else None
        if kind == "coupled_binary":
            x, y = synth.gen_coupled_binary(eps, steps, seed=cfg.seed)
            values = np.column_stack([x.symbols, y.symbols]).astype(np.float64)
            values = (values * 2.0 - 1.0) * 0.01
            ids = tuple(names) if names else ("X", "Y")
            if len(ids) != 2:
                raise DataValidationError("assets: coupled_binary emits exactly 2 series")
        else:
            if matrix_json is None:
                raise DataValidationError("matrix: --matrix is required for var1/ou_euler")
            try:
                a = np.array(json.loads(matrix_json), dtype=np.float64)
            except (json.JSONDecodeError, ValueError) as e:
                raise DataValidationError(f"matrix: {e}") from None
            if not np.isfinite(a).all():
                raise DataValidationError(f"matrix: entries must be finite, got {a[~np.isfinite(a)][0]}")
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise DataValidationError(f"matrix: must be square, got shape {a.shape}")
            if names is not None and len(names) != len(a):
                raise DataValidationError(f"assets: {kind} emits exactly {len(a)} series")
            if kind == "var1":
                panel = synth.gen_var1(a, sigma=sigma, steps=steps, seed=cfg.seed, asset_ids=names)
            else:
                panel = synth.gen_ou(a, sigma=sigma, dt_sim=dt_sim, steps=steps,
                                     seed=cfg.seed, asset_ids=names)
            values, ids = panel.values, panel.asset_ids

        with np.errstate(over="ignore"):  # an overflow to inf fails the price check below
            prices = start_price * np.exp(np.cumsum(values, axis=0))
        base = dt.date(2000, 1, 3).toordinal()
        days = np.arange(base, base + prices.shape[0])
        series = [ingest.PriceSeries(asset_id=a, days=days, prices=prices[:, k]) for k, a in enumerate(ids)]
        return [(s.asset_id, s, ("csv",)) for s in series]

    _run(compute, cfg)


@main.command()
@click.option("--endpoint", required=True, help="URL template with {asset} {start} {end}.")
@click.option("--assets", required=True, help="Comma list of asset ids.")
@click.option("--start", required=True, help="ISO start date.")
@click.option("--end", required=True, help="ISO end date.")
@click.option("--cache-dir", default=None, type=click.Path())
@click.pass_obj
def fetch(cfg: RunConfig, endpoint, assets, start, end, cache_dir):
    """Fetch remote series and store them as local CSVs."""

    def compute():
        try:
            d0, d1 = ingest.iso_dates([start, end])
        except ValueError as e:
            raise DataValidationError(f"date: {e}") from None
        if d0 > d1:
            raise DataValidationError(f"date: start {start} is after end {end}")
        ids = [a.strip() for a in assets.split(",")]
        for a in ids:  # every id is checked before the first request
            ingest.check_stem(a)
        results = []
        for a in ids:
            series = ingest.fetch_remote(endpoint, a, (d0, d1), schema=cfg.schema, cache_dir=cache_dir)
            log.info("fetched %s (%d observations)", series.asset_id, len(series))
            results.append((series.asset_id, series, ("csv",)))
        return results

    _run(compute, cfg)


if __name__ == "__main__":
    main()
