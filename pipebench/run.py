#!/usr/bin/env python3
"""End-to-end pipeline benchmark for infodrift.

Usage, from the repository root:
    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs the workload as a closed loop: one child process at
a time, the next started only after the previous one exits, until S seconds
have passed (at least one run). Each child is the infodrift CLI (or, for
simulate-long, a library call sequence) from ``src/`` in this checkout, given
inputs generated from the seed. Every run's outputs are checked (see
check.py); a non-zero exit, an exception or a wrong output counts as a
failed run. A fixed reference task (reference.py) is timed between the
runs, and short times are reported at its nominal speed (see
SHORT_RUN_REFS). ``--trace 1`` alternates untraced and traced runs and
reports per-layer metrics from the traced ones (see spans.py).

The last line of standard output is one JSON object:
    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}
with the end-to-end metrics of BENCHMARK.json under ``--trace 0`` and its
per-layer metrics under ``--trace 1``. The line before it records the
environment. ``failed / attempted`` is the error rate. ``--record`` adds the
outputs' digests, once they pass the oracle checks, to digests.json for this
environment fingerprint and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

N_DAYS = 2600  # weekdays per generated series; ~2500 remain after align
SETUP_REPEATS = 7  # at least; 3 before the runs, one before each run
RUN_LIMIT_S = 165.0  # every child is killed past this point of the run
SOURCE_DATE_EPOCH = "946684800"
# The shared host this was built on runs the same process up to 1.6x slower
# for minutes at a time. A time no longer than SHORT_RUN_REFS reference
# times is reported at the nominal speed of a fixed reference task
# (reference.py): scaled by REFERENCE_NOMINAL_S over the geometric mean of
# the reference times measured just before and just after it. Two
# references do not stand for the whole length of a longer run, so longer
# runs are reported as measured.
SHORT_RUN_REFS = 10
REFERENCE_NOMINAL_S = 0.2


@dataclass(frozen=True)
class Workload:
    check: str  # name of the oracle check in check.py
    assets: int = 0
    cli: tuple[str, ...] | None = None  # None: the simlong library sequence
    switch: bool = False
    check_args: dict = field(default_factory=dict)


WORKLOADS = {
    # The paper's static network at a realistic universe width. Time is spread
    # over ingest, MI/TE, the drift solve and the writers, so a gain in any
    # of them shows.
    "analyze-wide": Workload(
        check="check_analyze_wide",
        assets=50,
        cli=("--format", "json,csv,dot,svg", "analyze", "--measures", "corr,mi,te,km"),
    ),
    # The paper's evolution heatmap: ~450 windows, ~180k TE pair evaluations
    # and 65 MB of output. Batching over pairs and windows shows here; an
    # ingest change does not.
    "evolve-sliding": Workload(
        check="check_evolve_sliding",
        assets=20,
        cli=("--windows", "sliding:250:5", "--format", "json,csv,svg", "evolve", "--measures", "te,km"),
        switch=True,
        check_args={"length": 250, "stride": 5},
    ),
    # 38,000 shuffled-TE evaluations: the only caller of te_floor_matrix and
    # surrogate_floor, whose per-(i, j) permutations must stay identical.
    "surrogate-floor": Workload(
        check="check_surrogate_floor",
        assets=20,
        cli=("--surrogates", "100", "analyze", "--measures", "te"),
    ),
    # The only workload that runs synth and the sequential recurrence, and the
    # only one with estimators at long T, where they are bound by memory, not
    # by per-call overhead.
    "simulate-long": Workload(check="check_simulate_long"),
}


@dataclass
class Rep:
    wall_s: float
    rss_mb: float
    cpu_s: float
    code: int
    errors: list


class Launcher:
    """Handle on launcher.py, the small process that spawns every child."""

    def __init__(self):
        # a process group of its own, so that close() can end it with its child
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                     start_new_session=True)

    def run(self, argv: list[str], cwd: str, env: dict, log: str, timeout: float) -> Rep:
        request = {"argv": argv, "cwd": cwd, "env": env, "log": log, "timeout": max(1.0, timeout)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited")
        r = json.loads(line)
        errors = [] if r["code"] == 0 else [f"exit code {r['code']}: {_tail(log)}"]
        return Rep(r["wall_s"], r["rss_kb"] / 1024.0, r["cpu_s"], r["code"], errors)

    def close(self) -> None:
        """End the launcher; if it is still waiting on a child, kill both."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.proc.stdout.close()


def _tail(path: str) -> str:
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        lines = fh.read().strip().splitlines()
    return " | ".join(lines[-3:])


class Runner:
    def __init__(self, launcher: Launcher, name: str, seed: int, work: str, env_info: dict, record: bool):
        import check
        import inputs

        self.launcher, self.name, self.seed, self.work = launcher, name, seed, work
        self.workload = WORKLOADS[name]
        self.check = getattr(check, self.workload.check)
        self.out = os.path.join(work, "out")
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.env = dict(os.environ, SOURCE_DATE_EPOCH=SOURCE_DATE_EPOCH,
                        PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        self.fp_key, self.fingerprint = env_info["fingerprint_key"], env_info["fingerprint"]
        self.expected = check.recorded(check.load_store(), self.fp_key, name, seed)
        self.record = record
        self.verdicts: dict[str, list] = {}
        self.reference: str | None = None
        self.names: list[str] = []
        if self.workload.cli is not None:
            self.names = inputs.write_panel_csvs(
                os.path.join(work, "in"), inputs.rng_for(seed, name), self.workload.assets, N_DAYS,
                switch_at=N_DAYS // 2 if self.workload.switch else None,
            )

    def _spawn(self, argv: list[str], log: str) -> Rep:
        return self.launcher.run(argv, self.work, self.env, os.path.join(self.work, log),
                                 self.deadline - time.perf_counter())

    def _argv(self, spans_path: str | None, run_id: int) -> list[str]:
        w = self.workload
        if w.cli is None:
            tail = ["out", str(self.seed)]
            if spans_path is None:
                return [sys.executable, os.path.join(HERE, "simlong.py"), *tail]
            return [sys.executable, os.path.join(HERE, "spans.py"), spans_path, str(run_id), "simlong", *tail]
        cli = ["--out", "out", *w.cli, *(f"in/{n}" for n in self.names)]
        if spans_path is None:
            return [sys.executable, "-m", "infodrift", *cli]
        return [sys.executable, os.path.join(HERE, "spans.py"), spans_path, str(run_id), "cli", *cli]

    def setup_time(self) -> float:
        """Interpreter start plus ``import infodrift.cli``, which every CLI run pays."""
        rep = self._spawn([sys.executable, "-c", "import infodrift.cli"], "setup.log")
        if rep.code != 0:
            raise RuntimeError(f"import infodrift.cli failed: {rep.errors}")
        return rep.wall_s

    def reference_time(self) -> float:
        """Wall time of reference.py, which uses no infodrift code."""
        rep = self._spawn([sys.executable, os.path.join(HERE, "reference.py")], "reference.log")
        if rep.code != 0:
            raise RuntimeError(f"reference task failed: {rep.errors}")
        return rep.wall_s

    def rep(self, spans_path: str | None = None, run_id: int = 0) -> Rep:
        shutil.rmtree(self.out, ignore_errors=True)
        rep = self._spawn(self._argv(spans_path, run_id), "child.log")
        if rep.code == 0:
            rep.errors = self._verify(traced=spans_path is not None)
        return rep

    def _verify(self, traced: bool) -> list[str]:
        import check

        if not os.path.isdir(self.out):
            return ["no output directory"]
        files = check.digests(self.out)
        key = json.dumps(files, sort_keys=True)
        if key not in self.verdicts:
            if self.expected is not None:
                bad = sorted(f for f in set(files) | set(self.expected) if files.get(f) != self.expected.get(f))
                self.verdicts[key] = [f"digest mismatch against digests.json: {bad}"] if bad else []
            else:
                self.verdicts[key] = self.check(self.work, self.out, self.names, self.seed,
                                                **self.workload.check_args)
                if self.record and not self.verdicts[key]:
                    check.record(self.fp_key, self.fingerprint, self.name, self.seed, files)
        errors = list(self.verdicts[key])
        if self.reference is None and not traced:
            self.reference = key
        elif key != self.reference:
            errors.append("output bytes differ from the run's first untraced outputs")
        return errors


def _median(values):
    return float(statistics.median(values)) if values else float("nan")


def _at_reference_speed(seconds: float, reference_s: float) -> float:
    if seconds <= SHORT_RUN_REFS * reference_s:
        return seconds * REFERENCE_NOMINAL_S / reference_s
    return seconds


def measure(runner: Runner, seconds: float, trace: bool, spec: dict) -> dict:
    import spans

    refs, setup, plain, traced, summaries = [], [], [], [], []
    slot = []  # slot[i]: index of the reference taken just before untraced run i

    def calibrate():
        refs.append(runner.reference_time())
        setup.append(runner.setup_time())

    for _ in range(SETUP_REPEATS // 2):
        calibrate()
    t0 = time.perf_counter()
    while True:
        calibrate()
        slot.append(len(refs) - 1)
        plain.append(runner.rep())
        if trace:
            path = os.path.join(runner.work, f"spans-{len(traced)}.npz")
            traced.append(runner.rep(path, run_id=len(traced)))
            if traced[-1].code == 0:
                summaries.append(spans.summarize_one(path, traced[-1].wall_s))
            if os.path.exists(path):
                os.unlink(path)
        now = time.perf_counter()
        per_round = (now - t0) / len(plain)
        if now - t0 >= seconds or now + per_round > runner.deadline - 5.0:
            break
    while len(setup) < SETUP_REPEATS:
        calibrate()
    refs.append(runner.reference_time())
    # set-up i ran between refs[i] and refs[i + 1], and so did the untraced
    # run with slot i
    around = [(a * b) ** 0.5 for a, b in zip(refs, refs[1:])]

    reps = plain + traced
    failed = [r for r in reps if r.errors]
    for r in failed[:5]:
        print(f"failed run: {'; '.join(r.errors)[:2000]}", file=sys.stderr)
    bracketed = [(around[k], r) for k, r in zip(slot, plain)]
    ok = [(ref, r) for ref, r in bracketed if not r.errors] or bracketed
    raw = {
        "process.wall_raw_s": _median([r.wall_s for _, r in ok]),
        "process.setup_raw_s": _median(setup),
        "process.reference_s": _median(refs),
        "process.cpu_s": _median([r.cpu_s for _, r in ok]),
    }
    e2e = {
        "wall_s": _median([_at_reference_speed(r.wall_s, ref) for ref, r in ok]),
        "setup_s": _median([_at_reference_speed(t, ref) for ref, t in zip(around, setup)]),
        "peak_rss_mb": _median([r.rss_mb for _, r in ok]),
    }
    print(f"{runner.name}: {len(plain)} runs, wall_s {[round(r.wall_s, 3) for r in plain]}, "
          f"rss_mb {[round(r.rss_mb, 1) for r in plain]}, setup_s {[round(s, 3) for s in setup]}, "
          f"reference_s {[round(s, 3) for s in refs]}, error_rate {len(failed)}/{len(reps)}", file=sys.stderr)
    if trace:
        # all layer metrics come from one traced run, the median by wall, so
        # its self times and uncovered time still add up to its wall
        summaries.sort(key=lambda s: s["trace.wall_s"])
        layer = dict(summaries[(len(summaries) - 1) // 2]) if summaries else {}
        layer.update(raw)
        layer["trace.overhead_s"] = layer.get("trace.wall_s", float("nan")) - raw["process.wall_raw_s"]
        wanted = spec["per_layer"]
    else:
        layer, wanted = e2e, spec["end_to_end"]
    metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]} for m in wanted}
    return {"correct": not failed, "attempted": len(reps), "failed": len(failed), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="add digests of oracle-checked outputs to digests.json")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "infodrift", "__init__.py")):
        print(f"error: no infodrift package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)

    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # the launcher starts before this process imports numpy (see launcher.py)
    launcher = Launcher()
    work_root = os.path.join(ROOT, ".pipebench_work")
    work = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    try:
        sys.path.insert(0, SRC)
        import environment
        import infodrift.kernels

        if not os.path.abspath(infodrift.kernels.__file__).startswith(SRC + os.sep):
            print(f"error: infodrift imported from {infodrift.kernels.__file__}, not {SRC}", file=sys.stderr)
            return 2
        env_info = environment.describe(infodrift.kernels.BACKEND, ROOT)
        print(json.dumps({"env": env_info}, sort_keys=True))
        os.makedirs(work)
        runner = Runner(launcher, args.workload, args.seed, work, env_info, args.record)
        result = measure(runner, args.seconds, bool(args.trace), spec)
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(work_root) and not os.listdir(work_root):
            os.rmdir(work_root)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
