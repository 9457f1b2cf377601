"""Kernels: the sequential recurrence behind the synthetic process generators,
the histogram counter and the process fan-out of the estimators and writers.

``linear_recurrence`` steps x_{t+1} = C x_t + w_t in scalar Python floats,
summing each component left to right from 0.0:

    x_{t+1}[i] = 0.0 + C[i,0]*x_t[0] + ... + C[i,n-1]*x_t[n-1] + w_t[i]

The seeded synthetic panels depend on that order, so keep it. The step runs
in a loop generated for each pattern of nonzero coefficients and compiled on
first use (``_step_loop``). It holds the state and the coefficients in local
variables and computes one row per expression, with a term for each nonzero
coefficient only. That is exact while the state is finite: under
round-to-nearest a sum started at +0.0 is never -0.0, so adding a zero
coefficient's term, +-0.0 when the state is finite, changes nothing. The
noise is stepped one chunk of about ``_CHUNK_VALUES`` (2**14) values at a
time, and a chunk whose start or states are not all finite is stepped again
by the loop that keeps every term, zero coefficients too, so +-0.0, inf and
NaN propagate as through the plain sum. The coefficients come in as data;
the generated source holds only names. A chunk's noise becomes one flat list
of floats and its new states another, copied into the output at once, so a
call holds about 64 bytes per chunk value beside its output.
``synth.gen_var1`` draws its noise one such chunk at a time and calls this
once per chunk, from the last state of the one before, so a long path holds
no whole noise array and memory beyond its output stays under 2 MiB however
many steps there are.

Compiling the loop costs time and memory that grow with the number of
nonzero coefficients, as N^2 for a dense matrix (about 0.02 s at N=50,
0.15 s at N=200, and 6 s and 1.6 GB at N=1000); CPython's compiler raises
RecursionError for rows of more than about 2,900 terms. A dense step costs a
third (N=4) to a half (N >= 50) of what the scalar loop's did, so the
compile pays for itself after 200 to 450 steps.

``joint_counts`` delegates to ``np.bincount``, which is integer-exact.

``fan_out(task, count)`` runs ``task(0), ..., task(count - 1)`` for
``ingest.load_csvs`` (a task per input file), ``infoflow.te_matrices`` and
``infoflow.mi_matrices`` (per count of pairs), ``infoflow.te_floor_matrix``
(a task per target row), ``windows.evolve`` (per block of windows) and
``netout.emit_all`` (per result, written to its staged files). A task writes
its results to files or to ``shared`` arrays, zeroed on an anonymous shared
``mmap`` that forked workers and their caller see. It forks one worker per
CPU this process may run on (``os.sched_getaffinity``, so ``taskset`` limits
them; ``os.cpu_count`` where that call is missing), never more than
``count``; with fewer than two, with no ``os.fork``, or when called inside a
worker's task (an ``evolve`` block counting its pairs), the tasks run
in-process, the only serial path. Worker k stays on the k-th CPU of that
set: left to the scheduler, two workers forked on a 2-CPU host were seen
sharing one CPU, each at half speed. The caller writes the task indices into
one pipe as 4-byte records, in atomic writes of at most 4,096 bytes, the
first before it forks, so the first worker starts at once; each worker reads
one at a time until the pipe is drained and closed, so a dead worker holds
up no other. A worker flags each task it completes, stops once its caller is
gone, and leaves through ``os._exit``. The caller reaps every worker and
runs in-process, in index order, each task left unflagged, so it raises the
serial path's first error with its type, message and ``__cause__``. Spans
and counters that a tracer records inside a worker stay there. Python 3.12
and later warn when forking beside a running thread, such as OpenBLAS's; on
CPython 3.12.1 and 3.13.0, ``os.fork`` under an ``error`` filter clears that
DeprecationWarning and returns normally, and under ``always`` the warning is
recorded.
"""

import functools
import os

import numpy as np

# named in the pipeline benchmark's environment line and digest fingerprint
BACKEND = "python"

_CHUNK_VALUES = 1 << 14


def _step_source(cols: tuple) -> str:
    """Source of ``loop(w, state, rows)``, which steps the n = len(cols) floats
    of ``state`` through the flat noise list ``w`` and returns the new states
    as one flat list. Row i sums the terms of the columns ``cols[i]`` only,
    whose coefficients ``rows[i]`` holds in that order."""
    n = len(cols)
    p = "".join(f"p{j}, " for j in range(n))
    lines = ["def loop(w, state, rows):", f"    {p}= state"]
    lines += ["    " + "".join(f"c{i}_{j}, " for j in js) + f"= rows[{i}]" for i, js in enumerate(cols) if js]
    lines += [
        "    buf = []",
        "    put = buf.extend",
        "    for " + "".join(f"w{i}, " for i in range(n)) + f"in zip(*[iter(w)] * {n}):",
        f"        {p}= x = (",
        *("            0.0 + " + "".join(f"c{i}_{j} * p{j} + " for j in js) + f"w{i}," for i, js in enumerate(cols)),
        "        )",
        "        put(x)",
        "    return buf",
    ]
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=32)
def _step_loop(cols: tuple):
    namespace = {}
    exec(compile(_step_source(cols), f"<linear_recurrence step loop, n={len(cols)}>", "exec"), namespace)
    return namespace["loop"]


def linear_recurrence(coeffs, noise, x0):
    """out[0] = x0; out[t+1][i] = sum_j coeffs[i][j]*out[t][j] + noise[t][i]."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    n = noise.shape[-1] if noise.ndim == 2 else 0
    if n < 1 or coeffs.shape != (n, n) or x0.shape != (n,):
        raise ValueError(
            f"cannot step coefficients of shape {coeffs.shape} from x0 of shape {x0.shape} "
            f"with noise of shape {noise.shape}: they must be (N, N), (N,) and (steps, N), N >= 1"
        )
    steps = noise.shape[0]
    out = np.empty((steps + 1, n), dtype=np.float64)
    out[0] = x0
    values = coeffs.tolist()
    cols = tuple(tuple(np.flatnonzero(row).tolist()) for row in coeffs)
    # the loop of the nonzero terms, then the one of every term for a chunk that is not finite
    loops = {cols: [[values[i][j] for j in js] for i, js in enumerate(cols)], (tuple(range(n)),) * n: values}
    per = max(1, _CHUNK_VALUES // n)
    for a in range(0, steps, per):
        b = min(a + per, steps)
        w = noise[a:b].ravel().tolist()
        for pattern, rows in loops.items():
            out[a + 1 : b + 1].reshape(-1)[:] = _step_loop(pattern)(w, out[a].tolist(), rows)
            if np.isfinite(out[a : b + 1]).all():
                break
    return out


def joint_counts(codes, size):
    """Dense occurrence counts of flat cell codes in [0, size)."""
    return np.bincount(codes, minlength=size).astype(np.int64, copy=False)


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def shared(shape, dtype=np.float64) -> np.ndarray:
    """A zeroed array on an anonymous shared mmap: what a forked worker writes, its caller reads."""
    import mmap  # here, not at module import: a run with nothing to fan out never pays it

    size = int(np.prod(shape))
    return np.frombuffer(mmap.mmap(-1, max(size * np.dtype(dtype).itemsize, 1)), dtype, size).reshape(shape)


# set in a forked worker, where fan_out runs its tasks in-process
_in_worker = False


def _pin(worker: int) -> None:
    """Keep this process on the worker-th CPU of its set, cycling; left as it
    is where the platform has no affinity calls or refuses the CPU."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[worker % len(cpus)]})
    except (AttributeError, OSError):
        pass


def _serve(task, records: int, done, caller: int) -> None:
    """Run task(k), then flag done[k], for each 4-byte k read from fd ``records``, while ``caller`` is the parent."""
    global _in_worker
    _in_worker = True
    while (record := os.read(records, 4)) and os.getppid() == caller:
        k = int.from_bytes(record, "little")
        task(k)
        done[k] = True


def fan_out(task, count: int) -> None:
    """Run task(0), ..., task(count - 1) on forked workers, one per CPU, then
    in-process, in index order, each task that no worker completed."""
    workers = min(_cpus(), count) if hasattr(os, "fork") and not _in_worker else 1
    done = shared(count, bool) if workers > 1 else np.zeros(count, bool)
    if workers > 1:
        caller = os.getpid()
        read, write = os.pipe()
        records = np.arange(count, dtype="<u4").tobytes()
        pids = []
        try:
            # 4,096 bytes a write: at most PIPE_BUF, so atomic, and the first
            # fits in the empty pipe before any worker reads
            os.write(write, records[:4096])
            try:
                for worker in range(workers):
                    if not (pid := os.fork()):
                        try:
                            os.close(write)
                            _pin(worker)
                            _serve(task, read, done, caller)
                        finally:
                            os._exit(0)
                    pids.append(pid)
            finally:
                os.close(read)
            for a in range(4096, len(records), 4096):
                os.write(write, records[a : a + 4096])
        except BrokenPipeError:
            pass  # every worker is gone
        finally:
            os.close(write)
            for pid in pids:
                os.waitpid(pid, 0)
    for k in np.flatnonzero(~done).tolist():
        task(k)
