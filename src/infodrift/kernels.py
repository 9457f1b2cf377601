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

``fan_out(task, count)`` returns ``[task(0), ..., task(count - 1)]``. Its
callers are ``infoflow.te_floor_matrix`` (a task per target row),
``windows.evolve`` (per block of windows) and ``netout.emit_all`` (per
result, which the task writes to its staged files). It runs
the tasks on forked worker processes, one per CPU this process may run on
(``os.sched_getaffinity``, so ``taskset`` limits them; ``os.cpu_count``
where that call is missing), never more than ``count``. With one CPU, or
where the ``fork`` start method is not offered, it runs them in-process,
which is the only serial path. Workers are forked, so a task may be a
closure over arrays built before the call; only ``k`` and the task's
result cross between processes. A task returns plain arrays, numbers or
lists: ``evolve``'s tasks return each block's (values, edges) arrays, which
it concatenates into a ``WindowedResult`` that stores them read-only, since
an unpickled array comes back writeable. A task that fails in a worker is run again in the calling process, so the caller sees
the serial path's exception, with its type, message and ``__cause__``, and
no exception has to be pickled. Every worker has exited when ``fan_out``
returns or raises. Spans and counters that a tracer records inside a worker
stay in that worker. Python 3.12 and later warn when forking a process
that runs threads, such as an OpenBLAS thread pool. On CPython 3.12.1 and
3.13.0, forking beside a running thread under an ``error`` filter clears
that DeprecationWarning and returns normally (``catch_warnings(record=True)``
records nothing), under ``always`` the warning is recorded, and a
fork-context ``ProcessPoolExecutor`` under the default filters shows nothing.
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


_task = None  # the task of a fan_out, set in each of its workers only


def _adopt(task) -> None:
    global _task
    _task = task


def _run(k):
    """(True, task(k)) in a worker, or (False, None) for the caller to run it again."""
    try:
        return True, _task(k)
    except Exception:  # the caller raises it from its own run, unpickled
        return False, None


def fan_out(task, count: int) -> list:
    """[task(0), ..., task(count - 1)], computed on forked workers, one per CPU."""
    workers = min(_cpus(), count)
    if workers > 1:
        # imported here: about 20 ms that a run with nothing to fan out never pays
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool

            context = multiprocessing.get_context("fork")
            pool = ProcessPoolExecutor(workers, context, initializer=_adopt, initargs=(task,))
            try:
                futures = [pool.submit(_run, k) for k in range(count)]
                found = []
                for future in futures:
                    try:
                        found.append(future.result())
                    except BrokenProcessPool:  # a worker died; its tasks are run here
                        found.append((False, None))
            finally:
                pool.shutdown(cancel_futures=True)
            return [result if ok else task(k) for k, (ok, result) in enumerate(found)]
    return [task(k) for k in range(count)]
