import importlib
import importlib.util
import math
import os
import re
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infodrift import cli, discretize, infoflow, kernels, measures, stats, synth
from infodrift.errors import MalformedRow

from conftest import assert_no_child_process, scalar_recurrence

SPANS = Path(__file__).resolve().parents[1] / "pipebench" / "spans.py"


def assert_same_bits(out, ref):
    """Bit equality wherever ``ref`` is a number, NaN where it is NaN. The
    sign and payload of a NaN are left out: CPython's float paths do not fix
    them (``inf * -0.0 + nan`` gave +nan on one path and -nan on another)."""
    nan = np.isnan(ref)
    assert out.shape == ref.shape
    assert np.array_equal(np.isnan(out), nan)
    assert np.array_equal(out.view(np.int64)[~nan], ref.view(np.int64)[~nan])


def _random_case(seed, steps=4000, n=3):
    rng = np.random.default_rng(seed)
    coeffs = np.ascontiguousarray(rng.normal(size=(n, n)) * 0.25)
    noise = np.ascontiguousarray(rng.normal(size=(steps, n)))
    x0 = np.ascontiguousarray(rng.normal(size=n))
    return coeffs, noise, x0


def test_pure_recurrence_matches_matmul_reference():
    coeffs, noise, x0 = _random_case(4, steps=200, n=2)
    out = kernels.linear_recurrence(coeffs, noise, x0)
    x = x0.copy()
    assert np.array_equal(out[0], x0)
    for t in range(200):
        acc = np.zeros(2)  # coeffs @ x, summed a column at a time from 0.0 as the kernel sums
        for j in range(2):
            acc = acc + coeffs[:, j] * x[j]
        x = acc + noise[t]
        assert np.array_equal(out[t + 1].view(np.int64), x.view(np.int64))


FINITE = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0]))
SPECIALS = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])


@st.composite
def recurrences(draw):
    """Coefficients (of row sums at most 1 in size), ``x0`` and noise of up to
    three ``_CHUNK_VALUES`` values, with signed zeros and, in half the cases, a signed
    zero, an inf or a NaN put in each array at a drawn position."""
    n = draw(st.integers(1, 8))
    chunk = kernels._CHUNK_VALUES // n
    steps = draw(st.one_of(st.integers(0, 5), st.integers(chunk - 1, 3 * chunk + 1)))
    coeffs = np.array(draw(st.lists(FINITE, min_size=n * n, max_size=n * n))).reshape(n, n) / n
    x0 = np.array(draw(st.lists(FINITE, min_size=n, max_size=n)))
    noise = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(steps, n))
    if draw(st.booleans()):
        for flat in (coeffs.reshape(-1), x0, noise.reshape(-1)):
            if flat.size and draw(st.booleans()):
                flat[draw(st.integers(0, flat.size - 1))] = draw(SPECIALS)
    return coeffs, noise, x0


@given(recurrences())
@settings(max_examples=80, deadline=None)
def test_recurrence_equals_the_scalar_oracle_bit_for_bit(case):
    coeffs, noise, x0 = case
    assert_same_bits(kernels.linear_recurrence(coeffs, noise, x0), scalar_recurrence(coeffs, noise, x0))


def test_recurrence_at_n50_equals_the_scalar_oracle():
    coeffs, noise, x0 = _random_case(50, steps=700, n=50)
    out = kernels.linear_recurrence(coeffs / 50, noise, x0)
    assert np.array_equal(out.view(np.int64), scalar_recurrence(coeffs / 50, noise, x0).view(np.int64))


def test_step_source_holds_names_not_coefficients():
    # row 0 has no nonzero coefficient, row 1 two, row 2 one
    source = kernels._step_source(((), (0, 2), (1,)))
    assert re.findall(r"\d+\.\d+", source) == ["0.0"] * 3
    assert "rows[0]" not in source and "c1_0, c1_2, = rows[1]" in source and "c2_1, = rows[2]" in source
    assert "0.0 + w0," in source and "0.0 + c1_0 * p0 + c1_2 * p2 + w1," in source
    assert "c1_1" not in source and "c2_0" not in source and "c2_2" not in source  # zero terms are absent


@pytest.mark.parametrize("where, dense_chunks", [
    ("finite", []),
    ("x0-inf", [0, 1, 2, 3]),
    ("noise-nan", [2, 3]),
    ("noise-inf", [3]),
], ids=["finite", "x0-inf", "noise-nan", "noise-inf"])
def test_chain_recurrence_steps_densely_only_chunks_that_are_not_finite(monkeypatch, where, dense_chunks):
    # the simulate-long step map (0.99 on the diagonal, 0.006 below it) with a
    # -0.0 coefficient: 7 of 16 are nonzero; a chunk whose start or states are
    # not all finite is stepped again with every term
    n = 4
    coeffs = np.eye(n) * 0.99 + np.eye(n, k=-1) * 0.006
    coeffs[0, 3] = -0.0
    per = kernels._CHUNK_VALUES // n
    rng = np.random.default_rng(8)
    noise = rng.normal(size=(3 * per + 5, n)) * 0.1
    x0 = rng.normal(size=n)
    if where == "x0-inf":
        x0[0] = math.inf
    elif where == "noise-nan":
        noise[2 * per + 7, 1] = math.nan
    elif where == "noise-inf":
        noise[-1, 3] = -math.inf
    dense = (tuple(range(n)),) * n
    loops = []
    step_loop = kernels._step_loop
    monkeypatch.setattr(kernels, "_step_loop", lambda cols: loops.append(cols) or step_loop(cols))
    assert_same_bits(kernels.linear_recurrence(coeffs, noise, x0), scalar_recurrence(coeffs, noise, x0))
    sparse = ((0,), (0, 1), (1, 2), (2, 3))
    expected = []
    for chunk in range(4):
        expected += [sparse, dense] if chunk in dense_chunks else [sparse]
    assert loops == expected


@pytest.mark.parametrize("coeffs, noise, x0", [
    (np.zeros((0, 0)), np.zeros((5, 0)), np.zeros(0)),
    (np.eye(2), np.zeros((5, 3)), np.zeros(2)),
    (np.eye(2), np.zeros(5), np.zeros(2)),
    (np.eye(2), np.zeros((5, 2)), np.zeros(3)),
    (np.ones((2, 3)), np.zeros((5, 2)), np.zeros(2)),
], ids=["n0", "noise-wider", "noise-1d", "x0-longer", "coeffs-not-square"])
def test_recurrence_refuses_shapes_it_cannot_step(coeffs, noise, x0):
    message = (
        f"cannot step coefficients of shape {coeffs.shape} from x0 of shape {x0.shape} "
        f"with noise of shape {noise.shape}: they must be (N, N), (N,) and (steps, N), N >= 1"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        kernels.linear_recurrence(coeffs, noise, x0)


def test_pure_counts_are_exact():
    codes = np.array([0, 3, 3, 1, 0, 0], dtype=np.int64)
    assert list(kernels.joint_counts(codes, 4)) == [3, 1, 0, 2]


def test_benchmark_trace_targets_exist():
    # the traced benchmark wraps these names and rebinds them wherever they
    # were imported, so a rename or a module-qualified call would drop spans
    spec = importlib.util.spec_from_file_location("pipebench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer, names in spans.TARGETS.items():
        module = importlib.import_module(f"infodrift.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"infodrift.{layer}.{name}"
    # the measure driver and the CLI call these by the names they import
    assert measures.bin_windows is discretize.bin_windows
    assert measures.te_matrices is infoflow.te_matrices
    assert measures.mi_matrices is infoflow.mi_matrices
    assert measures.correlation_matrix is stats.correlation_matrix
    assert cli.te_floor_matrix is infoflow.te_floor_matrix
    assert kernels.BACKEND == "python"
    assert discretize.joint_counts is kernels.joint_counts
    assert infoflow.joint_counts is kernels.joint_counts
    assert synth.linear_recurrence is kernels.linear_recurrence


# ---------------------------------------------------------------- fan_out

def test_fan_out_keeps_order_and_runs_on_forked_workers(monkeypatch):
    monkeypatch.setattr(kernels, "_cpus", lambda: 2)
    scale = np.arange(3)  # a closure over an array: the task is never pickled
    found = kernels.shared((9, 4), np.int64)

    def task(k):
        found[k] = [*(scale * k), os.getpid()]

    assert kernels.fan_out(task, 9) is None
    assert found[:, :3].tolist() == [[0, k, 2 * k] for k in range(9)]
    assert os.getpid() not in set(found[:, 3].tolist())
    assert_no_child_process()


def test_shared_is_zeroed_and_shaped():
    for shape, dtype in [((2, 3), np.float64), (5, bool), ((0, 4), np.float64)]:
        a = kernels.shared(shape, dtype)
        assert a.shape == np.empty(shape).shape and a.dtype == dtype
        assert not a.any() and a.flags.writeable


def test_fan_out_runs_in_process_with_one_cpu_or_without_fork(monkeypatch, fork_calls):
    pids = []

    def pid(k):
        pids.append((k, os.getpid()))

    monkeypatch.setattr(kernels, "_cpus", lambda: 1)
    kernels.fan_out(pid, 3)
    monkeypatch.setattr(kernels, "_cpus", lambda: 2)
    kernels.fan_out(pid, 1)
    kernels.fan_out(pid, 0)
    monkeypatch.delattr(os, "fork")
    kernels.fan_out(pid, 3)
    assert fork_calls == []
    assert pids == [(k, os.getpid()) for k in (0, 1, 2, 0, 0, 1, 2)]


def test_fan_out_inside_a_task_runs_in_its_worker(monkeypatch, fork_calls):
    # an outer task that fans out again, as an evolve block counting its TE
    # pairs does, runs the inner tasks in its own worker and forks no more
    monkeypatch.setattr(kernels, "_cpus", lambda: 2)
    pids = kernels.shared((2, 4), np.int64)

    def outer(k):
        pids[k, 0] = os.getpid()

        def inner(m):
            pids[k, m + 1] = os.getpid()

        kernels.fan_out(inner, 3)

    kernels.fan_out(outer, 2)
    assert (pids == pids[:, :1]).all(), pids
    assert os.getpid() not in set(pids[:, 0].tolist())
    assert fork_calls == [os.getpid()] * 2
    assert_no_child_process()


def test_fan_out_runs_more_tasks_than_the_pipe_holds_once_each(monkeypatch):
    # 20,000 records are 80,000 bytes, more than a 64 KiB pipe buffer, so the
    # caller's writes wait for the reads of four workers, racing for records
    monkeypatch.setattr(kernels, "_cpus", lambda: 4)
    runs = kernels.shared(20_000, np.int64)
    pids = kernels.shared(20_000, np.int64)

    def task(k):
        runs[k] += 1
        pids[k] = os.getpid()

    kernels.fan_out(task, 20_000)
    assert (runs == 1).all()
    assert os.getpid() not in set(pids.tolist())
    assert_no_child_process()


def test_fan_out_raises_the_first_error_of_the_serial_path(monkeypatch):
    # MalformedRow takes two arguments, so it cannot be unpickled from its
    # message; the calling process raises it from its own run of the task
    monkeypatch.setattr(kernels, "_cpus", lambda: 2)
    ran = []

    def task(k):
        ran.append(k)
        if k == 2:
            raise MalformedRow(7, "bad price") from KeyError(k)
        if k == 4:
            raise ValueError("not the first error")

    with pytest.raises(MalformedRow) as err:
        kernels.fan_out(task, 6)
    assert str(err.value) == "line 7: bad price" and err.value.line == 7
    assert type(err.value.__cause__) is KeyError
    assert ran == [2]  # the calling process runs only the task that failed first
    assert_no_child_process()


@pytest.mark.parametrize("failure", ["raises", "dies"])
def test_fan_out_reruns_a_task_that_failed_only_in_a_worker(monkeypatch, failure):
    # a task that raises, or a worker that dies, in a worker only: the
    # calling process runs the task left without its done flag, and only it
    monkeypatch.setattr(kernels, "_cpus", lambda: 2)
    caller = os.getpid()
    found = kernels.shared(7, np.int64)
    ran = []

    def task(k):
        if os.getpid() != caller and k == 3:
            if failure == "dies":
                os._exit(1)
            raise MemoryError("worker out of memory")
        if os.getpid() == caller:
            ran.append(k)
        found[k] = k * k

    kernels.fan_out(task, 7)
    assert found.tolist() == [k * k for k in range(7)]
    assert ran == [3]
    assert_no_child_process()


def test_worker_whose_caller_is_gone_runs_no_task():
    # the worker loop given a caller pid that is not its parent's, as in a
    # worker whose caller was killed: it reads a record but runs nothing
    ran, done = kernels.shared(4, bool), kernels.shared(4, bool)
    read, write = os.pipe()
    os.write(write, np.arange(4, dtype="<u4").tobytes())
    os.close(write)

    def task(k):
        ran[k] = True

    pid = os.fork()
    if pid == 0:
        try:
            kernels._serve(task, read, done, os.getpid())
        finally:
            os._exit(0)
    os.close(read)
    assert os.waitpid(pid, 0)[1] == 0
    assert not ran.any() and not done.any()
    assert_no_child_process()


def test_cpus_follow_the_affinity_mask():
    assert kernels._cpus() == len(os.sched_getaffinity(0))


def test_fan_out_keeps_each_worker_on_its_own_cpu(monkeypatch):
    # each task holds its worker until the other task has started, so the two
    # workers take one task each; worker k runs on the k-th CPU of the
    # caller's set (the same one twice on a 1-CPU machine), and the caller's
    # own set is left as it was
    cpus = sorted(os.sched_getaffinity(0))
    monkeypatch.setattr(kernels, "_cpus", lambda: 2)
    seen = kernels.shared((2, 3), np.int64)

    def task(k):
        seen[k] = os.getpid(), len(os.sched_getaffinity(0)), min(os.sched_getaffinity(0))
        deadline = time.monotonic() + 10
        while not seen[1 - k, 0] and time.monotonic() < deadline:
            time.sleep(0.001)

    kernels.fan_out(task, 2)
    assert_no_child_process()
    assert seen[0, 0] != seen[1, 0] and os.getpid() not in seen[:, 0]
    assert seen[:, 1].tolist() == [1, 1]
    assert sorted(seen[:, 2].tolist()) == sorted([cpus[0], cpus[1 % len(cpus)]])
    assert sorted(os.sched_getaffinity(0)) == cpus
