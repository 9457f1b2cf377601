"""What the numbers were measured on, and which of it changes output bytes.

Nothing here sets a thread variable: the BLAS thread count is recorded as
found, because pinning it would hide the threading cost of the drift solve.
``fingerprint`` holds what changes output bytes (the backend, numpy, the
BLAS build and core it picked, its thread count); the digest store and the
comparison of runs are keyed by it.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import platform

import numpy as np

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "GOTO_NUM_THREADS")


def _openblas_runtime() -> tuple[str | None, int | None]:
    """OpenBLAS's own config string (with the core it picked) and thread count."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    get_config = getattr(lib, f"{prefix}_get_config{suffix}")
                    get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                except AttributeError:
                    continue
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                return get_config().decode().strip(), int(get_threads())
    return None, None


def _blas() -> dict:
    config, threads = _openblas_runtime()
    if config is None:
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        config = f"{build.get('name')} {build.get('version')}"
    return {"blas": config, "blas_threads": threads}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, "r", encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), "r", encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def fingerprint(backend: str) -> dict:
    return {
        "backend": backend,
        "numpy": np.__version__,
        **_blas(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


def fingerprint_key(fp: dict) -> str:
    return hashlib.sha256(json.dumps(fp, sort_keys=True).encode()).hexdigest()[:16]


def describe(backend: str, root: str) -> dict:
    fp = fingerprint(backend)
    return {
        "fingerprint": fp,
        "fingerprint_key": fingerprint_key(fp),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(root),
    }
