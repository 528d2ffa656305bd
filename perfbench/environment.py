"""The environment a result was measured in, recorded with every result."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import sys
from pathlib import Path

import numpy as np

_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "CARTANKIT_THREADS")


def _blas() -> dict:
    info = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    info["threads"] = _blas_threads()
    return info


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha(root: Path):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "cartankit").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def describe(root: Path, src: Path) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {k: os.environ.get(k) for k in _THREAD_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": _git_sha(root),
        "src_sha256": _source_digest(src),
        "argv": sys.argv[1:],
    }
