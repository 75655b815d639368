"""The pinned environment: library versions, CPU, and the effective BLAS thread count.

Run as a script it prints the facts of a fresh interpreter as one JSON
line, which is how the benchmark reads them for the processes it times.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform

import numpy as np


def _openblas():
    """NumPy's bundled OpenBLAS, found among the libraries this process has mapped."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line and line.split()[-1].startswith("/")}
    return ctypes.CDLL(sorted(paths)[0]) if paths else None


def _call(lib, symbol: str, restype):
    fn = getattr(lib, symbol, None)
    if fn is None:
        return None
    fn.argtypes = []
    fn.restype = restype
    return fn()


def blas_facts() -> dict:
    lib = _openblas()
    if lib is None:
        return {"openblas": None, "blas_threads": None}
    config = _call(lib, "scipy_openblas_get_config64_", ctypes.c_char_p)
    return {
        "openblas": config.decode() if config else None,
        "blas_threads": _call(lib, "scipy_openblas_get_num_threads64_", ctypes.c_int),
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def facts() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_facts(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


if __name__ == "__main__":
    print(json.dumps(facts()))
