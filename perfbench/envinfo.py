"""The machine and numeric-library facts every run records."""

from __future__ import annotations

import ctypes
import os
import platform
import re

import numpy as np

_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_", "openblas_get_num_threads",
            "MKL_Get_Max_Threads", "bli_thread_get_num_threads")


def _blas_libraries() -> list[str]:
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as f:
            maps = f.read()
    except OSError:
        return []
    return sorted(set(re.findall(r"(/\S*(?:blas|mkl|blis)\S*\.so\S*)", maps)))


def blas_threads() -> int:
    """Threads the loaded BLAS library will use, or 0 if it cannot be asked."""
    for path in _blas_libraries():
        lib = ctypes.CDLL(path)
        for name in _GETTERS:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return 0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(child_env: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "GENELM_THREADS": child_env.get("GENELM_THREADS"),
        "OPENBLAS_NUM_THREADS": child_env.get("OPENBLAS_NUM_THREADS"),
    }
