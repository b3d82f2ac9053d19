"""Machine facts recorded with every result, so that results from
different commits and machines can be compared."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess
from pathlib import Path

import numpy as np
import scipy


def _openblas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in glob.glob(str(libs_dir / "*openblas*")):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_describe(root: Path) -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                             cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable (not a git checkout)"


def facts(root: Path, blas_threads: int, dtype: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_set": blas_threads,
        "blas_threads_in_use": _openblas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE", "default"),
        "scipy": scipy.__version__,
        "dtype": dtype,
        "git_describe": _git_describe(root),
    }
