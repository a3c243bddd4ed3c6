"""What a benchmark result was measured on.

Recorded with every result and never gated. The BLAS thread count is read
from the library numpy loaded; the benchmark sets no thread variables, so
it is whatever a user of this machine gets by default.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas() -> dict:
    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (AttributeError, KeyError, TypeError):
        pass
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs_dir / "*openblas*"))):
        library = ctypes.CDLL(path)
        for symbol in _THREAD_SYMBOLS:
            if hasattr(library, symbol):
                function = getattr(library, symbol)
                function.restype = ctypes.c_int
                function.argtypes = []
                info["threads"] = function()
                return info
    return info


def _git_commit(root: Path):
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def src_lines(root: Path) -> int:
    return sum(len(path.read_text(encoding="utf-8").splitlines()) for path in (root / "src").rglob("*.py"))


def environment(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_env": {name: os.environ.get(name) for name in _BLAS_ENV},
        "git_commit": _git_commit(root),
        "src_lines": src_lines(root),
    }
