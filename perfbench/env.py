"""Process set-up shared by the benchmark scripts: thread pinning, importing
the checkout's own `oscispec`, and the environment record of a result."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

#: root of the checkout the benchmark runs in
ROOT = Path(__file__).resolve().parent.parent

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: BLAS/OpenMP threads, at most nproc.  The solver multiplies 2x2 and 4x4
#: matrices, where BLAS threads do nothing, and the dense QZ behind `verify`
#: ran no faster with two threads than with one (6.5-6.8 s against
#: 6.2-7.3 s for spacecraft_bar on a 2-core x86-64 VM); one thread keeps the
#: runs of a shared machine steadier.
BLAS_THREADS = 1


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_threads() -> int:
    """Pin BLAS/OpenMP threads; must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread count was pinned")
    threads = min(BLAS_THREADS, nproc())
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def import_oscispec():
    """Import `oscispec` from the checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "oscispec" / "__init__.py").is_file():
        raise ImportError(f"no oscispec sources under {src}")
    sys.path.insert(0, str(src))
    import oscispec

    if Path(oscispec.__file__).resolve().parent != (src / "oscispec").resolve():
        raise ImportError(f"oscispec imported from {oscispec.__file__}, not from {src}")
    return oscispec


def _blas_version(lib) -> str:
    try:
        blas = lib.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):  # the layout differs between releases
        return "unknown"


def record(seed: int, threads: int) -> dict:
    """Environment of a result: cores, pinned threads, versions, seed."""
    import numpy
    import scipy

    return {
        "seed": seed,
        "nproc": nproc(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_version(numpy),
        "scipy_blas": _blas_version(scipy),
        "machine": platform.machine(),
    }
