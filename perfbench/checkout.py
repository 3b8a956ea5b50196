"""Where the benchmark finds the program, and the machine it runs on.

The benchmark always measures the `teon` package in the `src/` directory of
the checkout it sits in, never an installed copy. `prepare()` pins the BLAS
thread count before NumPy is first imported, so every entry script calls it
before importing anything that imports NumPy (the smoke test, which may
share a process with NumPy, uses `use_checkout_sources()` alone).
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_out"

# One BLAS thread: the desk-scale matrices (8 to 256 wide) gain little from a
# second thread, and a single thread keeps the figures steadier on a shared
# two-core machine. Recorded with every result.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class CheckoutError(RuntimeError):
    """The checkout's teon sources cannot be measured as they stand."""


def prepare() -> None:
    """Pin BLAS threads, then import teon from the checkout's `src/`."""
    if "numpy" in sys.modules:
        raise CheckoutError("numpy was imported before the BLAS thread count was pinned")
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    use_checkout_sources()


def use_checkout_sources() -> None:
    """Put the checkout's `src/` first on the import path and import teon from it."""
    if not (SRC / "teon" / "__init__.py").is_file():
        raise CheckoutError(f"no teon sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import teon

    if Path(teon.__file__).resolve().parent != SRC / "teon":
        raise CheckoutError(f"imported teon from {teon.__file__}, not from {SRC}")


def _blas() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")}
    except (TypeError, KeyError):  # NumPy < 2 has no dict mode
        return {"name": "unknown", "version": "unknown"}


def _git_commit() -> str:
    # Look only at the checkout itself: git must not walk up into a parent repository.
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def machine_context() -> dict:
    """Python, NumPy, BLAS, thread settings as run, core count and commit."""
    import numpy as np

    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "blas": _blas(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }
