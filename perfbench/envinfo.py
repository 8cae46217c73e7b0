"""Environment capture for every benchmark result.

The benchmark measures the program's defaults: every ``REPRO_*``
variable is removed from the environment its child processes see.
Variables that were set in the caller's environment are recorded (and
dropped); a workload that deliberately sets one records it separately.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path
from typing import Dict, Optional

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_BLAS_GETTERS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
)


def child_env(root: Path) -> Dict[str, str]:
    """The environment for benchmark children: no ``REPRO_*``, ``src`` on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def caller_repro_vars() -> Dict[str, str]:
    return {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")}


def blas_threads() -> Optional[int]:
    """OpenBLAS's own thread count, read from the loaded library."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({
        line.split()[-1] for line in maps.splitlines()
        if "openblas" in line.lower() and line.split()[-1].startswith("/")
    })
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in _BLAS_GETTERS:
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def revision(root: Path) -> Dict[str, str]:
    """The git revision when there is one, and always a hash of ``src/``.

    Benchmark checkouts are not git repositories, so the source hash is
    what identifies the code that ran.
    """
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    out = {"src_sha256": h.hexdigest()[:16], "git": "unknown"}
    if (root / ".git").exists():
        try:
            out["git"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return out


def capture(root: Path, seed: int) -> Dict[str, object]:
    """Everything a result needs to be compared with another one."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "revision": revision(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
        "machine": platform.machine(),
        "seed": seed,
        "repro_vars_unset": caller_repro_vars(),
    }
