"""Noise controls and the environment record stamped on every result."""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import sys
from pathlib import Path
from typing import Any, Dict

#: Environment every workload process runs under: one BLAS/OpenMP
#: thread (so two busy processes fit two cores without oversubscribing
#: them) and a fixed string-hash seed (so dict and set iteration order,
#: and with it memory layout, is the same in every run).
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def pin_environment() -> None:
    """Re-execute this process under :data:`PINNED_ENV` unless it already is.

    Thread-pool sizes and the hash seed are read once at interpreter or
    library start-up, so they cannot be changed in a running process;
    ``execv`` replaces the process (same pid, no child) with one that
    starts under the pinned values.  Must run before numpy is imported.
    """
    if all(os.environ.get(key) == value for key, value in PINNED_ENV.items()):
        return
    os.environ.update(PINNED_ENV)
    os.execv(sys.executable, [sys.executable, *sys.argv])


def pin_to_one_cpu() -> None:
    """Keep this process (and threads it starts later) on its last allowed CPU.

    The scheduler no longer migrates it, and a host probe taken from it
    runs on the same CPU as the work it is a yardstick for.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def settle() -> None:
    """Collect set-up garbage and move survivors out of the collector's view.

    Called once after set-up and input generation, so the timed phase
    does not pay for scanning the (large, long-lived) input lists.
    """
    gc.collect()
    gc.freeze()


def _git_sha(root: Path) -> str:
    """HEAD's commit id read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unavailable"


def _source_digest(root: Path) -> str:
    """Short sha256 over ``src/**/*.py`` — identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment_record(root: Path) -> Dict[str, Any]:
    """nproc, BLAS build, thread settings and code identity of this run."""
    import numpy as np

    blas: Dict[str, Any] = {}
    try:
        config = np.show_config(mode="dicts")
        blas = dict(config["Build Dependencies"]["blas"])
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version")},
        "threads": {key: os.environ.get(key) for key in PINNED_ENV},
        "git_sha": _git_sha(root),
        "src_digest": _source_digest(root),
    }
