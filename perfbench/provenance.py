"""Where and how a result was measured."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Optional

#: thread settings every run (and every worker it spawns) runs under; one
#: BLAS thread per process, so the load generator, the batcher thread and the
#: worker processes share the cores instead of oversubscribing them
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: program switches a caller's shell could leave set; runs never inherit them
CLEARED_ENV = ("REPRO_FORCE_REFERENCE", "REPRO_TRAIN_PLAN", "REPRO_NATIVE_CC")


def pin_environment(build_dir: Path) -> None:
    """Fix the thread environment before numpy loads; keep caches in the checkout."""
    os.environ.update(THREAD_ENV)
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    os.environ["REPRO_NATIVE_CACHE"] = str(build_dir / "native")
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)


def _git(root: Path, *args: str) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", *args], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest(root: Path) -> str:
    """SHA-256 over the library sources, for checkouts without git metadata."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".c"):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def collect(root: Path, workload: str, seed: int, seconds: float,
            trace: bool) -> Dict[str, Any]:
    import numpy as np

    from repro.photonics import _native

    blas: Dict[str, Any] = {}
    try:
        blas = dict(np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    except Exception:  # noqa: BLE001 -- provenance is best-effort
        pass
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    affinity = (sorted(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else None)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": _git(root, "rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "source_digest": source_digest(root),
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "native_cchain": _native.kernel() is not None,
        "executable": sys.executable,
    }
