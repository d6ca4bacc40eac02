"""Build and load the native ``cchain`` kernel.

The kernel ships as plain C source (:file:`cchain.c`) and is compiled at most
once per (source, compiler) pair: the shared library lands in a cache
directory keyed by the SHA-256 of the source text plus the compiler's
identification string, so upgrading the compiler or editing the source
triggers exactly one rebuild and CI can cache the artifact by hashing the
source file.

The library is loaded through :mod:`ctypes` (standard library; foreign
calls release the GIL) and called with raw buffer addresses, so
:meth:`ChainKernel._check` is what keeps a wrongly typed or strided buffer
from reaching C.  Every failure mode -- no C compiler on PATH, a failed
compile, a failed ``dlopen`` -- degrades to ``None`` with one logged message, after which the
pure-numpy paths carry the process exactly as before.

Under ``REPRO_FORCE_REFERENCE=1`` (:mod:`repro.reference`) :func:`kernel`
returns ``None``.  Environment knobs:

``REPRO_NATIVE_CC``
    Compiler executable to use instead of ``$CC``/``cc``/``gcc``/``clang``.
    Pointing it at a nonexistent binary simulates a toolchain-less host.
``REPRO_NATIVE_CACHE``
    Cache directory for compiled libraries (default
    ``~/.cache/repro/native``).
"""

from __future__ import annotations

import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Optional

import numpy as np

from repro import reference

logger = logging.getLogger(__name__)

SOURCE_PATH = Path(__file__).with_name("cchain.c")

_CFLAGS = ("-O2", "-shared", "-fPIC", "-fno-math-errno")


def _find_compiler() -> str:
    """Absolute path of the C compiler to use; raises when none exists."""
    override = os.environ.get("REPRO_NATIVE_CC") or os.environ.get("CC")
    candidates = [override] if override else ["cc", "gcc", "clang"]
    for candidate in candidates:
        path = shutil.which(candidate)
        if path:
            return path
    raise RuntimeError(f"no C compiler found (tried {', '.join(candidates)})")


def _compiler_identity(compiler: str) -> str:
    """A string that changes when the compiler changes (version line or stat)."""
    try:
        proc = subprocess.run([compiler, "--version"], capture_output=True,
                              text=True, timeout=30)
        first = (proc.stdout or proc.stderr).splitlines()
        if first:
            return first[0].strip()
    except (OSError, subprocess.SubprocessError):
        pass
    try:
        stat = os.stat(compiler)
        return f"{compiler}:{stat.st_size}:{stat.st_mtime_ns}"
    except OSError:
        return compiler


def cache_dir() -> Path:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override).expanduser()
    return Path("~/.cache/repro/native").expanduser()


def _cache_key(source: bytes, compiler_identity: str) -> str:
    digest = hashlib.sha256()
    digest.update(source)
    digest.update(b"\x00")
    digest.update(compiler_identity.encode("utf-8", "replace"))
    digest.update(b"\x00")
    digest.update(" ".join(_CFLAGS).encode())
    return digest.hexdigest()[:16]


def _compile(compiler: str, library_path: Path) -> None:
    """Compile the source to ``library_path`` atomically (tmp + ``os.replace``)."""
    library_path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(prefix=library_path.name + ".",
                                    suffix=".tmp", dir=library_path.parent)
    os.close(fd)
    try:
        command = [compiler, *_CFLAGS, "-o", tmp_name, str(SOURCE_PATH), "-lm"]
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=300)
        if proc.returncode != 0:
            detail = (proc.stderr or proc.stdout or "").strip()
            raise RuntimeError(
                f"C compile failed ({' '.join(command)}): {detail[:500]}")
        os.replace(tmp_name, library_path)
    finally:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)


class ChainKernel:
    """Loaded native kernel with numpy-aware entry points.

    All methods operate **in place** on the caller's buffers and pass their
    addresses (``array.ctypes.data``) straight to C, so every buffer is
    checked first: a wrong dtype or a non-C-contiguous array raises
    ``ValueError`` instead of corrupting memory.  ctypes foreign calls
    release the GIL, so sharded workers and threaded plan executors overlap
    native time freely.
    """

    def __init__(self, lib, library_path: Path, compiler: str, key: str):
        self._lib = lib
        self.library_path = library_path
        self.compiler = compiler
        self.key = key

    def _check(self, array: np.ndarray, dtype, name: str) -> np.ndarray:
        if array.dtype != dtype or not array.flags.c_contiguous:
            raise ValueError(f"{name} must be C-contiguous {dtype}")
        return array

    def _check_indices(self, array: np.ndarray, size: int, upper: int,
                       name: str) -> None:
        """``array`` holds ``size`` indices, each in ``[0, upper)``."""
        self._check(array, np.intp, name)
        if array.size != size or (size and not 0 <= array.min() <= array.max() < upper):
            raise ValueError(f"{name} must hold {size} indices in [0, {upper})")

    def propagate(self, work: np.ndarray, modes: np.ndarray,
                  thetas: np.ndarray, phis: np.ndarray,
                  output_phases: np.ndarray, transmission: float,
                  transpose: bool = False) -> None:
        """Run the MZI chain + output phases in place on ``(batch, dim)`` work.

        With ``transpose`` the rows walk the transposed mesh instead (phase
        screen first, MZIs in reverse with ``t01``/``t10`` swapped), so basis
        vector ``e_i`` comes out as row ``i`` of the unitary.
        """
        self._check(work, np.complex128, "work")
        self._check(thetas, np.float64, "thetas")
        self._check(phis, np.float64, "phis")
        self._check(output_phases, np.complex128, "output_phases")
        batch, dim = work.shape
        self._check_indices(modes, thetas.size, dim - 1, "modes")
        if phis.size != thetas.size or output_phases.size != dim:
            raise ValueError("phis must hold one entry per MZI and "
                             "output_phases one per mode")
        rc = self._lib.cchain_propagate(
            work.ctypes.data, batch, dim, modes.ctypes.data, modes.size,
            thetas.ctypes.data, phis.ctypes.data,
            output_phases.ctypes.data, float(transmission), int(transpose))
        if rc != 0:
            raise MemoryError("cchain_propagate scratch allocation failed")

    def clements_chain_stack(self, work: np.ndarray, is_left: np.ndarray,
                             op_modes: np.ndarray, op_pivots: np.ndarray,
                             modes: np.ndarray, tol: float):
        """Clements decompositions of a ``(count, n, n)`` stack, ``work`` nulled in place.

        One call runs every matrix's nulling chain and then its push phase.
        ``modes`` is the upper mode of every mesh MZI in application order.
        Returns ``(thetas, phis, output_phases)`` with a leading ``count``
        axis, the phases in application order.
        """
        self._check(work, np.complex128, "work")
        self._check(is_left, np.uint8, "is_left")
        count, n, width = work.shape
        n_ops = is_left.size
        if width != n:
            raise ValueError("work must be a (count, n, n) stack")
        self._check_indices(op_modes, n_ops, n - 1, "op_modes")
        self._check_indices(op_pivots, n_ops, n, "op_pivots")
        self._check_indices(modes, n_ops, n - 1, "modes")
        thetas = np.empty((count, n_ops), dtype=float)
        phis = np.empty((count, n_ops), dtype=float)
        output_phases = np.empty((count, n), dtype=complex)
        rc = self._lib.cchain_clements_chain_stack(
            work.ctypes.data, count, n, is_left.ctypes.data,
            op_modes.ctypes.data, op_pivots.ctypes.data, n_ops,
            modes.ctypes.data, thetas.ctypes.data, phis.ctypes.data,
            output_phases.ctypes.data, float(tol))
        if rc != 0:
            raise MemoryError("cchain_clements_chain_stack scratch allocation failed")
        return thetas, phis, output_phases


def _load_library(library_path: Path, compiler: str, key: str) -> ChainKernel:
    import ctypes

    lib = ctypes.CDLL(str(library_path))
    ptr, long = ctypes.c_void_p, ctypes.c_long
    lib.cchain_propagate.restype = ctypes.c_int
    lib.cchain_propagate.argtypes = [ptr, long, long, ptr, long, ptr, ptr, ptr,
                                     ctypes.c_double, ctypes.c_int]
    lib.cchain_clements_chain_stack.restype = ctypes.c_int
    lib.cchain_clements_chain_stack.argtypes = [ptr, long, long, ptr, ptr, ptr,
                                                long, ptr, ptr, ptr, ptr,
                                                ctypes.c_double]
    return ChainKernel(lib, library_path, compiler, key)


def build_and_load() -> ChainKernel:
    """Compile (if not cached) and load the kernel.  Raises on any failure."""
    compiler = _find_compiler()
    source = SOURCE_PATH.read_bytes()
    key = _cache_key(source, _compiler_identity(compiler))
    library_path = cache_dir() / f"cchain-{key}" / "libcchain.so"
    if not library_path.exists():
        _compile(compiler, library_path)
        logger.info("compiled native cchain kernel with %s -> %s",
                    compiler, library_path)
    return _load_library(library_path, compiler, key)


# --------------------------------------------------------------------------- #
# process-wide singleton
# --------------------------------------------------------------------------- #
_LOCK = threading.Lock()
_KERNEL: Optional[ChainKernel] = None
_ATTEMPTED = False
_LOAD_ERROR: Optional[str] = None


def kernel() -> Optional[ChainKernel]:
    """The loaded native kernel, or None (unavailable or force-disabled).

    The build/load is attempted once per process and the outcome cached; the
    reference switch is re-read on every call.
    """
    if reference.enabled():
        return None
    global _KERNEL, _ATTEMPTED, _LOAD_ERROR
    if not _ATTEMPTED:
        with _LOCK:
            if not _ATTEMPTED:
                try:
                    _KERNEL = build_and_load()
                except Exception as exc:  # noqa: BLE001 - any failure => numpy
                    _KERNEL = None
                    _LOAD_ERROR = f"{type(exc).__name__}: {exc}"
                    logger.info(
                        "native cchain kernel unavailable (%s); "
                        "falling back to the pure-numpy reference paths",
                        _LOAD_ERROR)
                _ATTEMPTED = True
    return _KERNEL


def load_error() -> Optional[str]:
    """The failure message of the last load attempt (None if loaded or unattempted)."""
    return _LOAD_ERROR


def reset() -> None:
    """Forget the cached load outcome (tests re-probe under new env vars)."""
    global _KERNEL, _ATTEMPTED, _LOAD_ERROR
    with _LOCK:
        _KERNEL = None
        _ATTEMPTED = False
        _LOAD_ERROR = None


def build_info() -> dict:
    """Diagnostics for the ``repro backends`` CLI."""
    loaded = kernel()
    info = {
        "available": loaded is not None,
        "forced_reference": reference.enabled(),
        "source": str(SOURCE_PATH),
        "cache_dir": str(cache_dir()),
        "load_error": _LOAD_ERROR,
    }
    if loaded is not None:
        info.update(compiler=loaded.compiler,
                    library=str(loaded.library_path), key=loaded.key)
    return info
