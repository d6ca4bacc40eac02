"""Native (compiled-C) ``cchain`` kernels: the dense-matrix build and the
Clements decompositions.

:meth:`~repro.photonics.mzi_mesh.MeshDecomposition.reconstruct` pushes the
identity through the rotation-chain walk (``leading_columns`` and
``leading_rows`` push only ``k`` basis vectors, the rows through the
transposed walk), and
:func:`~repro.photonics.mzi_mesh.clements_decompose_stack` runs every
matrix's nulling chain and push phase in one call.  The package ships :file:`cchain.c` as
source and compiles it on first use
(:mod:`repro.photonics._native.build`); :func:`kernel` returns the loaded
kernel, or ``None`` when it is unavailable or ``REPRO_FORCE_REFERENCE=1``
(:mod:`repro.reference`), and every caller treats ``None`` as "run the
pure-numpy reference path".  See the build module for the toolchain knobs
(``REPRO_NATIVE_CC``, ``REPRO_NATIVE_CACHE``).
"""

from repro.photonics._native.build import (  # noqa: F401
    ChainKernel,
    build_info,
    cache_dir,
    kernel,
    load_error,
    reset,
)

__all__ = ["ChainKernel", "build_info", "cache_dir", "kernel", "load_error",
           "reset"]
