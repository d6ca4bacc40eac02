"""Micro-benchmarks of the native ``cchain`` kernel vs the numpy paths.

Records to ``benchmarks/latest/backend_kernel.json``:

* **Propagation** -- the compiled C rotation-chain walk
  (:func:`repro.photonics.engine.native_propagate`) against the vectorized
  numpy column program on the same mesh/batch, per dimension.
* **Clements chain decomposition** -- the native nulling chain against the
  pure-numpy chain on stacks of one, two and four matrices.  The
  two-matrix stack is the headline row: numpy still runs the scalar chain
  once per matrix there (below ``BATCHED_CHAIN_MIN_STACK``), and CI pins a
  conservative 1.5x floor on the kernel's gain.
* **Warm dense apply** -- the cached dense transfer matmul against the
  column program and, when loaded, the native kernel, at the widths the
  plan now fuses (16, 96, 144, 160): every unbatched mesh runs the dense
  path, so it must win at each of them.
* **Push phase** -- the numpy Clements push phase (commuting the left ops
  through the output phase screen, ``mzi_mesh._clements_finalize``), timed
  from the numpy chain's own output, against the whole native decomposition
  (chain and push in one C call) at 16, 96 and 160 modes; the two
  decompositions are parity-pinned as in the tests.  Recorded with no
  floor: the numpy push is what a host without a C toolchain runs, so its
  cost stays visible.
* **Dense build** -- the native identity build
  (:meth:`~repro.photonics.mzi_mesh.MeshDecomposition.reconstruct` on the
  kernel) against the column-program oracle :func:`engine.dense_transfer`,
  parity-pinned to 1e-12, with a conservative 2x floor at 160 modes: the
  plan builds every fused stage's unitaries this way at compile time.

Without a C toolchain, or under the reference switch
(:func:`repro.reference.enabled`), every kernel test here auto-skips with a
logged reason and the JSON records ``skip_reason`` instead of timings, so
the artifact always says *why* numbers are absent (the dense rows then time
the column program only).  All timed paths are parity-pinned to the numpy
reference at 1e-10 before any floor is asserted.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest

from bench_preset import bench_preset_name
from repro import reference
from repro.experiments.reporting import save_json, time_interleaved
from repro.photonics import _native, engine, random_unitary
from repro.photonics.mzi_mesh import (
    NULL_TOLERANCE,
    _clements_chain_scalar,
    _clements_finalize,
    _clements_oplist,
    clements_decompose,
    clements_decompose_stack,
)

logger = logging.getLogger("repro.benchmarks.backend_kernel")

PARITY = 1e-10

_results: dict = {
    "native_kernel": None,
    "skip_reason": None,
    "propagate": [],
    "clements_chain": [],
    "dense_apply": [],
    "dense_build": [],
    "push_phase": [],
}


def _save(results_dir) -> None:
    _results["native_kernel"] = _native.build_info()
    save_json(_results, results_dir / "backend_kernel.json")


def _require_kernel(results_dir):
    """Skip (with a recorded reason) when the native kernel is unavailable."""
    if _native.kernel() is not None:
        return
    if reference.enabled():
        reason = "disabled by REPRO_FORCE_REFERENCE"
    else:
        reason = _native.load_error() or "kernel not loaded"
    _results["skip_reason"] = reason
    _save(results_dir)
    logger.warning("skipping native kernel benchmark: %s", reason)
    pytest.skip(f"native cchain kernel unavailable: {reason}")


def test_native_propagate_vs_column_program(results_dir):
    _require_kernel(results_dir)
    dims = (16, 32) if bench_preset_name() == "smoke" else (16, 32, 64, 128)
    batch = 32
    rng = np.random.default_rng(0)
    for dim in dims:
        mesh = clements_decompose(random_unitary(dim, rng))
        program = mesh.compiled()
        states = rng.normal(size=(batch, dim)) + 1j * rng.normal(size=(batch, dim))
        native = engine.native_propagate(mesh.modes, states, mesh.thetas,
                                         mesh.phis, mesh.output_phases)
        column = engine.propagate(program, states, mesh.thetas, mesh.phis,
                                  mesh.output_phases)
        parity = float(np.abs(native - column).max())
        assert parity <= PARITY
        native_timing, column_timing = time_interleaved(
            lambda: engine.native_propagate(mesh.modes, states, mesh.thetas,
                                            mesh.phis, mesh.output_phases),
            lambda: engine.propagate(program, states, mesh.thetas, mesh.phis,
                                     mesh.output_phases),
            rounds=5)
        _results["propagate"].append({
            "dimension": dim, "batch": batch,
            "native_seconds": native_timing.min_s,
            "native_p50_seconds": native_timing.p50_s,
            "column_seconds": column_timing.min_s,
            "column_p50_seconds": column_timing.p50_s,
            "speedup": column_timing.min_s / native_timing.min_s,
            "parity": parity,
        })
    _save(results_dir)
    # the C walk must not lose badly to the vectorized column program
    # anywhere; where it wins is machine-dependent and recorded, not pinned
    assert all(row["speedup"] >= 0.5 for row in _results["propagate"])


@pytest.mark.parametrize("stack_size", [1, 2, 4])
def test_clements_chain_vs_numpy(results_dir, stack_size):
    """Native Clements nulling chain vs the pure-numpy chain.

    ``stack_size == 2`` is the CI-pinned row: the two-matrix stacked
    decomposition through the C kernel must be at least 1.5x faster than
    the pure-numpy chain over the same matrices.
    """
    _require_kernel(results_dir)
    dimension = 16 if bench_preset_name() == "smoke" else 32
    rng = np.random.default_rng(stack_size)
    stack = np.stack([random_unitary(dimension, rng) for _ in range(stack_size)])

    def decompose_native():
        return clements_decompose_stack(stack)

    def decompose_numpy():
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_FORCE_REFERENCE", "1")
            return clements_decompose_stack(stack)

    native_meshes = decompose_native()
    numpy_meshes = decompose_numpy()
    parity = max(
        max(float(np.abs(a.thetas - b.thetas).max()),
            float(np.abs(a.phis - b.phis).max()),
            float(np.abs(a.output_phases - b.output_phases).max()),
            float(np.abs(a.reconstruct() - unitary).max()))
        for a, b, unitary in zip(native_meshes, numpy_meshes, stack))
    assert parity <= PARITY

    native_timing, numpy_timing = time_interleaved(decompose_native,
                                                   decompose_numpy, rounds=5)
    speedup = numpy_timing.min_s / native_timing.min_s
    _results["clements_chain"].append({
        "dimension": dimension, "stack_size": stack_size,
        "native_seconds": native_timing.min_s,
        "native_p50_seconds": native_timing.p50_s,
        "numpy_seconds": numpy_timing.min_s,
        "numpy_p50_seconds": numpy_timing.p50_s,
        "speedup": speedup,
        "parity": parity,
    })
    _save(results_dir)
    if stack_size == 2:
        # the CI floor of the issue: two-matrix Clements stack through the
        # kernel vs the pure-numpy chain (measured well above this; the
        # floor leaves room for shared-runner noise)
        assert speedup >= 1.5, (
            f"two-matrix Clements stack only {speedup:.2f}x over numpy")


@pytest.mark.parametrize("dimension", [16, 96, 160])
def test_push_phase_native_vs_numpy(results_dir, dimension):
    """Numpy push phase vs the whole native decomposition: no floor."""
    _require_kernel(results_dir)
    kernel = _native.kernel()
    ops = _clements_oplist(dimension)
    stack = random_unitary(dimension, np.random.default_rng(dimension))[None]

    def native():
        return kernel.clements_chain_stack(
            stack.copy(), ops.is_left.view(np.uint8), ops.op_modes,
            ops.op_pivots, ops.modes, NULL_TOLERANCE)

    # the numpy push runs on the numpy chain's output (nulling-op order)
    nulled = stack.copy()
    chain_thetas = np.empty((1, ops.op_modes.size))
    chain_phis = np.empty_like(chain_thetas)
    _clements_chain_scalar(nulled[0], ops.is_left, ops.op_modes, ops.op_pivots,
                           chain_thetas[0], chain_phis[0])

    def numpy_push():
        return _clements_finalize(nulled, ops, chain_thetas, chain_phis)

    thetas, phis, output_phases = (np.abs(got - expected) for got, expected
                                   in zip(native(), numpy_push()))
    phis = np.minimum(phis, np.abs(phis - 2 * np.pi))      # +-pi branch cut
    parity = {"thetas": float(thetas.max()), "phis": float(phis.max()),
              "output_phases": float(output_phases.max())}
    # the tests' bounds: the chains' rounding reaches phi at ~2e-12
    assert parity["thetas"] <= 1e-12 and parity["output_phases"] <= 1e-12
    assert parity["phis"] <= 5e-12
    native_timing, push_timing = time_interleaved(native, numpy_push, rounds=5)
    _results["push_phase"].append({
        "dimension": dimension,
        "native_decomposition_seconds": native_timing.min_s,
        "native_decomposition_p50_seconds": native_timing.p50_s,
        "numpy_push_seconds": push_timing.min_s,
        "numpy_push_p50_seconds": push_timing.p50_s,
        "parity": parity,
    })
    _save(results_dir)


@pytest.mark.parametrize("dimension", [16, 96, 144, 160])
def test_warm_dense_apply_beats_chain_backends(results_dir, dimension):
    """The cached dense matmul must beat every chain walk at the fused widths."""
    batch = 32
    rng = np.random.default_rng(dimension)
    mesh = clements_decompose(random_unitary(dimension, rng))
    program = mesh.compiled()
    states = rng.normal(size=(batch, dimension)) + 1j * rng.normal(size=(batch, dimension))
    dense = engine.dense_transfer(program, mesh.thetas, mesh.phis, mesh.output_phases)
    column = engine.propagate(program, states, mesh.thetas, mesh.phis,
                              mesh.output_phases)
    assert np.abs(states @ dense.T - column).max() <= PARITY

    backends = {
        "dense": lambda: states @ dense.T,
        "column": lambda: engine.propagate(program, states, mesh.thetas,
                                           mesh.phis, mesh.output_phases),
    }
    if _native.kernel() is not None:
        backends["cchain"] = lambda: engine.native_propagate(
            mesh.modes, states, mesh.thetas, mesh.phis, mesh.output_phases)
    timings = dict(zip(backends, time_interleaved(*backends.values(), rounds=5)))
    seconds = {"cchain": None, **{name: timing.min_s for name, timing in timings.items()}}
    _results["dense_apply"].append({
        "dimension": dimension, "batch": batch, "backend_seconds": seconds,
        "backend_p50_seconds": {name: timing.p50_s for name, timing in timings.items()}})
    _save(results_dir)
    for backend in ("column", "cchain"):
        if seconds[backend] is not None:
            assert seconds["dense"] < seconds[backend], (backend, seconds)


@pytest.mark.parametrize("dimension", [96, 160])
def test_native_dense_build_vs_column_oracle(results_dir, dimension):
    """The native identity build must match and clearly beat dense_transfer."""
    _require_kernel(results_dir)
    rng = np.random.default_rng(dimension)
    mesh = clements_decompose(random_unitary(dimension, rng))
    program = mesh.compiled()

    def oracle():
        return engine.dense_transfer(program, mesh.thetas, mesh.phis,
                                     mesh.output_phases)

    parity = float(np.abs(mesh.reconstruct() - oracle()).max())
    assert parity <= 1e-12
    native_timing, column_timing = time_interleaved(mesh.reconstruct, oracle,
                                                    rounds=5)
    speedup = column_timing.min_s / native_timing.min_s
    _results["dense_build"].append({
        "dimension": dimension, "native_seconds": native_timing.min_s,
        "native_p50_seconds": native_timing.p50_s,
        "column_seconds": column_timing.min_s,
        "column_p50_seconds": column_timing.p50_s, "speedup": speedup,
        "parity": parity,
    })
    _save(results_dir)
    if dimension == 160:
        # the CI floor: measured around 4x on a 2-vCPU host; the floor
        # leaves room for shared-runner noise
        assert speedup >= 2.0, f"native dense build only {speedup:.2f}x"
