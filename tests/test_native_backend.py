"""Tests of the native ``cchain`` backend (:mod:`repro.photonics._native`).

The compiled rotation-chain kernel is an optional accelerator behind the
existing backend seam: every test here either pins its output against the
pure-numpy reference paths (``reference_apply``, forced-reference
decomposition) to 1e-10, or verifies the degradation contract -- no C
toolchain, or ``REPRO_FORCE_REFERENCE=1``, must silently select the numpy
paths with identical results.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro.photonics import _native, engine, mzi_mesh
from repro.photonics.mzi_mesh import (
    MeshDecomposition,
    clements_decompose,
    clements_decompose_stack,
    reck_decompose,
)
from repro.photonics.svd_mapping import chain_backend, stack_threshold, svd_decompose

requires_kernel = pytest.mark.skipif(
    _native.kernel() is None,
    reason=f"native kernel unavailable: {_native.load_error()}")

PARITY = 1e-10


def random_unitary(dim: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    gaussian = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(gaussian)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_states(batch: int, dim: int, seed: int = 1) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(batch, dim)) + 1j * rng.normal(size=(batch, dim))


@pytest.fixture
def no_native(monkeypatch, tmp_path):
    """Simulate a machine with no C toolchain (and no cached build)."""
    monkeypatch.setenv("REPRO_NATIVE_CC", str(tmp_path / "missing-cc"))
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "native-cache"))
    monkeypatch.delenv("REPRO_FORCE_REFERENCE", raising=False)
    _native.reset()
    yield
    _native.reset()      # next kernel() call re-probes under the real env


class TestPropagateParity:
    @requires_kernel
    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 13, 16])
    @pytest.mark.parametrize("decompose", [clements_decompose, reck_decompose])
    def test_matches_reference_walk_odd_and_even_dims(self, dim, decompose):
        mesh = decompose(random_unitary(dim, seed=dim))
        mesh.backend = "cchain"
        assert mesh.resolve_backend() == "cchain"
        states = random_states(4, dim, seed=dim + 1)
        expected = np.stack([
            engine.reference_apply(mesh.modes, mesh.thetas, mesh.phis,
                                   mesh.output_phases, row)
            for row in states])
        assert np.abs(mesh.apply(states) - expected).max() <= PARITY

    @requires_kernel
    def test_single_vector_and_insertion_loss(self):
        mesh = clements_decompose(random_unitary(6, seed=3))
        mesh.backend = "cchain"
        state = random_states(1, 6, seed=4)[0]
        for loss_db in (0.0, 0.5):
            expected = engine.reference_apply(mesh.modes, mesh.thetas,
                                              mesh.phis, mesh.output_phases,
                                              state, insertion_loss_db=loss_db)
            got = mesh.apply(state, insertion_loss_db=loss_db)
            assert got.shape == (6,)
            assert np.abs(got - expected).max() <= PARITY

    @requires_kernel
    def test_does_not_mutate_the_input(self):
        mesh = clements_decompose(random_unitary(5, seed=9))
        mesh.backend = "cchain"
        states = random_states(3, 5)
        before = states.copy()
        mesh.apply(states)
        np.testing.assert_array_equal(states, before)


class TestDecompositionChainParity:
    @requires_kernel
    @pytest.mark.parametrize("dim", [3, 4, 7, 10])
    def test_single_matrix_chain_matches_forced_reference(self, dim, monkeypatch):
        unitary = random_unitary(dim, seed=20 + dim)
        native = clements_decompose(unitary)
        monkeypatch.setenv("REPRO_FORCE_REFERENCE", "1")
        reference = clements_decompose(unitary)
        assert np.abs(native.thetas - reference.thetas).max() <= PARITY
        assert np.abs(native.phis - reference.phis).max() <= PARITY
        assert np.abs(native.output_phases
                      - reference.output_phases).max() <= PARITY
        assert np.abs(native.reconstruct() - unitary).max() <= PARITY

    @requires_kernel
    def test_stacked_chains_match_forced_reference(self, monkeypatch):
        stack = np.stack([random_unitary(6, seed=s) for s in range(4)])
        native = clements_decompose_stack(stack)
        monkeypatch.setenv("REPRO_FORCE_REFERENCE", "1")
        reference = clements_decompose_stack(stack)
        for mesh_native, mesh_reference, unitary in zip(native, reference, stack):
            assert np.abs(mesh_native.thetas
                          - mesh_reference.thetas).max() <= PARITY
            assert np.abs(mesh_native.phis
                          - mesh_reference.phis).max() <= PARITY
            assert np.abs(mesh_native.reconstruct() - unitary).max() <= PARITY


def _guard_call(method: str, fault: str):
    """A kernel call whose ``fault`` argument is the only bad buffer."""
    is_left = np.zeros(3, dtype=np.uint8)
    index = np.zeros(3, dtype=np.int32 if fault == "int32_index" else np.intp)
    if method == "propagate":
        work = np.zeros((4, 2), dtype=complex)
        work = work if fault == "int32_index" else work.T    # (2, 4) view
        return lambda kernel: kernel.propagate(
            work, index, np.zeros(3), np.zeros(3), np.ones(4, dtype=complex), 1.0)
    if method == "clements_chain":
        work = np.zeros((4, 4), dtype=complex)
        work = work if fault == "int32_index" else work.T
        return lambda kernel: kernel.clements_chain(work, is_left, index, index, 1e-12)
    work = np.zeros((2, 4, 4), dtype=complex)
    work = work if fault == "int32_index" else work.transpose(0, 2, 1)
    return lambda kernel: kernel.clements_chain_stack(work, is_left, index, index,
                                                      1e-12)


class TestKernelBufferGuards:
    """The kernel hands raw buffer addresses to C: the dtype/contiguity check
    is all that stands between a bad buffer and memory corruption."""

    @requires_kernel
    @pytest.mark.parametrize("fault", ["transposed_work", "int32_index"])
    @pytest.mark.parametrize("method", ["propagate", "clements_chain",
                                        "clements_chain_stack"])
    def test_bad_buffers_raise_before_reaching_c(self, method, fault):
        call = _guard_call(method, fault)
        with pytest.raises(ValueError, match="C-contiguous"):
            call(_native.kernel())

    def test_one_ctypes_binding(self):
        assert "binding" not in _native.build_info()
        kernel = _native.kernel()
        if kernel is not None:
            import ctypes

            assert type(kernel) is _native.ChainKernel
            assert isinstance(kernel._lib, ctypes.CDLL)


class TestSvdFactors:
    @requires_kernel
    @pytest.mark.parametrize("shape", [(7, 4), (4, 9), (5, 5), (1, 6)])
    def test_nonsquare_factors_match_column_backend(self, shape):
        rng = np.random.default_rng(sum(shape))
        weight = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        native = svd_decompose(weight, backend="cchain")
        column = svd_decompose(weight, backend="column")
        states = random_states(3, shape[1], seed=2)
        assert np.abs(native.apply(states) - column.apply(states)).max() <= PARITY
        # and both agree with the plain matmul the SVD factors encode
        assert np.abs(native.apply(states) - states @ weight.T).max() <= 1e-8

    def test_auto_policy_switches_to_the_chain_above_the_dense_limit(self):
        # a (96, 97) weight factors into a 96-mode and a 97-mode mesh: the
        # first sits exactly at DENSE_DIMENSION_LIMIT, the second just above
        assert engine.DENSE_DIMENSION_LIMIT == 96
        rng = np.random.default_rng(5)
        matrix = svd_decompose(rng.normal(size=(96, 97)), backend="auto")
        assert matrix.left_mesh.dimension == 96
        assert matrix.left_mesh.resolve_backend() == "dense"
        assert matrix.right_mesh.dimension == 97
        # the native kernel when loaded; the column program under
        # REPRO_FORCE_REFERENCE=1 or without a C toolchain
        chain = "column" if _native.kernel() is None else "cchain"
        assert matrix.right_mesh.resolve_backend() == chain


class TestDegradation:
    def test_no_toolchain_silently_selects_numpy(self, no_native, caplog):
        unitary = random_unitary(5, seed=40)
        with caplog.at_level(logging.WARNING):
            assert _native.kernel() is None
            assert chain_backend() == "numpy"
            assert stack_threshold("clements") == 3      # numpy threshold
            mesh = clements_decompose(unitary)
            assert np.abs(mesh.reconstruct() - unitary).max() <= PARITY
            above = clements_decompose(random_unitary(97, seed=40))
            assert above.resolve_backend() == "column"   # auto, no warning
        assert not caplog.records                        # silent degradation
        assert "missing-cc" in (_native.load_error() or "")

    def test_forced_cchain_without_toolchain_warns_and_falls_back(
            self, no_native, caplog, monkeypatch):
        monkeypatch.setattr(mzi_mesh, "_NATIVE_FALLBACK_LOGGED", False)
        mesh = clements_decompose(random_unitary(4, seed=41))
        mesh.backend = "cchain"
        with caplog.at_level(logging.WARNING, logger="repro.photonics.mzi_mesh"):
            assert mesh.resolve_backend() == "column"
            assert mesh.resolve_backend() == "column"
        fallback_logs = [record for record in caplog.records
                         if "cchain" in record.getMessage()]
        assert len(fallback_logs) == 1                   # once per process

    def test_force_reference_env_gates_the_kernel(self, monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_REFERENCE", "1")
        assert engine.native_kernel() is None
        assert chain_backend() == "numpy"
        monkeypatch.delenv("REPRO_FORCE_REFERENCE")
        # the gate is re-read per call: lifting it restores the kernel
        # without any module reload (when a toolchain exists at all)
        kernel = engine.native_kernel()
        assert (kernel is not None) == (_native.load_error() is None)


class TestCompileEndToEnd:
    @requires_kernel
    def test_cchain_program_matches_column_program(self):
        from repro.assignment import get_scheme
        from repro.core.compile import CompileOptions
        from repro.core.compile import compile as compile_model
        from repro.models import ComplexFCNN

        model = ComplexFCNN(8, (6,), 3, decoder="merge",
                            rng=np.random.default_rng(0))
        images = np.random.default_rng(42).normal(size=(5, 1, 4, 4))
        scheme = get_scheme("SI")
        native = compile_model(model, options=CompileOptions(backend="cchain"))
        column = compile_model(model, options=CompileOptions(backend="column"))
        assert np.abs(native.predict_logits(images, scheme)
                      - column.predict_logits(images, scheme)).max() <= PARITY

    @requires_kernel
    def test_trials_batched_meshes_stay_on_numpy(self):
        from repro.photonics.noise import PhaseNoiseModel

        mesh = clements_decompose(random_unitary(6, seed=50))
        noisy = PhaseNoiseModel.seeded(0.01).perturb(mesh, trials=3)
        assert noisy.is_batched
        noisy.backend = "cchain"
        # the ensemble path is vectorized numpy by design; forcing cchain on
        # a batched mesh quietly resolves to the column program
        assert noisy.resolve_backend() == "column"
        states = random_states(2, 6)
        assert noisy.apply(states).shape == (3, 2, 6)
