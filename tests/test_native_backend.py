"""Tests of the native ``cchain`` kernel (:mod:`repro.photonics._native`).

The compiled rotation-chain kernel is an optional accelerator of two
things: the dense-matrix build (:meth:`MeshDecomposition.reconstruct`) and
the Clements nulling chains.  Every test here either pins its output
against the pure-numpy reference paths (``propagate``, ``reference_apply``,
forced-reference decomposition) to 1e-10, or verifies the degradation
contract -- no C toolchain, or ``REPRO_FORCE_REFERENCE=1``, must silently
select the numpy paths with identical results.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro.photonics import _native, engine
from repro.photonics.mzi_mesh import (
    clements_decompose,
    clements_decompose_reference,
    clements_decompose_stack,
    reck_decompose,
)
from repro.photonics.noise import PhaseNoiseModel
from repro.photonics.svd_mapping import svd_decompose

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


def native_walk(mesh, states, insertion_loss_db=0.0):
    return engine.native_propagate(mesh.modes, states, mesh.thetas, mesh.phis,
                                   mesh.output_phases,
                                   insertion_loss_db=insertion_loss_db)


def column_walk(mesh, states, insertion_loss_db=0.0):
    return engine.propagate(mesh.compiled(), states, mesh.thetas, mesh.phis,
                            mesh.output_phases,
                            insertion_loss_db=insertion_loss_db)


def reference_walk(mesh, states, insertion_loss_db=0.0):
    return np.stack([
        engine.reference_apply(mesh.modes, mesh.thetas, mesh.phis,
                               mesh.output_phases, row,
                               insertion_loss_db=insertion_loss_db)
        for row in states])


class TestPropagateParity:
    """``native_propagate`` vs ``propagate`` vs ``reference_apply``."""

    @requires_kernel
    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 13, 16])
    @pytest.mark.parametrize("decompose", [clements_decompose, reck_decompose])
    def test_matches_reference_walk_odd_and_even_dims(self, dim, decompose):
        mesh = decompose(random_unitary(dim, seed=dim))
        states = random_states(4, dim, seed=dim + 1)
        native = native_walk(mesh, states)
        assert np.abs(native - reference_walk(mesh, states)).max() <= PARITY
        assert np.abs(native - column_walk(mesh, states)).max() <= PARITY

    @requires_kernel
    def test_single_row_and_insertion_loss(self):
        mesh = clements_decompose(random_unitary(6, seed=3))
        states = random_states(1, 6, seed=4)
        for loss_db in (0.0, 0.5):
            native = native_walk(mesh, states, insertion_loss_db=loss_db)
            assert native.shape == (1, 6)
            expected = reference_walk(mesh, states, insertion_loss_db=loss_db)
            assert np.abs(native - expected).max() <= PARITY
            assert np.abs(native - column_walk(
                mesh, states, insertion_loss_db=loss_db)).max() <= PARITY

    @requires_kernel
    def test_does_not_mutate_the_input(self):
        mesh = clements_decompose(random_unitary(5, seed=9))
        states = random_states(3, 5)
        before = states.copy()
        native_walk(mesh, states)
        np.testing.assert_array_equal(states, before)


class TestTiledPropagateAndDenseBuild:
    @requires_kernel
    @pytest.mark.parametrize("batch", [1, 7, 8, 9, 19])
    def test_tiled_walk_is_bit_identical_to_one_row_at_a_time(self, batch):
        # the kernel walks tiles of 8 rows; every row must see exactly the
        # arithmetic of a one-row call, whatever the tile boundaries
        mesh = clements_decompose(random_unitary(12, seed=batch))
        states = random_states(batch, 12, seed=batch + 1)
        args = (mesh.thetas, mesh.phis, mesh.output_phases)
        tiled = engine.native_propagate(mesh.modes, states, *args,
                                        insertion_loss_db=0.3)
        rows = np.concatenate([
            engine.native_propagate(mesh.modes, row[None, :], *args,
                                    insertion_loss_db=0.3)
            for row in states])
        assert np.array_equal(tiled, rows)

    @requires_kernel
    @pytest.mark.parametrize("dim", [16, 97, 160])
    @pytest.mark.parametrize("loss_db", [0.0, 0.2])
    def test_native_dense_build_matches_the_column_oracle(self, dim, loss_db):
        mesh = clements_decompose(random_unitary(dim, seed=dim))
        oracle = engine.dense_transfer(mesh.compiled(), mesh.thetas, mesh.phis,
                                       mesh.output_phases,
                                       insertion_loss_db=loss_db)
        built = mesh.reconstruct(insertion_loss_db=loss_db)
        assert np.abs(built - oracle).max() <= 1e-12
        assert np.abs(mesh._dense_matrix(loss_db) - oracle).max() <= 1e-12


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
    work = np.zeros((2, 4, 4), dtype=complex)
    work = work if fault == "int32_index" else work.transpose(0, 2, 1)
    return lambda kernel: kernel.clements_chain_stack(work, is_left, index, index,
                                                      1e-12)


class TestKernelBufferGuards:
    """The kernel hands raw buffer addresses to C: the dtype/contiguity check
    is all that stands between a bad buffer and memory corruption."""

    @requires_kernel
    @pytest.mark.parametrize("fault", ["transposed_work", "int32_index"])
    @pytest.mark.parametrize("method", ["propagate", "clements_chain_stack"])
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
    def test_nonsquare_factors_match_column_program(self, shape):
        rng = np.random.default_rng(sum(shape))
        weight = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        matrix = svd_decompose(weight)
        for mesh in (matrix.left_mesh, matrix.right_mesh):
            states = random_states(3, mesh.dimension, seed=2)
            native = native_walk(mesh, states)
            assert np.abs(native - column_walk(mesh, states)).max() <= PARITY
            assert np.abs(native - reference_walk(mesh, states)).max() <= PARITY
        # and the deployed matrix agrees with the plain matmul it encodes
        states = random_states(3, shape[1], seed=2)
        assert np.abs(matrix.apply(states) - states @ weight.T).max() <= 1e-8

    def test_policy_is_dense_at_any_width_and_column_when_batched(self):
        # a (96, 97) weight factors into a 96-mode and a 97-mode mesh: both
        # run dense, whatever their width
        weights = np.random.default_rng(5).normal(size=(96, 97))
        matrix = svd_decompose(weights)
        assert matrix.left_mesh.dimension == 96
        assert matrix.right_mesh.dimension == 97
        assert matrix.left_mesh.uses_dense_path()
        assert matrix.right_mesh.uses_dense_path()
        assert matrix.uses_dense_path()
        # a trials-batched ensemble of the same mesh runs the column
        # program, kernel or not
        noisy = PhaseNoiseModel.seeded(0.01).perturb(matrix.right_mesh, trials=2)
        assert not noisy.uses_dense_path()


class TestDegradation:
    def test_no_toolchain_silently_selects_numpy(self, no_native, caplog):
        unitary = random_unitary(5, seed=40)
        with caplog.at_level(logging.WARNING):
            assert _native.kernel() is None
            mesh = clements_decompose(unitary)
            spec = clements_decompose_reference(unitary)
            assert np.abs(mesh.thetas - spec.thetas).max() <= PARITY
            assert np.abs(mesh.phis - spec.phis).max() <= PARITY
            assert np.abs(mesh.reconstruct() - unitary).max() <= PARITY
            wide = clements_decompose(random_unitary(97, seed=40))
            assert wide.uses_dense_path()
            states = random_states(2, 97, seed=40)
            assert np.abs(wide.apply(states)
                          - states @ wide.reconstruct().T).max() <= PARITY
        assert not caplog.records                        # silent degradation
        assert "missing-cc" in (_native.load_error() or "")

    def test_native_walk_declines_without_a_toolchain(self, no_native):
        mesh = clements_decompose(random_unitary(4, seed=41))
        # callers fall back to the numpy column program on None
        assert native_walk(mesh, random_states(2, 4)) is None

    def test_force_reference_env_gates_the_kernel(self, monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_REFERENCE", "1")
        assert engine.native_kernel() is None
        unitary = random_unitary(6, seed=42)
        mesh = clements_decompose(unitary)
        spec = clements_decompose_reference(unitary)
        assert np.abs(mesh.thetas - spec.thetas).max() <= PARITY
        assert np.abs(mesh.phis - spec.phis).max() <= PARITY
        monkeypatch.delenv("REPRO_FORCE_REFERENCE")
        # the gate is re-read per call: lifting it restores the kernel
        # without any module reload (when a toolchain exists at all)
        kernel = engine.native_kernel()
        assert (kernel is not None) == (_native.load_error() is None)


class TestCompileEndToEnd:
    @requires_kernel
    def test_kernel_program_matches_forced_reference_program(self, monkeypatch):
        from repro.assignment import get_scheme
        from repro.core.compile import compile as compile_model
        from repro.models import ComplexFCNN

        model = ComplexFCNN(8, (6,), 3, decoder="merge",
                            rng=np.random.default_rng(0))
        images = np.random.default_rng(42).normal(size=(5, 1, 4, 4))
        scheme = get_scheme("SI")
        native = compile_model(model).predict_logits(images, scheme)
        monkeypatch.setenv("REPRO_FORCE_REFERENCE", "1")
        reference = compile_model(model).predict_logits(images, scheme)
        assert np.abs(native - reference).max() <= PARITY

    @requires_kernel
    def test_trials_batched_meshes_stay_on_numpy(self):
        mesh = clements_decompose(random_unitary(6, seed=50))
        noisy = PhaseNoiseModel.seeded(0.01).perturb(mesh, trials=3)
        assert noisy.is_batched
        # the ensemble path is vectorized numpy by design: the kernel
        # declines batched phases and apply runs the column program
        states = random_states(2, 6)
        assert native_walk(noisy, states) is None
        applied = noisy.apply(states)
        assert applied.shape == (3, 2, 6)
        assert np.array_equal(applied, column_walk(noisy, states))
