"""Tests of the native ``cchain`` kernel (:mod:`repro.photonics._native`).

The compiled rotation-chain kernel is an optional accelerator of two
things: the dense-matrix build (:meth:`MeshDecomposition.reconstruct` and
the rank-``k`` :meth:`PhotonicMatrix.matrix`) and the Clements
decompositions (nulling chain plus push phase).  Every test here either
pins its output against the pure-numpy reference paths (``propagate``,
``reference_apply``, ``_clements_finalize``, forced-reference
decomposition), or verifies the degradation contract -- no C toolchain, or
``REPRO_FORCE_REFERENCE=1``, must silently select the numpy paths with
identical results.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro.photonics import _native, engine
from repro.photonics.mzi_mesh import (
    NULL_TOLERANCE,
    _clements_oplist,
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


class TestRankKMatrix:
    """``PhotonicMatrix.matrix`` builds only the ``k = min(rows, cols)``
    columns of ``U`` and rows of ``V*`` that ``diag(S)`` keeps."""

    SHAPES = [(7, 3), (3, 9), (5, 5), (1, 6), (6, 1), (20, 97)]

    @staticmethod
    def full_product(photonic) -> np.ndarray:
        left = photonic.left_mesh.reconstruct()
        right = photonic.right_mesh.reconstruct()
        diag = np.zeros((photonic.rows, photonic.cols))
        k = min(photonic.rows, photonic.cols)
        diag[np.arange(k), np.arange(k)] = photonic.singular_values
        return photonic.scale * (left @ diag @ right)

    @staticmethod
    def assert_close(got: np.ndarray, expected: np.ndarray) -> None:
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("reference_paths", [False, True],
                             ids=["kernel", "forced_reference"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_the_full_product(self, shape, reference_paths, monkeypatch):
        if reference_paths:
            monkeypatch.setenv("REPRO_FORCE_REFERENCE", "1")
        elif _native.kernel() is None:
            pytest.skip(f"native kernel unavailable: {_native.load_error()}")
        rng = np.random.default_rng(sum(shape))
        weight = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        photonic = svd_decompose(weight)
        self.assert_close(photonic.matrix(), self.full_product(photonic))
        assert np.abs(photonic.matrix() - weight).max() <= 1e-10

    @pytest.mark.parametrize("shape", SHAPES)
    def test_trials_batched_meshes_keep_their_trials_axes(self, shape):
        import dataclasses

        rng = np.random.default_rng(len(shape) + shape[0])
        photonic = svd_decompose(rng.normal(size=shape))
        noise = PhaseNoiseModel.seeded(0.02, seed=7)
        noisy = dataclasses.replace(
            photonic,
            left_mesh=noise.perturb(photonic.left_mesh, trials=2),
            right_mesh=noise.perturb(photonic.right_mesh, trials=2))
        matrix = noisy.matrix()
        assert matrix.shape == (2,) + shape
        self.assert_close(matrix, self.full_product(noisy))

    @requires_kernel
    @pytest.mark.parametrize("dim", [1, 2, 7, 97])
    def test_leading_blocks_slice_the_unitary(self, dim):
        mesh = clements_decompose(random_unitary(dim, seed=dim))
        full = engine.dense_transfer(mesh.compiled(), mesh.thetas, mesh.phis,
                                     mesh.output_phases)
        for k in sorted({1, (dim + 1) // 2, dim}):
            assert np.abs(mesh.leading_columns(k) - full[:, :k]).max() <= 1e-12
            assert np.abs(mesh.leading_rows(k) - full[:k, :]).max() <= 1e-12

    @requires_kernel
    @pytest.mark.parametrize("batch", [1, 8, 9, 19])
    def test_transposed_walk_is_the_transposed_mesh(self, batch):
        mesh = clements_decompose(random_unitary(12, seed=batch))
        states = random_states(batch, 12, seed=batch + 1)
        args = (mesh.thetas, mesh.phis, mesh.output_phases)
        walked = engine.native_propagate(mesh.modes, states, *args,
                                         insertion_loss_db=0.3, transpose=True)
        dense = engine.dense_transfer(mesh.compiled(), *args, insertion_loss_db=0.3)
        assert np.abs(walked - states @ dense).max() <= 1e-12
        # tiles of 8 rows: every row sees the arithmetic of a one-row call
        rows = np.concatenate([
            engine.native_propagate(mesh.modes, row[None, :], *args,
                                    insertion_loss_db=0.3, transpose=True)
            for row in states])
        assert np.array_equal(walked, rows)


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

    @requires_kernel
    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    @pytest.mark.parametrize("dim", [2, 3, 7, 97, 144, 160])
    def test_nulled_stack_is_diagonal(self, dim, count):
        # the native chain skips the pair entries that earlier ops already
        # nulled; every matrix must still end diagonal with unit-modulus
        # entries, far inside the 1e-6 of the decomposition's own check
        stack = np.stack([random_unitary(dim, seed=100 * dim + s)
                          for s in range(count)])
        ops = _clements_oplist(dim)
        _native.kernel().clements_chain_stack(
            stack, ops.is_left.view(np.uint8), ops.op_modes, ops.op_pivots,
            ops.modes, NULL_TOLERANCE)
        index = np.arange(dim)
        magnitude = np.abs(stack)
        assert np.abs(magnitude[:, index, index] - 1.0).max() <= 1e-12
        magnitude[:, index, index] = 0.0
        assert magnitude.max() <= 1e-12


def degenerate_unitary(kind: str, dim: int) -> np.ndarray:
    """Unitaries whose nulling hits exact zeros and real pivots."""
    rng = np.random.default_rng(dim)
    if kind == "identity":
        return np.eye(dim, dtype=complex)
    if kind == "permutation":
        return np.eye(dim, dtype=complex)[rng.permutation(dim)]
    if kind == "phase_screen":
        return np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, dim)))
    half = dim // 2                                         # block_diagonal
    block = np.zeros((dim, dim), dtype=complex)
    block[:half, :half] = random_unitary(half, seed=dim)
    block[half:, half:] = random_unitary(dim - half, seed=dim + 1)
    return block


def decompositions(stack: np.ndarray, monkeypatch, push: str):
    """``(thetas, phis, output_phases)`` of a stack, application order.

    ``push="native"`` runs the kernel (chain and push in C), ``"numpy"`` the
    forced-reference path (numpy chain, then ``_clements_finalize``).
    """
    with monkeypatch.context() as patch:
        if push == "numpy":
            patch.setenv("REPRO_FORCE_REFERENCE", "1")
        meshes = clements_decompose_stack(stack)
    return tuple(np.stack([getattr(mesh, name) for mesh in meshes])
                 for name in ("thetas", "phis", "output_phases"))


def assert_push_parity(stack: np.ndarray, monkeypatch) -> None:
    native = decompositions(stack, monkeypatch, "native")
    numpy_push = decompositions(stack, monkeypatch, "numpy")
    thetas, phis, output_phases = (np.abs(got - expected)
                                   for got, expected in zip(native, numpy_push))
    # the two chains round differently, and the phi of a nearly dark pivot
    # magnifies that (measured <= 2.3e-12 at n = 97 and 160); a phi on the
    # +-pi branch cut may come out 2 pi apart, which is the same MZI
    phis = np.minimum(phis, np.abs(phis - 2 * np.pi))
    assert thetas.max(initial=0.0) <= 1e-12
    assert phis.max(initial=0.0) <= 5e-12
    assert output_phases.max() <= 1e-12
    for mesh, unitary in zip(clements_decompose_stack(stack), stack):
        assert np.abs(mesh.reconstruct() - unitary).max() <= PARITY


class TestPushPhaseParity:
    """Native decompositions (chain and push in C) against the numpy ones
    (numpy chain, then the ``_clements_finalize`` push)."""

    @requires_kernel
    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    @pytest.mark.parametrize("dim", [2, 3, 4, 7, 16, 97, 160])
    def test_random_unitary_stacks(self, dim, count, monkeypatch):
        stack = np.stack([random_unitary(dim, seed=100 * dim + index)
                          for index in range(count)])
        assert_push_parity(stack, monkeypatch)

    @requires_kernel
    @pytest.mark.parametrize("dim", [2, 3, 7, 16, 97])
    @pytest.mark.parametrize("kind", ["identity", "permutation", "phase_screen",
                                      "block_diagonal"])
    def test_degenerate_unitaries(self, kind, dim, monkeypatch):
        assert_push_parity(degenerate_unitary(kind, dim)[None], monkeypatch)

    @requires_kernel
    @pytest.mark.parametrize("count", [2, 3, 4, 5, 9])
    def test_lane_groups_match_single_decompositions(self, count):
        # the kernel nulls up to four matrices at once in vector lanes: a
        # matrix's lane and its lane mates must not change a bit
        stack = np.stack([random_unitary(11, seed=s) for s in range(count)])
        for mesh, unitary in zip(clements_decompose_stack(stack), stack):
            single = clements_decompose(unitary)
            np.testing.assert_array_equal(mesh.thetas, single.thetas)
            np.testing.assert_array_equal(mesh.phis, single.phis)
            np.testing.assert_array_equal(mesh.output_phases, single.output_phases)
            np.testing.assert_array_equal(mesh.modes, _clements_oplist(11).modes)


def _guard_call(method: str, fault: str):
    """A kernel call whose ``fault`` argument is the only bad kind of buffer.

    ``int32_index`` makes every index array int32; ``int32_modes``,
    ``short_modes`` and ``mode_out_of_range`` spoil only the
    application-order ``modes`` array.
    """
    def index(name: str) -> np.ndarray:
        if name != "modes" and fault != "int32_index":
            return np.zeros(3, dtype=np.intp)
        if fault == "short_modes":
            return np.zeros(2, dtype=np.intp)
        if fault == "mode_out_of_range":
            return np.array([0, 0, 3], dtype=np.intp)      # width 4: top mode 2
        return np.zeros(3, dtype=np.int32 if fault.startswith("int32") else np.intp)

    if method.startswith("propagate"):
        work = np.zeros((2, 4), dtype=complex)
        work = work if fault != "transposed_work" else np.zeros((4, 2), complex).T
        return lambda kernel: kernel.propagate(
            work, index("modes"), np.zeros(3), np.zeros(3),
            np.ones(4, dtype=complex), 1.0,
            transpose=method == "propagate_transposed")
    work = np.zeros((2, 4, 4), dtype=complex)
    work = work if fault != "transposed_work" else work.transpose(0, 2, 1)
    return lambda kernel: kernel.clements_chain_stack(
        work, np.zeros(3, dtype=np.uint8), index("op_modes"), index("op_pivots"),
        index("modes"), 1e-12)


class TestKernelBufferGuards:
    """The kernel hands raw buffer addresses to C: the dtype/contiguity check
    is all that stands between a bad buffer and memory corruption."""

    @requires_kernel
    @pytest.mark.parametrize("fault", ["transposed_work", "int32_index",
                                       "int32_modes"])
    @pytest.mark.parametrize("method", ["propagate", "propagate_transposed",
                                        "clements_chain_stack"])
    def test_bad_buffers_raise_before_reaching_c(self, method, fault):
        call = _guard_call(method, fault)
        with pytest.raises(ValueError, match="C-contiguous"):
            call(_native.kernel())

    @requires_kernel
    @pytest.mark.parametrize("fault", ["short_modes", "mode_out_of_range"])
    @pytest.mark.parametrize("method", ["propagate", "propagate_transposed",
                                        "clements_chain_stack"])
    def test_index_sizes_and_bounds_are_checked_before_c(self, method, fault):
        call = _guard_call(method, fault)
        with pytest.raises(ValueError, match="indices in"):
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
