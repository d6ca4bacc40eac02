"""Tests of the Reck/Clements MZI mesh decompositions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.photonics import (
    MeshDecomposition,
    MZISetting,
    clements_decompose,
    decompose_unitary,
    is_unitary,
    mzi_count_unitary,
    random_unitary,
    reck_decompose,
)
from repro.photonics.mzi_mesh import (
    clements_decompose_reference,
    reck_decompose_reference,
)


class TestRandomUnitary:
    def test_is_unitary(self, rng):
        for n in (1, 2, 5, 9):
            assert is_unitary(random_unitary(n, rng))

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            random_unitary(0)

    def test_is_unitary_rejects_non_square_and_non_unitary(self, rng):
        assert not is_unitary(rng.normal(size=(3, 4)))
        assert not is_unitary(rng.normal(size=(3, 3)) * 5)


@pytest.mark.parametrize("decompose", [reck_decompose, clements_decompose],
                         ids=["reck", "clements"])
class TestDecompositions:
    @pytest.mark.parametrize("dimension", [1, 2, 3, 5, 8, 13])
    def test_reconstruction(self, decompose, dimension, rng):
        unitary = random_unitary(dimension, rng)
        mesh = decompose(unitary)
        assert np.allclose(mesh.reconstruct(), unitary, atol=1e-9)

    @pytest.mark.parametrize("dimension", [2, 4, 7])
    def test_mzi_count_formula(self, decompose, dimension, rng):
        mesh = decompose(random_unitary(dimension, rng))
        assert mesh.mzi_count == mzi_count_unitary(dimension)
        assert mesh.phase_shifter_count == 2 * mesh.mzi_count + dimension

    def test_apply_matches_matrix_product(self, decompose, rng):
        unitary = random_unitary(6, rng)
        mesh = decompose(unitary)
        vector = rng.normal(size=6) + 1j * rng.normal(size=6)
        assert np.allclose(mesh.apply(vector), unitary @ vector, atol=1e-9)

    def test_apply_batched(self, decompose, rng):
        unitary = random_unitary(5, rng)
        mesh = decompose(unitary)
        batch = rng.normal(size=(7, 5)) + 1j * rng.normal(size=(7, 5))
        assert np.allclose(mesh.apply(batch), batch @ unitary.T, atol=1e-9)

    def test_identity_matrix(self, decompose):
        mesh = decompose(np.eye(4, dtype=complex))
        assert np.allclose(mesh.reconstruct(), np.eye(4), atol=1e-10)

    def test_permutation_matrix(self, decompose):
        permutation = np.eye(4)[[1, 0, 3, 2]].astype(complex)
        mesh = decompose(permutation)
        assert np.allclose(mesh.reconstruct(), permutation, atol=1e-9)

    def test_real_orthogonal_matrix(self, decompose, rng):
        from scipy.stats import ortho_group

        orthogonal = ortho_group.rvs(5, random_state=np.random.RandomState(0)).astype(complex)
        mesh = decompose(orthogonal)
        assert np.allclose(mesh.reconstruct(), orthogonal, atol=1e-9)

    def test_energy_conservation(self, decompose, rng):
        mesh = decompose(random_unitary(6, rng))
        vector = rng.normal(size=6) + 1j * rng.normal(size=6)
        assert np.sum(np.abs(mesh.apply(vector)) ** 2) == pytest.approx(
            np.sum(np.abs(vector) ** 2))

    def test_non_unitary_rejected(self, decompose, rng):
        with pytest.raises(ValueError):
            decompose(rng.normal(size=(4, 4)))
        with pytest.raises(ValueError):
            decompose(rng.normal(size=(3, 4)))

    def test_output_phases_have_unit_modulus(self, decompose, rng):
        mesh = decompose(random_unitary(7, rng))
        assert np.allclose(np.abs(mesh.output_phases), 1.0, atol=1e-9)

    def test_phase_power_is_finite_and_positive(self, decompose, rng):
        mesh = decompose(random_unitary(5, rng))
        power = mesh.total_phase_power_mw()
        assert np.isfinite(power)
        assert power >= 0


class TestMeshStructure:
    def test_apply_dimension_mismatch(self, rng):
        mesh = reck_decompose(random_unitary(4, rng))
        with pytest.raises(ValueError):
            mesh.apply(np.ones(5, dtype=complex))

    def test_dispatch(self, rng):
        unitary = random_unitary(3, rng)
        assert decompose_unitary(unitary, "reck").method == "reck"
        assert decompose_unitary(unitary, "clements").method == "clements"
        with pytest.raises(ValueError):
            decompose_unitary(unitary, "bogus")

    def test_settings_act_on_adjacent_modes_only(self, rng):
        mesh = clements_decompose(random_unitary(6, rng))
        assert all(0 <= setting.mode < 5 for setting in mesh.settings)

    def test_clements_is_shallower_than_reck(self, rng):
        """The rectangular mesh has roughly half the optical depth (ablation claim)."""
        from repro.experiments.ablations import _optical_depth

        unitary = random_unitary(12, rng)
        reck_depth = _optical_depth(reck_decompose(unitary).settings)
        clements_depth = _optical_depth(clements_decompose(unitary).settings)
        assert clements_depth < reck_depth

    def test_manual_mesh_reconstruction(self):
        """A hand-built one-MZI mesh reconstructs to the embedded MZI matrix."""
        setting = MZISetting(mode=0, theta=0.7, phi=0.3)
        mesh = MeshDecomposition(dimension=3, settings=[setting])
        expected = np.eye(3, dtype=complex)
        expected[:2, :2] = setting.transfer_matrix()
        assert np.allclose(mesh.reconstruct(), expected)

    @given(st.integers(2, 9), st.integers(0, 2 ** 16))
    @settings(max_examples=20, deadline=None)
    def test_property_reconstruction_both_methods(self, dimension, seed):
        rng = np.random.default_rng(seed)
        unitary = random_unitary(dimension, rng)
        for decompose in (reck_decompose, clements_decompose):
            mesh = decompose(unitary)
            assert np.abs(mesh.reconstruct() - unitary).max() < 1e-8


class TestVectorizedDecompositionParity:
    """The vectorized nulling paths must match the scalar references to 1e-10."""

    @pytest.mark.parametrize("dimension", [1, 2, 3, 5, 8, 13, 21])
    def test_reck_matches_scalar_reference(self, dimension, rng):
        from repro.photonics import reck_decompose_reference

        unitary = random_unitary(dimension, rng)
        fast = reck_decompose(unitary)
        spec = reck_decompose_reference(unitary)
        assert np.array_equal(fast.modes, spec.modes)
        assert np.abs(fast.thetas - spec.thetas).max(initial=0.0) < 1e-10
        assert np.abs(fast.phis - spec.phis).max(initial=0.0) < 1e-10
        assert np.abs(fast.output_phases - spec.output_phases).max() < 1e-10
        assert np.abs(fast.reconstruct() - spec.reconstruct()).max() < 1e-10

    @pytest.mark.parametrize("dimension", [1, 2, 3, 5, 8, 13, 21])
    def test_clements_matches_scalar_reference(self, dimension, rng):
        from repro.photonics import clements_decompose_reference

        unitary = random_unitary(dimension, rng)
        fast = clements_decompose(unitary)
        spec = clements_decompose_reference(unitary)
        assert np.array_equal(fast.modes, spec.modes)
        assert np.abs(fast.thetas - spec.thetas).max(initial=0.0) < 1e-10
        assert np.abs(fast.phis - spec.phis).max(initial=0.0) < 1e-10
        assert np.abs(fast.output_phases - spec.output_phases).max() < 1e-10
        assert np.abs(fast.reconstruct() - spec.reconstruct()).max() < 1e-10

    @given(st.integers(2, 9), st.integers(0, 2 ** 16))
    @settings(max_examples=15, deadline=None)
    def test_property_parity_both_methods(self, dimension, seed):
        from repro.photonics import (
            clements_decompose_reference,
            reck_decompose_reference,
        )

        rng = np.random.default_rng(seed)
        unitary = random_unitary(dimension, rng)
        for fast, reference in ((reck_decompose, reck_decompose_reference),
                                (clements_decompose, clements_decompose_reference)):
            mesh = fast(unitary)
            spec = reference(unitary)
            assert np.array_equal(mesh.modes, spec.modes)
            assert np.abs(mesh.thetas - spec.thetas).max() < 1e-10
            assert np.abs(mesh.phis - spec.phis).max() < 1e-10
            assert np.abs(mesh.output_phases - spec.output_phases).max() < 1e-10

    @pytest.mark.parametrize("shape", [(3, 8), (13, 32), (40, 12)])
    def test_parity_on_svd_factors_of_nonsquare_weights(self, shape, rng):
        """Dark-subspace phases must be deterministic and path-independent.

        The SVD factors of a non-square weight (the unitaries every real
        deployment feeds the decompositions) contain null-space completion
        rows; the dark-cell clamp parks those MZIs at theta = phi = 0 in both
        the vectorized and the reference paths, so the full phase settings --
        not just the reconstruction -- agree to 1e-10.
        """
        from repro.photonics import (
            clements_decompose_reference,
            reck_decompose_reference,
        )

        weight = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        left, _sv, right = np.linalg.svd(weight, full_matrices=True)
        for unitary in (left, right):
            for fast, reference in ((reck_decompose, reck_decompose_reference),
                                    (clements_decompose, clements_decompose_reference)):
                mesh = fast(unitary)
                spec = reference(unitary)
                assert np.abs(mesh.thetas - spec.thetas).max() < 1e-10
                assert np.abs(mesh.phis - spec.phis).max() < 1e-10
                assert np.abs(mesh.output_phases - spec.output_phases).max() < 1e-10
                assert np.abs(mesh.reconstruct() - unitary).max() < 1e-9


class TestBatchedStackDecomposition:
    """Every stack slice must agree with the scalar reference loops to 1e-10."""

    @staticmethod
    def _assert_stack_parity(stack, method):
        from repro.photonics import (
            clements_decompose_reference,
            decompose_unitary_stack,
            reck_decompose_reference,
        )

        reference = {"reck": reck_decompose_reference,
                     "clements": clements_decompose_reference}[method]
        meshes = decompose_unitary_stack(stack, method=method)
        assert len(meshes) == len(stack)
        for unitary, mesh in zip(stack, meshes):
            spec = reference(unitary)
            assert np.array_equal(mesh.modes, spec.modes)
            assert np.abs(mesh.thetas - spec.thetas).max(initial=0.0) <= 1e-10
            assert np.abs(mesh.phis - spec.phis).max(initial=0.0) <= 1e-10
            assert np.abs(mesh.output_phases - spec.output_phases).max() <= 1e-10
            assert np.allclose(mesh.reconstruct(), unitary, atol=1e-9)

    @pytest.mark.parametrize("method", ["reck", "clements"])
    @pytest.mark.parametrize("dimension", [1, 2, 5, 12])
    @pytest.mark.parametrize("stack_size", [1, 2, 3, 4])
    def test_haar_random_stack_matches_reference(self, method, dimension,
                                                 stack_size, rng):
        # stack sizes 1-4 straddle BATCHED_CHAIN_MIN_STACK, so both numpy
        # Clements chains (scalar per matrix, batched) run when the native
        # kernel is disabled
        stack = np.stack([random_unitary(dimension, rng) for _ in range(stack_size)])
        self._assert_stack_parity(stack, method)

    def test_stack_sizes_straddle_the_numpy_chain_choice(self):
        from repro.photonics import mzi_mesh

        assert 1 < mzi_mesh.BATCHED_CHAIN_MIN_STACK <= 4

    def test_single_matrix_calls_are_stacks_of_one(self, rng):
        from repro.photonics import decompose_unitary_stack

        unitary = random_unitary(7, rng)
        for method, single in (("reck", reck_decompose),
                               ("clements", clements_decompose)):
            [stacked] = decompose_unitary_stack(unitary[None], method=method)
            for mesh in (single(unitary), decompose_unitary(unitary, method)):
                assert np.array_equal(mesh.thetas, stacked.thetas)
                assert np.array_equal(mesh.phis, stacked.phis)
                assert np.array_equal(mesh.output_phases, stacked.output_phases)

    @pytest.mark.parametrize("method", ["reck", "clements"])
    def test_rank_deficient_svd_factors(self, method, rng):
        # SVD factors of rank-deficient weights contain null-space completion
        # rows whose nulling pivots are optically dark; the stack path must
        # apply the same dark-cell clamp as the reference loops
        stacks = {}
        for rank in (1, 3):
            weight = ((rng.normal(size=(9, rank)) + 1j * rng.normal(size=(9, rank)))
                      @ (rng.normal(size=(rank, 9)) + 1j * rng.normal(size=(rank, 9))))
            left, _sigma, right = np.linalg.svd(weight)
            stacks.setdefault(left.shape[0], []).append(left)
            stacks.setdefault(right.shape[0], []).append(right)
        for dimension, members in stacks.items():
            self._assert_stack_parity(np.stack(members), method)

    @pytest.mark.parametrize("method", ["reck", "clements"])
    def test_non_square_weight_factors(self, method, rng):
        # left (m x m) and right (n x n) factors of non-square weights land in
        # different dimension groups; each group must keep reference parity
        weights = [rng.normal(size=(4, 10)) + 1j * rng.normal(size=(4, 10)),
                   rng.normal(size=(10, 4)) + 1j * rng.normal(size=(10, 4))]
        groups = {}
        for weight in weights:
            left, _sigma, right = np.linalg.svd(weight, full_matrices=True)
            for factor in (left, right):
                groups.setdefault(factor.shape[0], []).append(factor)
        for dimension, members in groups.items():
            self._assert_stack_parity(np.stack(members), method)

    def test_non_unitary_stack_rejected(self, rng):
        from repro.photonics import decompose_unitary_stack

        with pytest.raises(ValueError):
            decompose_unitary_stack(rng.normal(size=(3, 5, 5)) * 2.0)
        with pytest.raises(ValueError):
            decompose_unitary_stack(random_unitary(4, rng))  # missing stack axis

    @pytest.mark.parametrize("method", ["clements", "reck"])
    def test_unitarity_is_checked_at_the_tolerance(self, method, rng):
        # the check reads the nulled stack (upper triangular, so unitary iff
        # diagonal with unit-modulus entries) instead of forming W^H W
        from repro.photonics import decompose_unitary_stack

        stack = np.stack([random_unitary(6, rng) for _ in range(3)])
        noise = rng.normal(size=stack.shape) + 1j * rng.normal(size=stack.shape)
        decompose_unitary_stack(stack + 1e-9 * noise, method=method)
        # the bounds are allclose(W^H W, I, atol=1e-6)'s, as in the scalar
        # reference: a norm drift of 3e-6 passes both, 1e-5 fails both
        reference = {"clements": clements_decompose_reference,
                     "reck": reck_decompose_reference}[method]
        decompose_unitary_stack(stack * (1 + 3e-6), method=method)
        reference(stack[0] * (1 + 3e-6))
        with pytest.raises(ValueError, match="non-unitary"):
            decompose_unitary_stack(stack * (1 + 1e-5), method=method)
        with pytest.raises(ValueError, match="not unitary"):
            reference(stack[0] * (1 + 1e-5))
        bad = stack.copy()
        bad[1] += 1e-4 * noise[1]
        with pytest.raises(ValueError, match="non-unitary"):
            decompose_unitary_stack(bad, method=method)
        bad[1] = np.nan
        with pytest.raises(ValueError, match="non-unitary"):
            decompose_unitary_stack(bad, method=method)


class TestSvdDecomposeMany:
    def test_batched_matches_per_weight(self, rng):
        from repro.photonics import svd_decompose, svd_decompose_many

        weights = [rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)),
                   rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)),
                   rng.normal(size=(3, 6)) + 1j * rng.normal(size=(3, 6))]
        batched = svd_decompose_many(weights)
        for weight, photonic in zip(weights, batched):
            reference = svd_decompose(weight)
            assert photonic.mzi_count == reference.mzi_count
            assert np.abs(photonic.matrix() - weight).max() < 1e-10
            vector = rng.normal(size=(2, weight.shape[1])) + 0j
            assert np.allclose(photonic.apply(vector), reference.apply(vector),
                               atol=1e-10)

    def test_trials_batched_meshes_leave_the_dense_path(self, rng):
        from repro.photonics import PhotonicMatrix, svd_decompose_many
        from repro.photonics.noise import PhaseNoiseModel

        weights = [rng.normal(size=(4, 4)) + 0j, rng.normal(size=(3, 5)) + 0j]
        exact = PhaseNoiseModel(sigma=0.0)
        for photonic in svd_decompose_many(weights):
            assert photonic.uses_dense_path()
            # the same phases on a two-trial axis run the column program
            batched = PhotonicMatrix(
                rows=photonic.rows, cols=photonic.cols,
                left_mesh=exact.perturb(photonic.left_mesh, trials=2),
                right_mesh=exact.perturb(photonic.right_mesh, trials=2),
                singular_values=photonic.singular_values, scale=photonic.scale)
            assert not batched.uses_dense_path()
            vector = rng.normal(size=(3, photonic.cols)) + 0j
            dense = photonic.apply(vector)
            assert np.allclose(batched.apply(vector),
                               np.broadcast_to(dense, (2,) + dense.shape),
                               atol=1e-10)
