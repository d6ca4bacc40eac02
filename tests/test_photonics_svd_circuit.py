"""Tests of SVD weight mapping, photonic circuits, noise and quantization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.graph_ir import split_relu
from repro.core.lowering import LinearStage
from repro.photonics import (
    PhaseNoiseModel,
    mzi_count_matrix,
    quantize_phases,
    random_unitary,
    reck_decompose,
    svd_decompose,
)


class TestSVDMapping:
    @pytest.mark.parametrize("shape", [(4, 4), (3, 7), (8, 2), (1, 5), (6, 1)])
    def test_matrix_reconstruction(self, shape, rng):
        weight = rng.normal(size=shape)
        photonic = svd_decompose(weight)
        assert np.allclose(photonic.matrix(), weight, atol=1e-9)

    def test_complex_matrix_reconstruction(self, rng):
        weight = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
        photonic = svd_decompose(weight)
        assert np.allclose(photonic.matrix(), weight, atol=1e-9)

    def test_apply_matches_matmul(self, rng):
        weight = rng.normal(size=(5, 8))
        photonic = svd_decompose(weight)
        vector = rng.normal(size=8) + 1j * rng.normal(size=8)
        assert np.allclose(photonic.apply(vector), weight @ vector, atol=1e-9)

    def test_apply_batched(self, rng):
        weight = rng.normal(size=(3, 4))
        photonic = svd_decompose(weight)
        batch = rng.normal(size=(6, 4)).astype(complex)
        assert np.allclose(photonic.apply(batch), batch @ weight.T, atol=1e-9)

    def test_mzi_count_matches_closed_form(self, rng):
        weight = rng.normal(size=(7, 11))
        photonic = svd_decompose(weight)
        assert photonic.device_count == mzi_count_matrix(7, 11)

    def test_normalisation_keeps_attenuators_passive(self, rng):
        weight = rng.normal(size=(6, 6)) * 10.0
        photonic = svd_decompose(weight, normalize=True)
        assert photonic.singular_values.max() <= 1.0 + 1e-12
        assert photonic.scale > 1.0
        assert np.allclose(photonic.matrix(), weight, atol=1e-8)

    def test_reck_method_also_works(self, rng):
        weight = rng.normal(size=(4, 5))
        photonic = svd_decompose(weight, method="reck")
        assert np.allclose(photonic.matrix(), weight, atol=1e-9)

    def test_non_matrix_rejected(self, rng):
        with pytest.raises(ValueError):
            svd_decompose(rng.normal(size=(2, 3, 4)))

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2 ** 16))
    @settings(max_examples=20, deadline=None)
    def test_property_reconstruction(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        weight = rng.normal(size=(rows, cols))
        assert np.abs(svd_decompose(weight).matrix() - weight).max() < 1e-8


class TestBatchedSVDs:
    """Same-shape weights must factor through one stacked ``np.linalg.svd``."""

    @staticmethod
    def _mixed_weights(rng):
        weights = [rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
                   for _ in range(3)]
        weights += [rng.normal(size=(5, 5)) for _ in range(2)]
        weights.append(rng.normal(size=(3, 7)))
        degenerate = rng.normal(size=(6, 4))
        degenerate[:, -1] = degenerate[:, 0]         # rank-deficient member
        weights.append(degenerate.astype(complex))
        return weights

    def test_stacked_factors_match_per_matrix_svd(self, rng):
        from repro.photonics.svd_mapping import _svd_factors_many

        weights = self._mixed_weights(rng)
        stacked = _svd_factors_many(weights, normalize=False)
        for weight, factors in zip(weights, stacked):
            shape, left, right, singular_values, scale = factors
            ref_left, ref_values, ref_right = np.linalg.svd(
                np.asarray(weight, dtype=complex), full_matrices=True)
            assert shape == weight.shape and scale == 1.0
            # the gufunc runs the same LAPACK routine per slice
            assert np.abs(left - ref_left).max() <= 1e-12
            assert np.abs(right - ref_right).max() <= 1e-12
            assert np.abs(singular_values - ref_values).max() <= 1e-12

    @pytest.mark.parametrize("method", ["clements", "reck"])
    def test_deployed_matrices_match_per_weight_path(self, method, rng):
        from repro.photonics.svd_mapping import svd_decompose_many

        weights = self._mixed_weights(rng)
        grouped = svd_decompose_many(weights, method=method)
        for weight, photonic in zip(weights, grouped):
            reference = svd_decompose(weight, method=method)
            assert np.abs(photonic.matrix() - reference.matrix()).max() <= 1e-10
            assert photonic.mzi_count == reference.mzi_count

    def test_non_2d_weight_rejected(self, rng):
        from repro.photonics.svd_mapping import svd_decompose_many

        with pytest.raises(ValueError):
            svd_decompose_many([rng.normal(size=(2, 3, 4))])

    def test_zero_dimension_weight_rejected(self, rng):
        from repro.photonics.svd_mapping import svd_decompose_many

        empty = np.zeros((0, 3))
        with pytest.raises(ValueError, match=r"weight 0 has shape \(0, 3\)"):
            svd_decompose(empty)
        with pytest.raises(ValueError, match=r"weight 1 has shape \(0, 3\)"):
            svd_decompose_many([rng.normal(size=(2, 3)), empty])


class TestPhotonicLayers:
    def test_layer_forward_with_bias(self, rng):
        weight = rng.normal(size=(3, 5))
        bias = rng.normal(size=3) + 1j * rng.normal(size=3)
        stage = LinearStage(matrix=svd_decompose(weight), bias=bias)
        vector = rng.normal(size=5).astype(complex)
        assert np.allclose(stage.forward(vector), weight @ vector + bias, atol=1e-9)

    def test_split_relu(self):
        signal = np.array([1 - 2j, -3 + 4j])
        assert np.allclose(split_relu(signal), [1 + 0j, 4j])


class TestNoiseModels:
    def test_zero_noise_is_identity(self, rng):
        mesh = reck_decompose(random_unitary(5, rng))
        noisy = PhaseNoiseModel(sigma=0.0).perturb(mesh)
        assert np.allclose(noisy.reconstruct(), mesh.reconstruct())

    def test_noise_perturbs_but_stays_unitary(self, rng):
        mesh = reck_decompose(random_unitary(5, rng))
        noisy = PhaseNoiseModel(sigma=0.05, rng=rng).perturb(mesh)
        original = mesh.reconstruct()
        perturbed = noisy.reconstruct()
        assert not np.allclose(original, perturbed)
        assert np.allclose(perturbed.conj().T @ perturbed, np.eye(5), atol=1e-9)

    def test_error_grows_with_sigma(self, rng):
        mesh = reck_decompose(random_unitary(8, rng))
        original = mesh.reconstruct()
        errors = []
        for sigma in (0.001, 0.01, 0.1):
            noisy = PhaseNoiseModel(sigma=sigma, rng=np.random.default_rng(0)).perturb(mesh)
            errors.append(np.abs(noisy.reconstruct() - original).max())
        assert errors[0] < errors[1] < errors[2]

    def test_negative_sigma_rejected(self, rng):
        mesh = reck_decompose(random_unitary(3, rng))
        with pytest.raises(ValueError):
            PhaseNoiseModel(sigma=-1.0).perturb(mesh)

    def test_quantization_error_shrinks_with_bits(self, rng):
        mesh = reck_decompose(random_unitary(6, rng))
        original = mesh.reconstruct()
        coarse = np.abs(quantize_phases(mesh, 3).reconstruct() - original).max()
        fine = np.abs(quantize_phases(mesh, 10).reconstruct() - original).max()
        assert fine < coarse
        assert fine < 1e-2

    def test_quantization_invalid_bits(self, rng):
        mesh = reck_decompose(random_unitary(3, rng))
        with pytest.raises(ValueError):
            quantize_phases(mesh, 0)

    def test_matrix_with_noise_changes_output(self, rng):
        weight = rng.normal(size=(4, 4))
        matrix = svd_decompose(weight)
        noisy = matrix.degraded(noise=PhaseNoiseModel(sigma=0.1, rng=rng))
        vector = rng.normal(size=4).astype(complex)
        assert not np.allclose(matrix.apply(vector), noisy.apply(vector))

    def test_matrix_with_quantization_only(self, rng):
        weight = rng.normal(size=(3, 3))
        matrix = svd_decompose(weight)
        quantized = matrix.degraded(quantization_bits=12)
        vector = rng.normal(size=3).astype(complex)
        assert np.allclose(matrix.apply(vector), quantized.apply(vector), atol=1e-2)

    def test_degraded_quantizes_then_perturbs_left_mesh_first(self, rng):
        matrix = svd_decompose(rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3)))
        degraded = matrix.degraded(noise=PhaseNoiseModel.seeded(0.05, seed=4),
                                   quantization_bits=6, trials=2)
        noise = PhaseNoiseModel.seeded(0.05, seed=4)
        for mesh, original in ((degraded.left_mesh, matrix.left_mesh),
                               (degraded.right_mesh, matrix.right_mesh)):
            expected = noise.perturb(quantize_phases(original, 6), trials=2)
            assert np.array_equal(mesh.thetas, expected.thetas)
            assert np.array_equal(mesh.phis, expected.phis)
            assert np.array_equal(mesh.output_phases, expected.output_phases)
        assert degraded.apply(rng.normal(size=(5, 3)) + 0j).shape == (2, 5, 4)
        # the copy shares no phases or attenuators with the original
        assert not matrix.left_mesh.is_batched
        assert degraded.singular_values is not matrix.singular_values
        assert (degraded.rows, degraded.cols, degraded.scale) == (4, 3, matrix.scale)

    def test_degraded_trials_need_a_noise_model(self, rng):
        with pytest.raises(ValueError, match="trials requires"):
            svd_decompose(rng.normal(size=(3, 3))).degraded(quantization_bits=8,
                                                            trials=2)
