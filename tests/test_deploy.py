"""Integration tests: deployed photonic circuits must match the software models."""

import numpy as np
import pytest

import repro
from repro.assignment import get_scheme
from repro.core.area_analysis import model_area_report
from repro.core.compile import CompiledProgram, HardwareTarget
from repro.core.training import prepare_batch
from repro.models import ComplexFCNN, RealFCNN
from repro.photonics.noise import PhaseNoiseModel
from repro.tensor import no_grad


DECODERS = ("merge", "linear", "unitary", "coherent", "photodiode")


def software_logits(model, images, scheme):
    with no_grad():
        return model(prepare_batch(images, scheme)).data


class TestDeploymentFidelity:
    @pytest.mark.parametrize("decoder", DECODERS)
    def test_deployed_logits_match_software(self, decoder, rng):
        scheme = get_scheme("SI")
        model = ComplexFCNN(18, (10,), 4, decoder=decoder, rng=rng)
        # give the calibration non-trivial values so the digital replication is exercised
        model.head.calibration.scale.data[:] = rng.uniform(0.5, 1.5, size=4)
        model.head.calibration.bias.data[:] = rng.normal(size=4)
        deployed = repro.compile(model)
        images = rng.normal(size=(6, 1, 6, 6))
        expected = software_logits(model, images, scheme)
        actual = deployed.predict_logits(images, scheme)
        assert np.allclose(actual, expected, atol=1e-6)

    @pytest.mark.parametrize("method", ["clements", "reck"])
    def test_both_mesh_methods_are_equivalent(self, method, rng):
        scheme = get_scheme("SI")
        model = ComplexFCNN(8, (6,), 3, decoder="merge", rng=rng)
        deployed = repro.compile(model, target=HardwareTarget(method=method))
        images = rng.normal(size=(4, 1, 4, 4))
        assert np.allclose(deployed.predict_logits(images, scheme),
                           software_logits(model, images, scheme), atol=1e-6)

    def test_classification_agreement(self, rng):
        scheme = get_scheme("SI")
        model = ComplexFCNN(18, (10,), 3, decoder="merge", rng=rng)
        deployed = repro.compile(model)
        images = rng.normal(size=(10, 1, 6, 6))
        software_predictions = software_logits(model, images, scheme).argmax(axis=1)
        assert np.array_equal(deployed.classify(images, scheme), software_predictions)

    def test_mzi_count_matches_area_report(self, rng):
        model = ComplexFCNN(18, (10,), 4, decoder="merge", rng=rng)
        deployed = repro.compile(model)
        assert deployed.mzi_count == model_area_report(model).total_mzis

    def test_conventional_cvnn_also_deploys(self, rng):
        scheme = get_scheme("conventional")
        model = ComplexFCNN(16, (8,), 3, decoder="photodiode", rng=rng)
        deployed = repro.compile(model)
        images = rng.normal(size=(5, 1, 4, 4))
        assert np.allclose(deployed.predict_logits(images, scheme),
                           software_logits(model, images, scheme), atol=1e-6)

    def test_real_model_rejected(self, rng):
        with pytest.raises(TypeError):
            repro.compile(RealFCNN(16, (8,), 3, rng=rng))


class TestDeploymentUnderNoise:
    def test_zero_noise_copy_is_identical(self, rng):
        scheme = get_scheme("SI")
        model = ComplexFCNN(8, (6,), 2, decoder="merge", rng=rng)
        deployed = repro.compile(model)
        clean_copy = deployed.with_noise(noise=PhaseNoiseModel(sigma=0.0))
        images = rng.normal(size=(3, 1, 4, 4))
        assert np.allclose(deployed.predict_logits(images, scheme),
                           clean_copy.predict_logits(images, scheme))

    def test_noise_changes_logits_but_not_structure(self, rng):
        scheme = get_scheme("SI")
        model = ComplexFCNN(8, (6,), 2, decoder="merge", rng=rng)
        deployed = repro.compile(model)
        noisy = deployed.with_noise(noise=PhaseNoiseModel(sigma=0.1, rng=rng))
        assert noisy.mzi_count == deployed.mzi_count
        images = rng.normal(size=(3, 1, 4, 4))
        assert not np.allclose(deployed.predict_logits(images, scheme),
                               noisy.predict_logits(images, scheme))

    def test_small_noise_small_error(self, rng):
        scheme = get_scheme("SI")
        model = ComplexFCNN(8, (6,), 2, decoder="merge", rng=rng)
        deployed = repro.compile(model)
        images = rng.normal(size=(4, 1, 4, 4))
        clean = deployed.predict_logits(images, scheme)
        errors = []
        for sigma in (1e-4, 1e-2):
            noisy = deployed.with_noise(noise=PhaseNoiseModel(sigma=sigma,
                                                              rng=np.random.default_rng(0)))
            errors.append(np.abs(noisy.predict_logits(images, scheme) - clean).max())
        assert errors[0] < errors[1]
        assert errors[0] < 1e-2

    def test_quantization_applied(self, rng):
        scheme = get_scheme("SI")
        model = ComplexFCNN(8, (6,), 2, decoder="merge", rng=rng)
        deployed = repro.compile(model)
        quantized = deployed.with_noise(quantization_bits=6)
        images = rng.normal(size=(3, 1, 4, 4))
        clean = deployed.predict_logits(images, scheme)
        coarse = quantized.predict_logits(images, scheme)
        assert not np.allclose(clean, coarse)
        fine = deployed.with_noise(quantization_bits=14).predict_logits(images, scheme)
        assert np.abs(fine - clean).max() < np.abs(coarse - clean).max()

    def test_compiled_program_carries_its_encoder(self, rng):
        model = ComplexFCNN(8, (6,), 2, decoder="merge", rng=rng)
        deployed = repro.compile(model)
        assert isinstance(deployed, CompiledProgram)
        assert deployed.encoder.name == "dc"
