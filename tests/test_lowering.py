"""Tests of the lowering pipeline: deployed CNNs, batch-first forward, stages."""

import numpy as np
import pytest

import repro
from repro.assignment import get_scheme
from repro.core.area_analysis import model_area_report
from repro.core.compile import CompiledProgram, HardwareTarget
from repro.core.graph_ir import ElectronicActivation
from repro.core.lowering import (
    AvgPool2dStage,
    Conv2dStage,
    FlattenStage,
    LinearStage,
    LoweringContext,
    complex_im2col,
)
from repro.core.training import prepare_batch
from repro.models import ComplexFCNN
from repro.models.lenet import ComplexLeNet5, RealLeNet5
from repro.nn.complex import ComplexConv2d, ComplexTensor
from repro.photonics.noise import PhaseNoiseModel
from repro.tensor import no_grad


DECODERS = ("merge", "linear", "unitary", "coherent", "photodiode")


def tiny_lenet(rng, decoder="merge", num_classes=4):
    return ComplexLeNet5(in_channels=2, num_classes=num_classes, image_size=(12, 12),
                         channels=(3, 4), hidden_sizes=(12, 10), decoder=decoder,
                         kernel_size=3, padding=1, rng=rng)


def software_logits(model, images, scheme):
    with no_grad():
        return model(prepare_batch(images, scheme)).data


class TestComplexIm2col:
    @pytest.mark.parametrize("stride,padding", [((1, 1), (0, 0)), ((2, 2), (1, 1)),
                                                ((1, 2), (2, 0))])
    def test_patches_reproduce_convolution(self, stride, padding, rng):
        conv = ComplexConv2d(3, 5, kernel_size=3, stride=stride, padding=padding, rng=rng)
        images = rng.normal(size=(4, 3, 9, 11)) + 1j * rng.normal(size=(4, 3, 9, 11))
        patches, (out_h, out_w) = complex_im2col(images, (3, 3), stride, padding)
        bias = conv.bias_real.data + 1j * conv.bias_imag.data
        direct = patches @ conv.weight_matrix().T + bias
        expected = conv(ComplexTensor.from_complex_array(images)).to_complex_array()
        assert direct.shape == (4, out_h * out_w, 5)
        lowered = np.moveaxis(direct, -1, -2).reshape(4, 5, out_h, out_w)
        assert np.allclose(lowered, expected, atol=1e-10)

    def test_leading_axes_are_preserved(self, rng):
        maps = rng.normal(size=(2, 3, 1, 6, 6)) + 0j
        patches, (out_h, out_w) = complex_im2col(maps, (2, 2), (2, 2), (0, 0))
        assert patches.shape == (2, 3, out_h * out_w, 4)
        # every leading slice matches an independent extraction
        single, _ = complex_im2col(maps[1, 2], (2, 2), (2, 2), (0, 0))
        assert np.array_equal(patches[1, 2], single)


class TestAvgPool2dStage:
    @pytest.mark.parametrize("shape,kernel,stride", [
        ((64, 4, 16, 16), (2, 2), (2, 2)),      # the LeNet pool, batch 64
        ((1, 4, 16, 16), (2, 2), (2, 2)),       # batch 1
        ((3, 2, 9, 9), (3, 3), (1, 1)),         # overlapping windows
        ((2, 3, 11, 10), (2, 2), (3, 3)),       # stride wider than the kernel
        ((2, 3, 9, 11), (3, 2), (2, 3)),        # non-square kernel and stride
        ((4, 2, 3, 8, 8), (2, 2), (2, 2)),      # leading trials axis
    ])
    def test_matches_the_sliding_window_mean(self, shape, kernel, stride, rng):
        maps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        windows = np.lib.stride_tricks.sliding_window_view(maps, kernel,
                                                           axis=(-2, -1))
        expected = windows[..., ::stride[0], ::stride[1], :, :].mean(axis=(-2, -1))
        pooled = AvgPool2dStage(kernel_size=kernel, stride=stride).forward(maps)
        assert pooled.shape == expected.shape
        assert np.abs(pooled - expected).max() <= 1e-15

    def test_a_window_larger_than_the_map_is_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            AvgPool2dStage(kernel_size=(3, 3), stride=(1, 1)).forward(
                np.zeros((1, 1, 2, 5), dtype=complex))


class TestDeployedCNNFidelity:
    @pytest.mark.parametrize("decoder", DECODERS)
    def test_deployed_cnn_matches_software(self, decoder, rng):
        scheme = get_scheme("CL")
        model = tiny_lenet(rng, decoder=decoder)
        model.head.calibration.scale.data[:] = rng.uniform(0.5, 1.5, size=4)
        model.head.calibration.bias.data[:] = rng.normal(size=4)
        deployed = repro.compile(model)
        images = rng.normal(size=(5, 3, 12, 12))
        expected = software_logits(model, images, scheme)
        actual = deployed.predict_logits(images, scheme)
        assert np.allclose(actual, expected, atol=1e-8)

    @pytest.mark.parametrize("method", ["clements", "reck"])
    def test_both_mesh_methods(self, method, rng):
        scheme = get_scheme("CL")
        model = tiny_lenet(rng)
        deployed = repro.compile(model, target=HardwareTarget(method=method))
        images = rng.normal(size=(3, 3, 12, 12))
        assert np.allclose(deployed.predict_logits(images, scheme),
                           software_logits(model, images, scheme), atol=1e-8)

    def test_classification_agreement(self, rng):
        scheme = get_scheme("CL")
        model = tiny_lenet(rng)
        deployed = repro.compile(model)
        images = rng.normal(size=(6, 3, 12, 12))
        assert np.array_equal(deployed.classify(images, scheme),
                              software_logits(model, images, scheme).argmax(axis=1))

    def test_mzi_count_matches_area_report(self, rng):
        model = tiny_lenet(rng)
        deployed = repro.compile(model)
        assert deployed.mzi_count == model_area_report(model).total_mzis

    def test_stage_chain_shape(self, rng):
        program = repro.compile(tiny_lenet(rng))
        kinds = [type(node.op) for node in program.graph.nodes]
        # one node per op: every CReLU stays its own node in the graph (the
        # plan compiler folds it into the stage before it)
        assert kinds == [Conv2dStage, ElectronicActivation, AvgPool2dStage,
                         Conv2dStage, ElectronicActivation, AvgPool2dStage,
                         FlattenStage, LinearStage, ElectronicActivation,
                         LinearStage, ElectronicActivation, LinearStage]
        assert program.input_kind == "image"

    def test_unsupported_models_rejected(self, rng):
        with pytest.raises(TypeError):
            repro.compile(RealLeNet5(3, 4, image_size=(12, 12), kernel_size=3,
                                    padding=1, rng=rng))


class TestBatchFirstForward:
    def test_cnn_batched_equals_looped(self, rng):
        scheme = get_scheme("CL")
        deployed = repro.compile(tiny_lenet(rng))
        images = rng.normal(size=(5, 3, 12, 12))
        batched = deployed.predict_logits(images, scheme)
        looped = np.concatenate([deployed.predict_logits(images[i:i + 1], scheme)
                                 for i in range(len(images))])
        assert np.allclose(batched, looped, atol=1e-12)

    def test_fcnn_batched_equals_looped(self, rng):
        scheme = get_scheme("SI")
        deployed = repro.compile(ComplexFCNN(18, (10,), 4, decoder="merge", rng=rng))
        images = rng.normal(size=(6, 1, 6, 6))
        batched = deployed.predict_logits(images, scheme)
        looped = np.concatenate([deployed.predict_logits(images[i:i + 1], scheme)
                                 for i in range(len(images))])
        assert np.allclose(batched, looped, atol=1e-12)

    def test_forward_signals_alias(self, rng):
        deployed = repro.compile(ComplexFCNN(8, (6,), 3, decoder="merge", rng=rng))
        vectors = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        assert np.allclose(deployed.forward(vectors), deployed(vectors))


class TestDeployedCNNUnderNoise:
    def test_trials_axis_composes_with_batch(self, rng):
        scheme = get_scheme("CL")
        deployed = repro.compile(tiny_lenet(rng, num_classes=3))
        images = rng.normal(size=(4, 3, 12, 12))
        noisy = deployed.with_noise(noise=PhaseNoiseModel(sigma=0.02, rng=rng), trials=5)
        logits = noisy.predict_logits(images, scheme)
        assert logits.shape == (5, 4, 3)
        predictions = noisy.classify(images, scheme)
        assert predictions.shape == (5, 4)

    def test_sigma_axis_composes_with_trials(self, rng):
        scheme = get_scheme("CL")
        deployed = repro.compile(tiny_lenet(rng, num_classes=3))
        images = rng.normal(size=(2, 3, 12, 12))
        noise = PhaseNoiseModel(sigma=np.array([0.0, 0.05]), rng=rng)
        logits = deployed.with_noise(noise=noise, trials=3).predict_logits(images, scheme)
        assert logits.shape == (2, 3, 2, 3)
        # the sigma = 0 slice must agree with the clean circuit
        clean = deployed.predict_logits(images, scheme)
        assert np.allclose(logits[0], np.broadcast_to(clean, (3,) + clean.shape),
                           atol=1e-8)

    def test_quantization_through_conv_stages(self, rng):
        scheme = get_scheme("CL")
        deployed = repro.compile(tiny_lenet(rng))
        images = rng.normal(size=(3, 3, 12, 12))
        clean = deployed.predict_logits(images, scheme)
        coarse = deployed.with_noise(quantization_bits=6).predict_logits(images, scheme)
        fine = deployed.with_noise(quantization_bits=14).predict_logits(images, scheme)
        assert not np.allclose(clean, coarse)
        assert np.abs(fine - clean).max() < np.abs(coarse - clean).max()

    def test_with_noise_preserves_structure(self, rng):
        deployed = repro.compile(tiny_lenet(rng))
        noisy = deployed.with_noise(noise=PhaseNoiseModel(sigma=0.1, rng=rng))
        assert noisy.mzi_count == deployed.mzi_count
        assert noisy.input_kind == "image"
        assert isinstance(noisy, CompiledProgram)


def conv_stage(module: ComplexConv2d) -> Conv2dStage:
    """One conv lowered through its registered rule."""
    ctx = LoweringContext()
    ctx.lower_module(module, "conv")
    ctx.finalize()
    return ctx.builder.ops()[0]


class TestConvStageValidation:
    def test_channel_mismatch_raises(self, rng):
        stage = conv_stage(ComplexConv2d(2, 3, 3, rng=rng))
        with pytest.raises(ValueError):
            stage.forward(np.ones((1, 4, 8, 8), dtype=complex))

    def test_missing_spatial_axes_raise(self, rng):
        stage = conv_stage(ComplexConv2d(2, 3, 3, rng=rng))
        with pytest.raises(ValueError):
            stage.forward(np.ones((4, 8), dtype=complex))
