"""Tests of the model zoo and the factory sizing rules."""

import numpy as np
import pytest

from repro.core.area_analysis import compare_area, model_area_report
from repro.models import (
    ComplexFCNN,
    ComplexLeNet5,
    ComplexResNet,
    ModelSpec,
    RealFCNN,
    RealLeNet5,
    RealResNet,
    build_model,
    complex_trunk_widths,
    resnet_depth_to_blocks,
)
from repro.nn.complex import ComplexTensor
from repro.tensor import Tensor, no_grad


def complex_input(rng, shape):
    return ComplexTensor(Tensor(rng.normal(size=shape)), Tensor(rng.normal(size=shape)))


class TestFCNNModels:
    def test_real_fcnn_shapes(self, rng):
        model = RealFCNN(36, (20,), 5, rng=rng)
        out = model(Tensor(rng.normal(size=(4, 1, 6, 6))))
        assert out.shape == (4, 5)

    def test_complex_fcnn_shapes(self, rng):
        model = ComplexFCNN(18, (10,), 5, decoder="merge", rng=rng)
        out = model(complex_input(rng, (4, 18)))
        assert out.shape == (4, 5)

    def test_complex_fcnn_flattens_image_input(self, rng):
        model = ComplexFCNN(16, (8,), 3, rng=rng)
        out = model(complex_input(rng, (2, 1, 4, 4)))
        assert out.shape == (2, 3)

    def test_no_hidden_layer(self, rng):
        model = ComplexFCNN(10, (), 4, rng=rng)
        assert model(complex_input(rng, (3, 10))).shape == (3, 4)


class TestLeNetModels:
    def test_real_lenet_paper_configuration(self, rng):
        model = RealLeNet5(in_channels=3, num_classes=10, image_size=(32, 32), rng=rng)
        with no_grad():
            out = model(Tensor(rng.normal(size=(2, 3, 32, 32))))
        assert out.shape == (2, 10)

    def test_complex_lenet_small_kernel(self, rng):
        model = ComplexLeNet5(in_channels=2, num_classes=10, image_size=(16, 16),
                              channels=(3, 8), hidden_sizes=(30, 21),
                              kernel_size=3, padding=1, rng=rng)
        with no_grad():
            out = model(complex_input(rng, (2, 2, 16, 16)))
        assert out.shape == (2, 10)

    def test_too_small_image_rejected(self, rng):
        with pytest.raises(ValueError):
            RealLeNet5(image_size=(8, 8), rng=rng)


class TestResNetModels:
    def test_depth_to_blocks(self):
        assert resnet_depth_to_blocks(20) == 3
        assert resnet_depth_to_blocks(32) == 5
        assert resnet_depth_to_blocks(56) == 9
        assert resnet_depth_to_blocks(8) == 1
        with pytest.raises(ValueError):
            resnet_depth_to_blocks(21)

    def test_real_resnet_forward(self, rng):
        model = RealResNet(depth=8, in_channels=3, num_classes=4, base_widths=(4, 8, 16), rng=rng)
        with no_grad():
            out = model(Tensor(rng.normal(size=(2, 3, 16, 16))))
        assert out.shape == (2, 4)

    def test_complex_resnet_forward(self, rng):
        model = ComplexResNet(depth=8, in_channels=2, num_classes=4, base_widths=(2, 4, 8),
                              decoder="merge", rng=rng)
        with no_grad():
            out = model(complex_input(rng, (2, 2, 16, 16)))
        assert out.shape == (2, 4)

    def test_downsample_paths_exist_between_stages(self, rng):
        model = RealResNet(depth=8, base_widths=(4, 8, 16), rng=rng)
        downsamples = [block.downsample for block in model.stages if block.downsample is not None]
        assert len(downsamples) == 2  # stage transitions 1->2 and 2->3


class TestFactory:
    def test_rvnn_cvnn_scvnn_shapes(self, rng):
        for flavour, assignment in (("rvnn", None), ("cvnn", None), ("scvnn", "SI")):
            spec = ModelSpec("fcnn", flavour, (1, 8, 8), 4, assignment=assignment,
                             hidden_sizes=(12,))
            model = build_model(spec, rng=rng)
            if flavour == "rvnn":
                out = model(Tensor(rng.normal(size=(2, 1, 8, 8))))
            else:
                channels, height, width = spec.complex_input_shape()
                out = model(complex_input(rng, (2, channels, height, width)))
            assert out.shape == (2, 4)

    def test_scvnn_requires_assignment(self):
        with pytest.raises(ValueError):
            ModelSpec("fcnn", "scvnn", (1, 8, 8), 4)

    def test_unknown_architecture_or_flavour(self):
        with pytest.raises(ValueError):
            ModelSpec("mlp", "rvnn", (1, 8, 8), 4)
        with pytest.raises(ValueError):
            ModelSpec("fcnn", "quantum", (1, 8, 8), 4)

    def test_width_scaling_rules(self):
        assert complex_trunk_widths((100, 50), 0.5) == (50, 25)
        assert complex_trunk_widths((100,), 1.0) == (100,)
        assert complex_trunk_widths((9,), 1 / 3) == (3,)
        with pytest.raises(ValueError):
            complex_trunk_widths((10,), 0.0)

    def test_channel_vs_hidden_scaling(self):
        spec_cl = ModelSpec("lenet5", "scvnn", (3, 32, 32), 10, assignment="CL")
        assert spec_cl.channel_width_scale() == 0.5
        assert spec_cl.hidden_width_scale() == 0.5

        spec_si = ModelSpec("lenet5", "scvnn", (3, 32, 32), 10, assignment="SI")
        assert spec_si.channel_width_scale() == 1.0     # spatial schemes keep CONV widths
        assert spec_si.hidden_width_scale() == 0.5      # but FC layers shrink

        spec_cr = ModelSpec("resnet", "scvnn", (3, 32, 32), 10, assignment="CR")
        assert spec_cr.channel_width_scale() == pytest.approx(1 / 3)

        spec_cvnn = ModelSpec("lenet5", "cvnn", (3, 32, 32), 10)
        assert spec_cvnn.channel_width_scale() == 1.0

    def test_scvnn_fcnn_halves_input_and_hidden(self, rng):
        spec = ModelSpec("fcnn", "scvnn", (1, 28, 28), 10, assignment="SI", hidden_sizes=(100,))
        model = build_model(spec, rng=rng)
        assert model.in_features == 392
        assert model.hidden_sizes == [50]

    def test_cvnn_keeps_full_size(self, rng):
        spec = ModelSpec("fcnn", "cvnn", (1, 28, 28), 10, hidden_sizes=(100,))
        model = build_model(spec, rng=rng)
        assert model.in_features == 784
        assert model.hidden_sizes == [100]

    def test_width_divider(self, rng):
        spec = ModelSpec("fcnn", "cvnn", (1, 8, 8), 10, hidden_sizes=(100,), width_divider=4)
        model = build_model(spec, rng=rng)
        assert model.hidden_sizes == [25]
        with pytest.raises(ValueError):
            ModelSpec("fcnn", "cvnn", (1, 8, 8), 10, width_divider=0.5)


class TestPaperAreaNumbers:
    """The MZI counts of Table II, evaluated on the full-size models."""

    @pytest.mark.parametrize("architecture,num_classes,depth,orig,prop", [
        ("fcnn", 10, 20, 31.7e4, 7.9e4),
        ("lenet5", 10, 20, 11.5e4, 2.9e4),
        ("resnet", 10, 20, 116.6e4, 29.1e4),
    ])
    def test_table2_mzi_counts(self, architecture, num_classes, depth, orig, prop):
        input_shape = (1, 28, 28) if architecture == "fcnn" else (3, 32, 32)
        assignment = "SI" if architecture == "fcnn" else "CL"
        scvnn = build_model(ModelSpec(architecture, "scvnn", input_shape, num_classes,
                                      assignment=assignment, decoder="merge", depth=depth))
        cvnn = build_model(ModelSpec(architecture, "cvnn", input_shape, num_classes,
                                     decoder="photodiode", depth=depth))
        comparison = compare_area(scvnn, cvnn)
        assert comparison["baseline_mzis"] == pytest.approx(orig, rel=0.02)
        assert comparison["proposed_mzis"] == pytest.approx(prop, rel=0.05)
        assert comparison["reduction"] == pytest.approx(0.75, abs=0.015)

    def test_resnet32_cifar100_reduction(self):
        scvnn = build_model(ModelSpec("resnet", "scvnn", (3, 32, 32), 100,
                                      assignment="CL", decoder="merge", depth=32))
        cvnn = build_model(ModelSpec("resnet", "cvnn", (3, 32, 32), 100,
                                     decoder="photodiode", depth=32))
        comparison = compare_area(scvnn, cvnn)
        assert comparison["baseline_mzis"] == pytest.approx(205.1e4, rel=0.02)
        assert comparison["reduction"] == pytest.approx(0.75, abs=0.02)

    def test_channel_remapping_reduces_further(self):
        """CR reaches ~90% reduction (Fig. 8) at the cost of information loss."""
        cr = build_model(ModelSpec("resnet", "scvnn", (3, 32, 32), 10,
                                   assignment="CR", decoder="merge", depth=20))
        cvnn = build_model(ModelSpec("resnet", "cvnn", (3, 32, 32), 10,
                                     decoder="photodiode", depth=20))
        reduction = compare_area(cr, cvnn)["reduction"]
        assert reduction == pytest.approx(0.89, abs=0.03)

    def test_spatial_assignment_does_not_shrink_resnet(self):
        """SI on a ResNet yields (almost) no area reduction (discussed around Fig. 8)."""
        si = build_model(ModelSpec("resnet", "scvnn", (3, 32, 32), 10,
                                   assignment="SI", decoder="merge", depth=20))
        cvnn = build_model(ModelSpec("resnet", "cvnn", (3, 32, 32), 10,
                                     decoder="photodiode", depth=20))
        reduction = compare_area(si, cvnn)["reduction"]
        assert abs(reduction) < 0.02

    def test_area_report_lists_every_weight_layer(self):
        model = build_model(ModelSpec("fcnn", "scvnn", (1, 28, 28), 10, assignment="SI"))
        report = model_area_report(model)
        assert len(report.layers) == 2      # hidden layer + merged head
        assert report.total_mzis > 0
