"""Tests of the baseline architectures: conventional ONN, OFFT [19] and pruning [18]."""

import numpy as np
import pytest

from repro.baselines import (
    BlockCirculantLinear,
    OFFTFCNN,
    magnitude_prune_model,
    offt_device_counts,
    offt_parameter_count,
    pruned_area_report,
    sparsity_of_model,
)
from repro.baselines.offt import conventional_device_counts
from repro.core.area_analysis import model_area_report
from repro.experiments.common import get_workload, paper_specs
from repro.experiments.table2 import paper_area_numbers
from repro.models import ComplexFCNN, RealFCNN, build_model
from repro.tensor import Tensor, gradcheck, no_grad


class TestBlockCirculant:
    def test_weight_matrix_is_block_circulant(self, rng):
        layer = BlockCirculantLinear(8, 8, block_size=4, bias=False, rng=rng)
        weight = layer.full_weight().data
        for block_row in range(2):
            for block_col in range(2):
                block = weight[block_row * 4:(block_row + 1) * 4, block_col * 4:(block_col + 1) * 4]
                # every diagonal of a circulant block is constant
                for offset in range(4):
                    diagonal = np.array([block[(i + offset) % 4, i] for i in range(4)])
                    assert np.allclose(diagonal, diagonal[0])

    def test_parameter_count_is_reduced(self, rng):
        layer = BlockCirculantLinear(16, 8, block_size=4, rng=rng)
        assert layer.parameter_count == (8 // 4) * (16 // 4) * 4
        assert layer.parameter_count == offt_parameter_count(8, 16, 4)

    def test_forward_shape_with_padding(self, rng):
        layer = BlockCirculantLinear(10, 6, block_size=4, rng=rng)
        out = layer(Tensor(rng.normal(size=(3, 10))))
        assert out.shape == (3, 6)

    def test_forward_matches_materialised_weight(self, rng):
        layer = BlockCirculantLinear(8, 4, block_size=4, bias=False, rng=rng)
        x = rng.normal(size=(2, 8))
        with no_grad():
            expected = x @ layer.full_weight().data.T
            out = layer(Tensor(x)).data
        assert np.allclose(out, expected[:, :4])

    def test_gradients_flow_to_block_parameters(self, rng):
        layer = BlockCirculantLinear(4, 4, block_size=2, rng=rng)
        x = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        gradcheck(lambda: (layer(x) ** 2).sum(), [x, layer.block_weights], atol=1e-4)

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            BlockCirculantLinear(4, 4, block_size=0)

    def test_offt_fcnn_trains_shape(self, rng):
        model = OFFTFCNN(16, (8,), 3, block_size=4, rng=rng)
        out = model(Tensor(rng.normal(size=(5, 1, 4, 4))))
        assert out.shape == (5, 3)
        assert model.layer_shapes() == [(8, 16), (3, 8)]


class TestOFFTDeviceCounts:
    def test_parameter_compression(self):
        assert offt_parameter_count(400, 784, 4) == 100 * 196 * 4
        counts = offt_device_counts([(400, 784), (10, 400)], block_size=4)
        original = conventional_device_counts([(400, 784), (10, 400)])
        assert counts.parameters < original.parameters

    def test_offt_reduces_devices_but_less_than_oplixnet(self):
        """Fig. 7 shape: original > OFFT > OplixNet in DC count."""
        from repro.experiments.fig7 import FIG7_MODELS, device_counts

        for config in FIG7_MODELS:
            counts = device_counts(config, block_size=4)
            assert counts["offt"]["dc"] < 1.0
            assert counts["offt"]["ps"] < 1.0
            assert counts["oplixnet"]["dc"] < counts["offt"]["dc"]
            assert counts["oplixnet"]["ps"] < counts["offt"]["ps"]
            # OplixNet keeps more parameters than the OFFT compression
            assert counts["oplixnet"]["parameters"] > counts["offt"]["parameters"]

    def test_block_size_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            offt_device_counts([(8, 8)], block_size=3)


class TestConventionalBaseline:
    """The conventional ONN [10]: the CVNN flavour with a photodiode readout."""

    def test_builder_returns_full_width_cvnn(self):
        model = build_model(paper_specs(get_workload("fcnn"))[1])
        assert isinstance(model, ComplexFCNN)
        assert model.in_features == 28 * 28
        assert model.head.name == "photodiode"

    def test_no_separate_builder_module(self):
        with pytest.raises(ModuleNotFoundError):
            __import__("repro.baselines.conventional")

    def test_area_report_matches_model_walk(self):
        # benchmarks/results/table2.json records 316991 for this row
        area = paper_area_numbers(get_workload("fcnn"))
        assert area["original_mzis"] == pytest.approx(31.7e4, rel=0.01)


class TestPruning:
    def test_prune_reaches_requested_sparsity(self, rng):
        model = RealFCNN(32, (16,), 4, rng=rng)
        removed = magnitude_prune_model(model, 0.5)
        assert removed > 0
        assert sparsity_of_model(model) == pytest.approx(0.5, abs=0.05)

    def test_prune_complex_model(self, rng):
        model = ComplexFCNN(16, (8,), 3, rng=rng)
        magnitude_prune_model(model, 0.75)
        assert sparsity_of_model(model) == pytest.approx(0.75, abs=0.05)

    def test_prune_removes_smallest_weights_first(self, rng):
        model = RealFCNN(8, (), 2, rng=rng)
        weight_before = np.abs(model.network[0].weight.data.copy())
        magnitude_prune_model(model, 0.5)
        weight_after = model.network[0].weight.data
        removed_magnitudes = weight_before[weight_after == 0]
        kept_magnitudes = weight_before[weight_after != 0]
        assert removed_magnitudes.max() <= kept_magnitudes.min() + 1e-12

    def test_invalid_sparsity(self, rng):
        model = RealFCNN(8, (), 2, rng=rng)
        with pytest.raises(ValueError):
            magnitude_prune_model(model, 1.0)
        with pytest.raises(ValueError):
            pruned_area_report(model, -0.1)

    def test_pruned_area_scales_with_kept_fraction(self, rng):
        model = ComplexFCNN(16, (8,), 3, rng=rng)
        dense = model_area_report(model)
        pruned = pruned_area_report(model, 0.75)
        assert pruned.total_mzis == pytest.approx(0.25 * dense.total_mzis, rel=0.02)

    def test_zero_sparsity_keeps_everything(self, rng):
        model = RealFCNN(8, (4,), 2, rng=rng)
        assert magnitude_prune_model(model, 0.0) == 0
        assert sparsity_of_model(model) == 0.0
