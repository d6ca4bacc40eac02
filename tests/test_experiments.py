"""Tests of the experiment harnesses (tables / figures) and their reporting."""

import json

import numpy as np
import pytest

from repro.core.distillation import MutualLearningResult
from repro.core.pipeline import OplixNet
from repro.core.training import TrainingHistory
from repro.experiments import PRESETS, get_preset
from repro.experiments.ablations import (
    run_alpha_sweep,
    run_encoder_throughput,
    run_mesh_comparison,
    run_noise_robustness,
    run_pruning_comparison,
    format_alpha_sweep,
    format_mesh_comparison,
    format_noise_robustness,
    format_pruning,
)
from repro.experiments.common import WORKLOADS, get_workload, paper_specs, workload_config
from repro.experiments.fig7 import FIG7_MODELS, device_counts, format_fig7, run_fig7
from repro.experiments.fig8 import area_reduction_at_paper_scale, format_fig8, run_fig8
from repro.experiments.fig9 import format_fig9, normalized_area_at_paper_scale, run_fig9
from repro.experiments.reporting import (
    as_dicts,
    format_table,
    percent,
    save_json,
    time_interleaved,
)
from repro.experiments.table2 import format_table2, paper_area_numbers, run_table2
from repro.experiments.table3 import format_table3, run_table3, run_workload


class TestPresetsAndWorkloads:
    def test_presets_exist(self):
        for name in ("smoke", "bench", "paper"):
            preset = get_preset(name)
            assert preset.name == name
        with pytest.raises(KeyError):
            get_preset("huge")
        assert set(PRESETS) == {"smoke", "bench", "paper"}

    def test_workload_lookup(self):
        assert get_workload("fcnn").dataset == "mnist"
        assert get_workload("resnet32").dataset == "cifar100"
        with pytest.raises(KeyError):
            get_workload("vgg")
        assert len(WORKLOADS) == 4

    def test_workload_config_respects_preset(self):
        preset = get_preset("smoke")
        config = workload_config(get_workload("fcnn"), preset, seed=3)
        assert config.image_size == preset.fcnn_image
        assert config.training.epochs == preset.epochs
        assert config.training.seed == 3
        cnn_config = workload_config(get_workload("resnet32"), preset)
        assert cnn_config.num_classes == preset.cifar100_classes
        assert cnn_config.depth == preset.resnet_large_depth

    def test_paper_specs_are_full_size(self):
        scvnn_spec, cvnn_spec = paper_specs(get_workload("resnet20"))
        assert scvnn_spec.input_shape == (3, 32, 32)
        assert scvnn_spec.depth == 20 and cvnn_spec.depth == 20
        assert scvnn_spec.width_divider == 1.0


class TestReportingHelpers:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.0], ["bb", 0.5]], title="demo")
        assert "demo" in text and "name" in text and "bb" in text

    def test_percent(self):
        assert percent(0.7503) == "75.03%"

    def test_save_json_roundtrip(self, tmp_path):
        rows = run_mesh_comparison(dimensions=[3])
        path = save_json(rows, tmp_path / "mesh.json")
        loaded = json.loads(path.read_text())
        assert loaded[0]["dimension"] == 3

    def test_as_dicts_type_error(self):
        with pytest.raises(TypeError):
            as_dicts([object()])


class TestTimeInterleaved:
    @staticmethod
    def _recorders(names, calls):
        return [lambda name=name: calls.append(name) for name in names]

    def test_warms_each_side_once_then_rotates_the_first_side(self):
        calls = []
        timings = time_interleaved(*self._recorders("abc", calls), rounds=4)
        # one untimed call each, then rounds starting at a, b, c, a
        assert calls == list("abc" "abc" "bca" "cab" "abc")
        assert len(timings) == 3
        assert all(len(timing.samples_s) == 4 for timing in timings)

    def test_two_sides_alternate_which_runs_first(self):
        calls = []
        time_interleaved(*self._recorders("ab", calls), rounds=3)
        assert calls == list("ab" "ab" "ba" "ab")

    def test_record_statistics(self):
        fast, slow = time_interleaved(lambda: None,
                                      lambda: sum(range(20_000)), rounds=5)
        for timing in (fast, slow):
            assert timing.min_s == min(timing.samples_s)
            assert timing.min_s <= timing.p50_s <= max(timing.samples_s)
            assert timing.p50_s == sorted(timing.samples_s)[2]
        assert fast.min_s < slow.min_s

    def test_one_callable_is_a_warmed_one_sided_timing(self):
        calls = []
        (timing,) = time_interleaved(*self._recorders("a", calls), rounds=3)
        assert calls == ["a"] * 4
        assert len(timing.samples_s) == 3
        assert 0.0 <= timing.min_s <= timing.p50_s

    def test_rejects_empty_requests(self):
        with pytest.raises(ValueError):
            time_interleaved(rounds=3)
        with pytest.raises(ValueError):
            time_interleaved(lambda: None, rounds=0)


class TestTable2:
    def test_paper_area_numbers_match_table(self):
        numbers = paper_area_numbers(get_workload("fcnn"))
        assert numbers["original_mzis"] == pytest.approx(31.7e4, rel=0.01)
        assert numbers["proposed_mzis"] == pytest.approx(7.9e4, rel=0.02)
        assert numbers["mzi_reduction"] == pytest.approx(0.75, abs=0.01)

    def test_all_workloads_reduce_by_about_75_percent(self):
        for workload in WORKLOADS:
            reduction = paper_area_numbers(workload)["mzi_reduction"]
            assert reduction == pytest.approx(0.75, abs=0.02)

    def test_run_and_format_smoke(self):
        rows = run_table2(preset="smoke", workloads=["fcnn"])
        assert len(rows) == 1
        row = rows[0]
        assert 0.0 <= row.proposed_accuracy <= 1.0
        assert row.mzi_reduction == pytest.approx(0.75, abs=0.01)
        text = format_table2(rows)
        assert "FCNN" in text and "#MZI Red." in text


class TestTable3:
    def test_run_and_format_smoke(self):
        rows = run_table3(preset="smoke", workloads=["lenet5"])
        assert len(rows) == 1
        assert rows[0].teacher == "LeNet-5"
        assert 0.0 <= rows[0].accuracy_with_ml <= 1.0
        text = format_table3(rows)
        assert "mutual learning" in text.lower() or "ML" in text

    @pytest.mark.parametrize("preset,student,teacher", [
        ("bench", "ResNet-8", "ResNet-14"),
        ("paper", "ResNet-20", "ResNet-56"),
    ])
    def test_rows_name_the_depths_that_ran(self, monkeypatch, preset, student, teacher):
        built = []

        def fake_train_student(pipeline, mutual_learning=True, verbose=False):
            built.append((pipeline.config.depth, pipeline.config.teacher_depth))
            outcome = MutualLearningResult() if mutual_learning else TrainingHistory()
            return None, outcome

        monkeypatch.setattr(OplixNet, "train_student", fake_train_student)
        row = run_workload(get_workload("resnet20"), get_preset(preset))
        assert (row.model, row.teacher) == (student, teacher)
        assert {f"ResNet-{depth}" for depth, _ in built} == {student}
        assert {f"ResNet-{depth}" for _, depth in built} == {teacher}


class TestFig7:
    def test_device_counts_shape(self):
        for config in FIG7_MODELS:
            counts = device_counts(config)
            assert counts["original"]["dc"] == 1.0
            assert counts["oplixnet"]["dc"] == pytest.approx(0.25, abs=0.03)
            assert counts["oplixnet"]["dc"] < counts["offt"]["dc"] < 1.0

    def test_oplixnet_has_more_parameters_than_offt(self):
        counts = device_counts(FIG7_MODELS[0], block_size=4)
        assert counts["oplixnet"]["parameters"] > counts["offt"]["parameters"]

    def test_run_and_format_smoke(self):
        rows = run_fig7(preset="smoke", models=["Model2"])
        assert len(rows) == 3
        architectures = {row.architecture for row in rows}
        assert architectures == {"original", "offt", "oplixnet"}
        assert "Figure 7" in format_fig7(rows)


class TestFig8:
    def test_area_reductions_at_paper_scale(self):
        fcnn = get_workload("fcnn")
        assert area_reduction_at_paper_scale(fcnn, "SI") == pytest.approx(0.75, abs=0.01)
        assert area_reduction_at_paper_scale(fcnn, "SS") == pytest.approx(0.75, abs=0.01)
        lenet = get_workload("lenet5")
        cl = area_reduction_at_paper_scale(lenet, "CL")
        si = area_reduction_at_paper_scale(lenet, "SI")
        cr = area_reduction_at_paper_scale(lenet, "CR")
        # the paper: SI reduces a few points more than CL on LeNet-5; CR reduces ~90%
        assert si > cl
        assert si - cl == pytest.approx(0.058, abs=0.03)
        assert cr == pytest.approx(0.90, abs=0.05)
        resnet = get_workload("resnet20")
        assert abs(area_reduction_at_paper_scale(resnet, "SI")) < 0.02

    def test_run_and_format_smoke(self):
        rows = run_fig8(preset="smoke", workloads=["fcnn"])
        assert {row.scheme for row in rows} == {"SI", "SH", "SS"}
        assert all(row.area_reduction == pytest.approx(0.75, abs=0.01) for row in rows)
        assert "assignment" in format_fig8(rows).lower()


class TestFig9:
    def test_normalized_areas_follow_paper_ordering(self):
        workload = get_workload("fcnn")
        areas = {decoder: normalized_area_at_paper_scale(workload, decoder)
                 for decoder in ("merge", "linear", "unitary", "coherent")}
        assert areas["coherent"] == pytest.approx(1.0)
        assert 1.0 < areas["merge"] < areas["unitary"] < areas["linear"]
        # the merge overhead is a fraction of a percent (paper: 0.04% - 0.73%)
        assert areas["merge"] - 1.0 < 0.01

    def test_run_and_format_smoke(self):
        rows = run_fig9(preset="smoke", workloads=["fcnn"], decoders=("merge", "coherent"))
        assert len(rows) == 2
        coherent = [row for row in rows if row.decoder == "coherent"][0]
        assert coherent.extra_readout
        assert "decoder" in format_fig9(rows).lower()

    def test_hardware_noise_sweep_smoke(self):
        from repro.experiments.fig9 import format_fig9_hardware, run_fig9_hardware

        rows = run_fig9_hardware(preset="smoke", decoders=("merge",),
                                 sigmas=(0.0, 0.1), trials=3, eval_samples=16)
        assert len(rows) == 2
        clean = [row for row in rows if row.sigma == 0.0][0]
        # the zero-sigma ensemble must reproduce the noiseless deployment
        assert clean.deployed_accuracy == pytest.approx(clean.noiseless_accuracy)
        assert all(row.trials == 3 for row in rows)
        assert all(0.0 <= row.deployed_accuracy <= 1.0 for row in rows)
        assert "hardware" in format_fig9_hardware(rows).lower()


class TestAblations:
    def test_mesh_comparison(self):
        rows = run_mesh_comparison(dimensions=[4, 6])
        assert len(rows) == 4
        for row in rows:
            assert row.reconstruction_error < 1e-9
        reck_depth = [r.optical_depth for r in rows if r.method == "reck" and r.dimension == 6][0]
        clements_depth = [r.optical_depth for r in rows if r.method == "clements" and r.dimension == 6][0]
        assert clements_depth <= reck_depth
        assert "Reck" in format_mesh_comparison(rows)

    def test_encoder_throughput(self):
        rows = run_encoder_throughput(sample_counts=(100,))
        dc = [r for r in rows if r.encoder == "dc"][0]
        ps = [r for r in rows if r.encoder == "ps"][0]
        assert ps.latency_seconds > dc.latency_seconds * 100
        assert ps.has_time_bottleneck and not dc.has_time_bottleneck

    def test_noise_robustness_smoke(self):
        points = run_noise_robustness(preset="smoke", sigmas=(0.0, 0.2), eval_samples=24)
        assert len(points) == 2
        assert all(0.0 <= p.split_onn_accuracy <= 1.0 for p in points)
        assert "phase" in format_noise_robustness(points).lower()

    def test_noise_robustness_batched_trials(self):
        points = run_noise_robustness(preset="smoke", sigmas=(0.0, 0.1),
                                      eval_samples=16, trials=3)
        assert all(p.trials == 3 for p in points)
        assert all(0.0 <= p.split_onn_accuracy <= 1.0 for p in points)
        assert all(0.0 <= p.conventional_onn_accuracy <= 1.0 for p in points)

    def test_alpha_sweep_smoke(self):
        points = run_alpha_sweep(preset="smoke", alphas=(0.0, 1.0), workload_key="fcnn")
        assert [p.alpha for p in points] == [0.0, 1.0]
        assert "alpha" in format_alpha_sweep(points)

    def test_pruning_comparison_smoke(self):
        rows = run_pruning_comparison(preset="smoke", sparsities=(0.75,))
        labels = [row.configuration for row in rows]
        assert any("dense" in label for label in labels)
        assert any("OplixNet" in label for label in labels)
        pruned = [row for row in rows if "pruned" in row.configuration][0]
        assert pruned.mzi_fraction == pytest.approx(0.25, abs=0.01)
        assert "pruning" in format_pruning(rows).lower()


class TestDeployedCnn:
    def test_deployed_cnn_smoke(self):
        from repro.experiments.deployed import format_deployed_cnn, run_deployed_cnn

        rows = run_deployed_cnn(preset="smoke", sigmas=(0.0, 0.05), trials=3,
                                eval_samples=16)
        assert len(rows) == 2
        # the noiseless deployed circuit matches the software model
        assert rows[0].max_logit_error < 1e-8
        assert rows[0].deployed_accuracy == rows[0].software_accuracy
        assert all(r.trials == 3 for r in rows)
        assert all(0.0 <= r.noisy_accuracy <= 1.0 for r in rows)
        assert "im2col" in format_deployed_cnn(rows)

    def test_deployed_resnet_smoke(self):
        from repro.experiments.deployed import format_deployed_resnet, run_deployed_resnet

        rows = run_deployed_resnet(preset="smoke", sigmas=(0.0, 0.05), trials=2,
                                   eval_samples=12)
        assert len(rows) == 2
        # the noiseless graph-compiled circuit matches the software model
        assert rows[0].max_logit_error < 1e-8
        assert rows[0].deployed_accuracy == rows[0].software_accuracy
        assert all(0.0 <= r.noisy_accuracy <= 1.0 for r in rows)
        assert "graph" in format_deployed_resnet(rows)
