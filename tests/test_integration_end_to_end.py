"""End-to-end integration tests crossing several subsystems.

These are intentionally slower than unit tests (they train tiny CNNs) but they
exercise the same paths the benchmark harness uses: dataset generation, data
assignment, complex model construction, training, mutual learning, area
analysis and photonic deployment with non-idealities.
"""

import numpy as np
import pytest

import repro
from repro.assignment import get_scheme
from repro.core.area_analysis import compare_area, model_area_report
from repro.core.config import ExperimentConfig, TrainingConfig
from repro.core.pipeline import OplixNet
from repro.core.training import evaluate_accuracy
from repro.photonics.noise import PhaseNoiseModel


def config_for(architecture: str, **overrides) -> ExperimentConfig:
    base = dict(
        name=f"integration-{architecture}",
        architecture=architecture,
        dataset="mnist" if architecture == "fcnn" else "cifar10",
        num_classes=10,
        image_size=(10, 10) if architecture == "fcnn" else (12, 12),
        channels=1 if architecture == "fcnn" else 3,
        assignment="SI" if architecture == "fcnn" else "CL",
        decoder="merge",
        depth=8,
        width_divider=4,
        lenet_kernel=3,
        lenet_padding=1,
        train_samples=240,
        test_samples=80,
        training=TrainingConfig(epochs=4, batch_size=32, learning_rate=0.05, seed=0),
        seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestFCNNEndToEnd:
    def test_split_fcnn_beats_chance_and_deploys_faithfully(self):
        pipeline = OplixNet(config_for("fcnn"))
        student, history = pipeline.train_student(mutual_learning=False)
        assert history.final_test_accuracy > 0.3    # 10 classes -> chance is 0.1

        deployed = repro.compile(student)
        _train, test = pipeline.datasets()
        images = np.stack([test[i][0] for i in range(40)])
        labels = np.array([test[i][1] for i in range(40)])
        scheme = pipeline.student_scheme()
        optical_accuracy = float((deployed.classify(images, scheme) == labels).mean())
        software_predictions = []
        from repro.core.training import prepare_batch
        from repro.tensor import no_grad

        with no_grad():
            software_predictions = student(prepare_batch(images, scheme)).data.argmax(axis=1)
        assert np.array_equal(deployed.classify(images, scheme), software_predictions)
        assert optical_accuracy > 0.3

    def test_phase_noise_degrades_deployed_accuracy_gracefully(self):
        pipeline = OplixNet(config_for("fcnn"))
        student, _ = pipeline.train_student(mutual_learning=False)
        deployed = repro.compile(student)
        _train, test = pipeline.datasets()
        images = np.stack([test[i][0] for i in range(60)])
        labels = np.array([test[i][1] for i in range(60)])
        scheme = pipeline.student_scheme()

        clean_accuracy = float((deployed.classify(images, scheme) == labels).mean())
        heavy_noise = deployed.with_noise(noise=PhaseNoiseModel(sigma=1.5,
                                                                rng=np.random.default_rng(0)))
        noisy_accuracy = float((heavy_noise.classify(images, scheme) == labels).mean())
        # phases scrambled by ~90 degrees destroy the computation
        assert noisy_accuracy < clean_accuracy
        mild_noise = deployed.with_noise(noise=PhaseNoiseModel(sigma=0.002,
                                                               rng=np.random.default_rng(0)))
        mild_accuracy = float((mild_noise.classify(images, scheme) == labels).mean())
        assert mild_accuracy >= clean_accuracy - 0.1

    def test_mutual_learning_student_close_to_teacher(self):
        pipeline = OplixNet(config_for("fcnn"))
        _student, result = pipeline.train_student(mutual_learning=True)
        assert result.student_test_accuracy > 0.3
        assert abs(result.student_test_accuracy - result.teacher_test_accuracy) < 0.35


class TestCNNEndToEnd:
    def test_lenet_channel_lossless_pipeline(self):
        pipeline = OplixNet(config_for("lenet5"))
        student, history = pipeline.train_student(mutual_learning=False)
        # the model must have learned: training accuracy well above the 10-class
        # chance level and test accuracy at least at chance (the dataset is tiny)
        assert history.train_accuracy[-1] > 0.2
        assert history.final_test_accuracy >= 0.125
        # at this heavily width-divided scale the relative head overhead is larger
        # than at paper scale, so the reduction is below the paper's 74.6%
        area = pipeline.area_summary()
        assert 0.6 < area["reduction"] < 0.8

    def test_resnet_channel_lossless_pipeline(self):
        pipeline = OplixNet(config_for("resnet", depth=8))
        student, history = pipeline.train_student(mutual_learning=False)
        assert history.train_accuracy[-1] > 0.2
        assert history.final_test_accuracy >= 0.125
        report = model_area_report(student)
        assert report.total_mzis > 0

    def test_scvnn_is_smaller_than_cvnn_for_every_architecture(self):
        for architecture in ("fcnn", "lenet5", "resnet"):
            pipeline = OplixNet(config_for(architecture))
            comparison = compare_area(pipeline.build_student(), pipeline.build_baseline_cvnn())
            assert comparison["reduction"] > 0.5

    def test_cvnn_reference_trains_with_conventional_assignment(self):
        pipeline = OplixNet(config_for("lenet5"))
        model, history = pipeline.train_reference("cvnn")
        accuracy = evaluate_accuracy(model, pipeline.loaders()[1], get_scheme("conventional"))
        assert accuracy == pytest.approx(history.final_test_accuracy, abs=1e-9)
        assert accuracy > 0.2
