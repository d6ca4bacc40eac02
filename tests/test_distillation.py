"""Tests of SCVNN-CVNN mutual learning (Section III-C)."""

import copy

import numpy as np
import pytest

from repro.assignment import get_scheme
from repro.core.config import TrainingConfig
from repro.core.distillation import MutualLearningResult, MutualLearningTrainer
from repro.core.training import Trainer, prepare_batch
from repro.data import DataLoader
from repro.data.dataset import ArrayDataset
from repro.models import ComplexFCNN, ComplexResNet
from repro.nn.complex import ComplexLinear, ComplexSequential, ZReLU
from repro.tensor.random import seed_all


def loaders(dataset, batch_size=16):
    return (DataLoader(dataset, batch_size=batch_size, shuffle=True, rng=np.random.default_rng(0)),
            DataLoader(dataset, batch_size=batch_size, shuffle=False))


def build_pair(rng):
    """A split student (half width) and a conventional-assignment teacher."""
    student = ComplexFCNN(18, (10,), 2, decoder="merge", rng=rng)
    teacher = ComplexFCNN(36, (20,), 2, decoder="photodiode", rng=rng)
    return student, teacher


class TestMutualLearning:
    def test_both_networks_learn(self, tiny_flat_dataset, rng):
        student, teacher = build_pair(rng)
        config = TrainingConfig(epochs=5, batch_size=16, learning_rate=0.05,
                                distillation_alpha=1.0, seed=0)
        trainer = MutualLearningTrainer(student, teacher, config,
                                        student_scheme=get_scheme("SI"))
        train_loader, test_loader = loaders(tiny_flat_dataset)
        result = trainer.fit(train_loader, test_loader)
        assert isinstance(result, MutualLearningResult)
        assert result.student_test_accuracy > 0.75
        assert result.teacher_test_accuracy > 0.75
        assert len(result.student_history.train_loss) == 5
        assert result.student_history.train_loss[-1] < result.student_history.train_loss[0]

    def test_kd_term_uses_config_alpha_at_temperature_two(self, rng):
        student, teacher = build_pair(rng)
        trainer = MutualLearningTrainer(student, teacher,
                                        TrainingConfig(epochs=1, distillation_alpha=0.3),
                                        student_scheme=get_scheme("SI"))
        assert (trainer._loss.alpha, trainer._loss.temperature) == (0.3, 2.0)

    def test_teacher_defaults_to_conventional_assignment(self, rng):
        student, teacher = build_pair(rng)
        trainer = MutualLearningTrainer(student, teacher, TrainingConfig(epochs=1),
                                        student_scheme=get_scheme("SI"))
        assert trainer.teacher_scheme.name == "conventional"

    def test_alpha_zero_reduces_to_independent_training(self, tiny_flat_dataset, rng):
        """With alpha = 0 the distillation terms vanish; the losses are plain CE."""
        student, teacher = build_pair(rng)
        config = TrainingConfig(epochs=1, batch_size=16, learning_rate=0.05,
                                distillation_alpha=0.0, seed=0)
        trainer = MutualLearningTrainer(student, teacher, config,
                                        student_scheme=get_scheme("SI"))
        train_loader, test_loader = loaders(tiny_flat_dataset)
        result = trainer.fit(train_loader, test_loader)
        assert np.isfinite(result.student_history.train_loss[0])

    def test_single_step_updates_both_models(self, tiny_flat_dataset, rng):
        student, teacher = build_pair(rng)
        config = TrainingConfig(epochs=1, batch_size=8, learning_rate=0.1, seed=0)
        trainer = MutualLearningTrainer(student, teacher, config,
                                        student_scheme=get_scheme("SI"))
        images = np.stack([tiny_flat_dataset[i][0] for i in range(8)])
        labels = np.array([tiny_flat_dataset[i][1] for i in range(8)])
        student_before = student.trunk[0].weight_real.data.copy()
        teacher_before = teacher.trunk[0].weight_real.data.copy()
        student_loss, teacher_loss = trainer._mutual_step(images, labels)
        assert np.isfinite(student_loss) and np.isfinite(teacher_loss)
        assert not np.allclose(student.trunk[0].weight_real.data, student_before)
        assert not np.allclose(teacher.trunk[0].weight_real.data, teacher_before)

    def test_distillation_pulls_student_towards_teacher(self, tiny_flat_dataset, rng):
        """With a huge alpha the student's predictions approach the teacher's."""
        from repro.tensor import no_grad
        from repro.tensor.functional import softmax

        student, teacher = build_pair(rng)
        config = TrainingConfig(epochs=6, batch_size=16, learning_rate=0.05,
                                distillation_alpha=10.0, seed=0)
        trainer = MutualLearningTrainer(student, teacher, config,
                                        student_scheme=get_scheme("SI"))
        train_loader, _ = loaders(tiny_flat_dataset)
        trainer.fit(train_loader)

        images = np.stack([tiny_flat_dataset[i][0] for i in range(16)])
        with no_grad():
            student_probabilities = softmax(student(prepare_batch(images, get_scheme("SI")))).data
            teacher_probabilities = softmax(teacher(prepare_batch(images, get_scheme("conventional")))).data
        agreement = (student_probabilities.argmax(1) == teacher_probabilities.argmax(1)).mean()
        assert agreement > 0.7


# --------------------------------------------------------------------------- #
# the compiled mutual step
# --------------------------------------------------------------------------- #
def resnet_pair():
    rng = np.random.default_rng(7)
    student = ComplexResNet(depth=8, in_channels=2, num_classes=2,
                            base_widths=(2, 4, 8), decoder="merge", rng=rng)
    teacher = ComplexResNet(depth=8, in_channels=2, num_classes=2,
                            base_widths=(4, 8, 16), decoder="photodiode", rng=rng)
    return student, teacher


def pair_dataset(name):
    """40 samples: at batch 16 the last batch of each epoch holds 8 (a second plan)."""
    rng = np.random.default_rng(1234)
    labels = np.arange(40) % 2
    if name == "fcnn":
        images = rng.normal(0.0, 0.4, size=(40, 1, 6, 6))
        images[labels == 1, :, :3, :] += 1.2
    else:
        images = rng.normal(0.0, 0.4, size=(40, 2, 32, 16))
        images[labels == 1, :, :16] += 1.0
    return ArrayDataset(images, labels, num_classes=2)


def mutual_trainer(name, **overrides):
    seed_all(0)
    student, teacher = (build_pair(np.random.default_rng(7)) if name == "fcnn"
                        else resnet_pair())
    settings = dict(epochs=3, batch_size=16, learning_rate=0.05, seed=0)
    settings.update(overrides)
    return MutualLearningTrainer(student, teacher, TrainingConfig(**settings),
                                 student_scheme=get_scheme("SI"))


def fit_pair(name, planned, **overrides):
    trainer = mutual_trainer(name, **overrides)
    if not planned:
        trainer.train_step = trainer._mutual_step  # the eager oracle
    loader = DataLoader(pair_dataset(name), batch_size=16, shuffle=True,
                        rng=np.random.default_rng(0))
    return trainer, trainer.fit(loader)


def assert_same_state(first, second):
    first_state, second_state = first.state_dict(), second.state_dict()
    assert first_state.keys() == second_state.keys()
    mismatched = [key for key in first_state
                  if not np.array_equal(np.asarray(first_state[key]),
                                        np.asarray(second_state[key]))]
    assert not mismatched, f"state diverged at {mismatched}"


def running_buffers(model):
    return {key: np.array(value) for key, value in model.state_dict().items()
            if "running" in key}


class TestPlannedMutualStep:
    """The planned step is bit-identical to the eager ``_mutual_step``."""

    @pytest.fixture(autouse=True)
    def _fast_kernels(self, monkeypatch):
        # under REPRO_FORCE_REFERENCE both sides would run the eager tape
        monkeypatch.delenv("REPRO_FORCE_REFERENCE", raising=False)

    @pytest.mark.parametrize("name,overrides", [
        ("fcnn", {}),
        ("resnet", {}),
        ("fcnn", {"distillation_alpha": 0.0}),
    ], ids=["fcnn", "resnet", "alpha0"])
    def test_multi_epoch_trajectory_is_bit_identical(self, name, overrides):
        eager, eager_result = fit_pair(name, False, **overrides)
        planned, planned_result = fit_pair(name, True, **overrides)
        stats = planned.plan_stats
        assert stats["enabled"] is True
        assert stats["fallback_reason"] is None
        assert stats["compiled"] == 2          # batches of 16 and the last 8
        for plans in stats["plans"].values():
            assert set(plans) == {"student", "teacher"}
        assert eager.plan_stats["compiled"] == 0
        for role in ("student_history", "teacher_history"):
            assert (getattr(planned_result, role).train_loss
                    == getattr(eager_result, role).train_loss)
        # state_dict covers parameters and batch-norm running buffers
        assert_same_state(eager.student, planned.student)
        assert_same_state(eager.teacher, planned.teacher)

    def test_distillation_plans_carry_late_peer_inputs(self):
        planned, _ = fit_pair("fcnn", True, epochs=1)
        for plans in planned.plan_stats["plans"].values():
            for stats in plans.values():
                assert stats["loss_tail_instructions"] > 0
        for trainer in (planned.student_trainer, planned.teacher_trainer):
            for plan in trainer._plans.values():
                assert plan.input_meta["kl_peer_probs"]["late"] is True
                assert plan.input_meta["kl_peer_log_probs"]["late"] is True

    @pytest.mark.parametrize("planned", [False, True], ids=["eager", "planned"])
    def test_teacher_batch_norm_moves_once_per_step(self, planned):
        """One momentum update of every running buffer per step, not two."""
        trainer = mutual_trainer("resnet")
        dataset = pair_dataset("resnet")
        images, labels = dataset.images[:16], dataset.labels[:16]
        trainer.student.train()
        trainer.teacher.train()
        if planned:
            trainer.train_step(images, labels)   # traces and compiles
            assert trainer.plan_stats["compiled"] == 1
        # one eager train-mode forward of a copy moves each buffer exactly once
        expected = copy.deepcopy(trainer.teacher)
        expected(prepare_batch(images, get_scheme("conventional")))
        before = running_buffers(trainer.teacher)
        step = trainer.train_step if planned else trainer._mutual_step
        step(images, labels)
        after = running_buffers(trainer.teacher)
        assert after
        for key, value in running_buffers(expected).items():
            assert not np.array_equal(after[key], before[key]), key
            assert np.array_equal(after[key], value), key

    def test_volatile_student_falls_back_to_eager(self):
        trainer = mutual_trainer("fcnn", epochs=1)
        trainer.student.trunk = ComplexSequential(
            ComplexLinear(18, 10, rng=np.random.default_rng(3)), ZReLU())
        trainer.student_trainer = Trainer(trainer.student, trainer.config,
                                          scheme=get_scheme("SI"))
        loader = DataLoader(pair_dataset("fcnn"), batch_size=16, shuffle=False)
        result = trainer.fit(loader)
        assert np.isfinite(result.student_history.train_loss[0])
        stats = trainer.plan_stats
        assert stats["compiled"] == 0
        assert stats["fallback_reason"].startswith("student: ")
        assert "zrelu" in stats["fallback_reason"]

    def test_disabled_plan_on_either_network_runs_eager(self, monkeypatch):
        trainer = mutual_trainer("fcnn", epochs=1)
        trainer.teacher_trainer = Trainer(trainer.teacher, trainer.config,
                                          scheme=trainer.teacher_scheme,
                                          compile_train_step=False)
        eager_calls = []
        original = trainer._mutual_step

        def spy(images, labels):
            eager_calls.append(len(labels))
            return original(images, labels)

        monkeypatch.setattr(trainer, "_mutual_step", spy)
        trainer.fit(DataLoader(pair_dataset("fcnn"), batch_size=16, shuffle=False))
        assert eager_calls == [16, 16, 8]
        assert trainer.plan_stats["enabled"] is False
        assert trainer.plan_stats["compiled"] == 0
