"""Tests of the supervised training loop (Trainer) on tiny synthetic tasks."""

import dataclasses

import numpy as np
import pytest

from repro.assignment import get_scheme
from repro.core.config import TrainingConfig
from repro.core.training import (
    GRAD_CLIP,
    Trainer,
    TrainingHistory,
    apply_parameter_constraints,
    evaluate_accuracy,
    prepare_batch,
)
from repro.data import DataLoader
from repro.models import ComplexFCNN, RealFCNN
from repro.nn.complex import ComplexTensor
from repro.nn.losses import cross_entropy
from repro.optim import SGD, CosineAnnealingLR
from repro.tensor import Tensor


def loaders(dataset, batch_size=16):
    train_loader = DataLoader(dataset, batch_size=batch_size, shuffle=True,
                              rng=np.random.default_rng(0))
    test_loader = DataLoader(dataset, batch_size=batch_size, shuffle=False)
    return train_loader, test_loader


class TestPrepareBatch:
    def test_real_path(self, rng):
        images = rng.normal(size=(4, 1, 6, 6))
        batch = prepare_batch(images, None)
        assert isinstance(batch, Tensor)
        assert batch.shape == (4, 1, 6, 6)

    def test_complex_path_uses_scheme(self, rng):
        images = rng.normal(size=(4, 1, 6, 6))
        batch = prepare_batch(images, get_scheme("SI"))
        assert isinstance(batch, ComplexTensor)
        assert batch.shape == (4, 1, 3, 6)

    def test_conventional_scheme_keeps_shape(self, rng):
        images = rng.normal(size=(2, 3, 4, 4))
        batch = prepare_batch(images, get_scheme("conventional"))
        assert batch.shape == (2, 3, 4, 4)
        assert np.allclose(batch.imag.data, 0.0)


class TestTrainerRealModel:
    def test_loss_decreases_and_accuracy_improves(self, tiny_flat_dataset, rng):
        model = RealFCNN(36, (16,), 2, rng=rng)
        config = TrainingConfig(epochs=6, batch_size=16, learning_rate=0.05, seed=0)
        trainer = Trainer(model, config, scheme=None)
        train_loader, test_loader = loaders(tiny_flat_dataset)
        history = trainer.fit(train_loader, test_loader)
        assert isinstance(history, TrainingHistory)
        assert len(history.train_loss) == 6
        assert history.train_loss[-1] < history.train_loss[0]
        assert history.final_test_accuracy > 0.8
        assert history.best_test_accuracy >= history.final_test_accuracy

    def test_evaluate_accuracy_range(self, tiny_flat_dataset, rng):
        model = RealFCNN(36, (8,), 2, rng=rng)
        _, test_loader = loaders(tiny_flat_dataset)
        accuracy = evaluate_accuracy(model, test_loader, None)
        assert 0.0 <= accuracy <= 1.0

    @pytest.mark.parametrize("mode", [True, False])
    def test_evaluate_accuracy_leaves_the_mode_it_found(self, tiny_flat_dataset, rng, mode):
        model = RealFCNN(36, (8,), 2, rng=rng).train(mode)
        _, test_loader = loaders(tiny_flat_dataset)
        evaluate_accuracy(model, test_loader, None)
        assert all(module.training is mode for module in model.modules())

    def test_trainer_builds_the_one_recipe(self, rng):
        model = RealFCNN(36, (8,), 2, rng=rng)
        trainer = Trainer(model, TrainingConfig(epochs=7, learning_rate=0.1))
        assert isinstance(trainer.optimizer, SGD)
        assert (trainer.optimizer.lr, trainer.optimizer.momentum,
                trainer.optimizer.weight_decay) == (0.1, 0.9, 1e-4)
        assert isinstance(trainer.scheduler, CosineAnnealingLR)
        assert trainer.scheduler.total_epochs == 7

    def test_update_clips_the_global_gradient_norm(self, tiny_flat_dataset, rng):
        model = RealFCNN(36, (8,), 2, rng=rng)
        trainer = Trainer(model, TrainingConfig(epochs=1), compile_train_step=False)
        images, labels = next(iter(loaders(tiny_flat_dataset)[1]))
        norms = []

        def record_norm():
            norms.append(np.sqrt(sum(float((p.grad ** 2).sum())
                                     for p in model.parameters() if p.grad is not None)))
        trainer.optimizer.step = record_norm
        # a scaled loss makes the raw gradient norm far exceed the bound
        trainer._update(cross_entropy(model(prepare_batch(images, None)), labels) * 1e4)
        assert norms == [pytest.approx(GRAD_CLIP)]

    def test_scheduler_updates_learning_rate(self, tiny_flat_dataset, rng):
        model = RealFCNN(36, (8,), 2, rng=rng)
        config = TrainingConfig(epochs=3, learning_rate=0.1, seed=0)
        trainer = Trainer(model, config)
        train_loader, _ = loaders(tiny_flat_dataset)
        initial_lr = trainer.optimizer.lr
        trainer.fit(train_loader)
        assert trainer.optimizer.lr < initial_lr

class TestTrainerComplexModel:
    @pytest.mark.parametrize("mode", [True, False])
    def test_evaluate_accuracy_leaves_the_mode_it_found(self, tiny_flat_dataset, rng, mode):
        model = ComplexFCNN(18, (8,), 2, decoder="merge", rng=rng).train(mode)
        _, test_loader = loaders(tiny_flat_dataset)
        evaluate_accuracy(model, test_loader, get_scheme("SI"))
        assert all(module.training is mode for module in model.modules())

    def test_scvnn_trains_above_chance(self, tiny_flat_dataset, rng):
        scheme = get_scheme("SI")
        model = ComplexFCNN(18, (12,), 2, decoder="merge", rng=rng)
        config = TrainingConfig(epochs=6, batch_size=16, learning_rate=0.05, seed=0)
        trainer = Trainer(model, config, scheme=scheme)
        train_loader, test_loader = loaders(tiny_flat_dataset)
        history = trainer.fit(train_loader, test_loader)
        assert history.final_test_accuracy > 0.75

    def test_unitary_decoder_stays_unitary_during_training(self, tiny_flat_dataset, rng):
        scheme = get_scheme("SI")
        model = ComplexFCNN(18, (8,), 2, decoder="unitary", rng=rng)
        config = TrainingConfig(epochs=2, batch_size=16, learning_rate=0.05, seed=0)
        trainer = Trainer(model, config, scheme=scheme)
        train_loader, _ = loaders(tiny_flat_dataset)
        trainer.fit(train_loader)
        assert model.head.unitary.unitarity_error() < 1e-8

    def test_apply_parameter_constraints_direct(self, rng):
        model = ComplexFCNN(6, (4,), 2, decoder="unitary", rng=rng)
        model.head.unitary.weight_real.data += 0.5
        apply_parameter_constraints(model)
        assert model.head.unitary.unitarity_error() < 1e-8


class TestConfigValidation:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            TrainingConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainingConfig(learning_rate=-1)
        with pytest.raises(ValueError):
            TrainingConfig(distillation_alpha=-0.1)

    def test_only_the_varying_hyperparameters_are_fields(self):
        names = [field.name for field in dataclasses.fields(TrainingConfig)]
        assert names == ["epochs", "batch_size", "learning_rate",
                         "distillation_alpha", "seed"]

    @pytest.mark.parametrize("name,value", [
        ("momentum", 0.5),
        ("weight_decay", 0.0),
        ("optimizer", "adam"),
        ("scheduler", "none"),
        ("milestones", (2,)),
        ("grad_clip", None),
        ("label_smoothing", 0.1),
        ("distillation_temperature", 4.0),
    ])
    def test_fixed_recipe_options_are_rejected(self, name, value):
        """A config asking for another recipe fails instead of training with this one."""
        with pytest.raises(TypeError):
            TrainingConfig(**{name: value})
