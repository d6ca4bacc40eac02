"""Tests of the compiled training step (tape-to-plan lowering).

The contract under test: a :class:`~repro.core.training.Trainer` with
``compile_train_step=True`` must produce **bit-identical** training
trajectories to the eager tape — same per-epoch losses, same final
parameters, same batch-norm running buffers — while actually replaying a
compiled plan (not silently falling back to eager).
"""

import numpy as np
import pytest

from repro.assignment import get_scheme
from repro.core.config import TrainingConfig
from repro.core.train_plan import PlanUnsupported, compile_train_step
from repro.core.training import Trainer, prepare_batch
from repro.data import DataLoader
from repro.data.dataset import ArrayDataset
from repro.models import ComplexFCNN, ComplexLeNet5, ComplexResNet
from repro.nn import Dropout, Linear, Module, ReLU, Sequential
from repro.nn.losses import cross_entropy
from repro.optim import SGD
from repro.tensor import Tensor, no_grad
from repro.tensor.random import seed_all
from repro.tensor.tensor import mark_trace_input, trace_tape


@pytest.fixture(autouse=True)
def _fast_kernels(monkeypatch):
    """The plan contract is stated over the fast kernels.

    Under ``REPRO_FORCE_REFERENCE`` every trainer runs the eager tape, so
    the forced-reference leg would have no plan to compare against.
    """
    monkeypatch.delenv("REPRO_FORCE_REFERENCE", raising=False)


def flat_dataset(rng):
    samples, height, width = 60, 6, 6
    labels = np.arange(samples) % 2
    images = rng.normal(0.0, 0.4, size=(samples, 1, height, width))
    images[labels == 1, :, :3, :] += 1.2
    images[labels == 0, :, 3:, :] += 1.2
    return ArrayDataset(images, labels, num_classes=2)


def image_dataset(rng):
    samples = 40
    labels = np.arange(samples) % 2
    images = rng.normal(0.0, 0.4, size=(samples, 2, 32, 16))
    images[labels == 1, :, :16] += 1.0
    return ArrayDataset(images, labels, num_classes=2)


def build_model(name):
    rng = np.random.default_rng(7)
    if name == "fcnn":
        return ComplexFCNN(18, (12,), 2, decoder="merge", rng=rng)
    if name == "lenet":
        return ComplexLeNet5(in_channels=2, num_classes=2, image_size=(16, 16),
                             channels=(3, 8), hidden_sizes=(30, 21),
                             kernel_size=3, padding=1, rng=rng)
    return ComplexResNet(depth=8, in_channels=2, num_classes=2,
                         base_widths=(2, 4, 8), decoder="merge", rng=rng)


def fit_once(name, compiled, optimizer="sgd", scheduler="none", epochs=2):
    """One full training run from a fixed seed; returns (model, trainer, history)."""
    seed_all(0)
    rng = np.random.default_rng(1234)
    dataset = flat_dataset(rng) if name == "fcnn" else image_dataset(rng)
    model = build_model(name)
    config = TrainingConfig(epochs=epochs, batch_size=16, learning_rate=0.05,
                            optimizer=optimizer, scheduler=scheduler, seed=0)
    trainer = Trainer(model, config, scheme=get_scheme("SI"),
                      compile_train_step=compiled)
    loader = DataLoader(dataset, batch_size=16, shuffle=True,
                        rng=np.random.default_rng(0))
    history = trainer.fit(loader)
    return model, trainer, history


def assert_state_dicts_equal(eager_model, planned_model):
    eager_state = eager_model.state_dict()
    planned_state = planned_model.state_dict()
    assert eager_state.keys() == planned_state.keys()
    mismatched = [key for key in eager_state
                  if not np.array_equal(np.asarray(eager_state[key]),
                                        np.asarray(planned_state[key]))]
    assert not mismatched, f"state diverged at {mismatched}"


class TestTrajectoryParity:
    """Planned and eager runs must be bit-identical, not merely close."""

    @pytest.mark.parametrize("name,optimizer", [
        ("fcnn", "sgd"),
        ("lenet", "sgd"),
        ("lenet", "adam"),
        ("resnet", "sgd"),
        ("resnet", "adam"),
    ])
    def test_multi_epoch_trajectory_is_bit_identical(self, name, optimizer):
        eager_model, _, eager_history = fit_once(name, False, optimizer)
        planned_model, planned_trainer, planned_history = fit_once(name, True, optimizer)
        stats = planned_trainer.plan_stats
        assert stats["fallback_reason"] is None
        assert stats["compiled"] >= 1
        # exact float equality: the plan replays the same instruction stream
        assert planned_history.train_loss == eager_history.train_loss
        assert planned_history.train_accuracy == eager_history.train_accuracy
        # state_dict covers parameters AND batch-norm running buffers
        assert_state_dicts_equal(eager_model, planned_model)

    def test_tail_batch_gets_its_own_plan(self):
        # 40 samples at batch 16 -> shapes (16, ...) and (8, ...): two plans
        _, trainer, _ = fit_once("lenet", True)
        assert trainer.plan_stats["compiled"] == 2
        for plan_stats in trainer.plan_stats["plans"].values():
            assert plan_stats["forward_instructions"] > 0
            assert plan_stats["backward_instructions"] > 0

    def test_plan_uses_specialized_kernels(self):
        _, trainer, _ = fit_once("resnet", True, epochs=1)
        plans = trainer.plan_stats["plans"]
        assert plans
        for plan_stats in plans.values():
            # conv / linear / batch-norm backwards lower to dedicated builders
            assert plan_stats["specialized_backward"] > 0
            # relu / sigmoid chains collapse into fused instructions
            assert plan_stats["fused_activations"] > 0
            assert plan_stats["parameter_gradients"] > 0


class TestPlannedGradients:
    """The plan's backward pass must agree with finite differences."""

    def _compiled_plan(self):
        seed_all(0)
        rng = np.random.default_rng(1234)
        model = ComplexFCNN(18, (12,), 2, decoder="merge", rng=rng)
        config = TrainingConfig(epochs=1, batch_size=8, learning_rate=0.05, seed=0)
        trainer = Trainer(model, config, scheme=get_scheme("SI"),
                          compile_train_step=True)
        trainer.optimizer.lr = 0.0  # keep the parameters frozen at the trace point
        images = rng.normal(size=(8, 1, 6, 6))
        labels = rng.integers(0, 2, size=8)
        trainer.model.train()
        trainer.train_step(images, labels)  # trace + compile
        assert trainer.plan_stats["compiled"] == 1, trainer.plan_stats
        plan = next(iter(trainer._plans.values()))
        inputs = trainer._plan_inputs(images, labels, plan.input_meta)
        return model, plan, inputs

    def test_execute_without_update_leaves_grads_bound(self):
        model, plan, inputs = self._compiled_plan()
        before = {name: parameter.data.copy()
                  for name, parameter in model.named_parameters()}
        plan.execute(inputs, update=False)
        for name, parameter in model.named_parameters():
            assert parameter.grad is not None, name
            assert parameter.grad.shape == parameter.data.shape
            assert np.array_equal(parameter.data, before[name]), name
        # the grad buffers are persistent: re-executing rebinds the same arrays
        bound = {name: parameter.grad for name, parameter in model.named_parameters()}
        plan.execute(inputs, update=False)
        for name, parameter in model.named_parameters():
            assert parameter.grad is bound[name], name

    def test_planned_backward_matches_finite_differences(self):
        model, plan, inputs = self._compiled_plan()
        loss, _ = plan.execute(inputs, update=False)
        assert np.isfinite(loss)
        analytic = {name: parameter.grad.copy()
                    for name, parameter in model.named_parameters()}
        step = 1e-6
        rng = np.random.default_rng(3)
        for name, parameter in model.named_parameters():
            flat = parameter.data.reshape(-1)
            for index in rng.choice(flat.size, size=min(3, flat.size), replace=False):
                original = flat[index]
                flat[index] = original + step
                loss_plus, _ = plan.execute(inputs, update=False)
                flat[index] = original - step
                loss_minus, _ = plan.execute(inputs, update=False)
                flat[index] = original
                numeric = (loss_plus - loss_minus) / (2.0 * step)
                expected = analytic[name].reshape(-1)[index]
                assert numeric == pytest.approx(expected, rel=1e-4, abs=1e-6), name


class TestForwardFinishSplit:
    """``execute`` is ``forward`` (to the logits) followed by ``finish``."""

    def test_forward_returns_the_logits_and_finish_completes_the_step(self, rng):
        seed_all(0)
        model = ComplexFCNN(18, (12,), 2, decoder="merge",
                            rng=np.random.default_rng(7))
        config = TrainingConfig(epochs=1, batch_size=8, learning_rate=0.05, seed=0)
        trainer = Trainer(model, config, scheme=get_scheme("SI"))
        images = rng.normal(size=(8, 1, 6, 6))
        labels = rng.integers(0, 2, size=8)
        trainer.model.train()
        trainer.train_step(images, labels)               # trace + compile
        plan = next(iter(trainer._plans.values()))
        assert plan.stats["loss_tail_instructions"] > 0
        inputs = trainer._plan_inputs(images, labels, plan.input_meta)
        with no_grad():
            expected = model(prepare_batch(images, get_scheme("SI"))).data
        assert np.array_equal(plan.forward(inputs), expected)
        split_loss, _ = plan.finish({}, update=False)
        whole_loss, _ = plan.execute(inputs, update=False)
        assert split_loss == whole_loss

    def test_late_input_before_the_logits_is_rejected(self, rng):
        model = Linear(3, 2, rng=np.random.default_rng(7))
        optimizer = SGD(model.parameters(), lr=0.1)
        with trace_tape() as trace:
            inputs = Tensor(rng.normal(size=(4, 3)))
            mark_trace_input(inputs, "input")
            peer = Tensor(rng.normal(size=(4, 2)))
            mark_trace_input(peer, "kl_peer_probs", {"late": True})
            logits = model(inputs) + peer
            loss = cross_entropy(logits, np.array([0, 1, 1, 0]))
        loss.backward()
        with pytest.raises(PlanUnsupported, match="late input 'kl_peer_probs'"):
            compile_train_step(trace, loss, logits, optimizer)


class TestSchedulerInteraction:
    """The learning rate is read per step, never baked into the plan."""

    def test_cosine_schedule_trajectory_is_bit_identical(self):
        eager_model, _, eager_history = fit_once("fcnn", False, scheduler="cosine",
                                                 epochs=3)
        planned_model, planned_trainer, planned_history = fit_once(
            "fcnn", True, scheduler="cosine", epochs=3)
        assert planned_trainer.plan_stats["compiled"] >= 1
        assert planned_history.train_loss == eager_history.train_loss
        assert_state_dicts_equal(eager_model, planned_model)

    def test_manual_lr_change_affects_compiled_plan(self, rng):
        seed_all(0)
        model = ComplexFCNN(18, (12,), 2, decoder="merge",
                            rng=np.random.default_rng(7))
        config = TrainingConfig(epochs=1, batch_size=8, learning_rate=0.05, seed=0)
        trainer = Trainer(model, config, scheme=get_scheme("SI"),
                          compile_train_step=True)
        images = rng.normal(size=(8, 1, 6, 6))
        labels = rng.integers(0, 2, size=8)
        trainer.model.train()
        trainer.train_step(images, labels)
        assert trainer.plan_stats["compiled"] == 1
        trainer.optimizer.lr = 0.0  # a plan with lr baked in would keep moving
        before = {name: parameter.data.copy()
                  for name, parameter in model.named_parameters()}
        trainer.train_step(images, labels)
        for name, parameter in model.named_parameters():
            assert np.array_equal(parameter.data, before[name]), name


class _DropoutNet(Module):
    """A real-valued net whose dropout mask makes the trace volatile."""

    def __init__(self, rng):
        super().__init__()
        self.network = Sequential(Linear(36, 16, rng=rng), ReLU(),
                                  Dropout(0.5, rng=rng), Linear(16, 2, rng=rng))

    def forward(self, inputs):
        return self.network(inputs.flatten(start_dim=1))


class TestFallback:
    def test_volatile_trace_falls_back_to_eager(self, rng):
        model = _DropoutNet(np.random.default_rng(7))
        config = TrainingConfig(epochs=1, batch_size=8, learning_rate=0.05, seed=0)
        trainer = Trainer(model, config, compile_train_step=True)
        images = rng.normal(size=(8, 1, 6, 6))
        labels = rng.integers(0, 2, size=8)
        trainer.model.train()
        loss, _ = trainer.train_step(images, labels)
        assert np.isfinite(loss)
        stats = trainer.plan_stats
        assert stats["compiled"] == 0
        assert stats["fallback_reason"] is not None
        assert "dropout" in stats["fallback_reason"]
        # training keeps working on the eager path
        loss, _ = trainer.train_step(images, labels)
        assert np.isfinite(loss)
        assert trainer.plan_stats["compiled"] == 0

    def test_eval_mode_skips_the_plan(self, rng):
        model = ComplexFCNN(18, (12,), 2, decoder="merge",
                            rng=np.random.default_rng(7))
        config = TrainingConfig(epochs=1, batch_size=8, learning_rate=0.05, seed=0)
        trainer = Trainer(model, config, scheme=get_scheme("SI"),
                          compile_train_step=True)
        images = rng.normal(size=(8, 1, 6, 6))
        labels = rng.integers(0, 2, size=8)
        trainer.model.eval()
        trainer.train_step(images, labels)
        assert trainer.plan_stats["compiled"] == 0
