"""Micro-benchmarks of the compiled training-step plan.

Records full :meth:`Trainer.train_step` latency (batch packing, forward,
backward, optimizer tail) of the complex model families at several batch
sizes, compiled plan versus the plain eager tape
(``Trainer(compile_train_step=False)``: the same fused kernels and fused
batch norm, closure-driven backward), saved to
``benchmarks/latest/train_plan.json``.

One regression floor is pinned: the complex ResNet at batch 64 must train
at least 1.5x faster under the plan than on the eager tape (measured
1.65-1.93x with default BLAS threads and 1.55-1.74x with one BLAS thread on
a 2-vCPU box).  Everywhere else the plan must not lose to eager beyond
shared-runner noise.  Each speedup is the ratio of the two sides' minima
over steps run in alternation (the ``interleaved_best_of`` fixture).

A ``mutual_step`` row times one SCVNN-CVNN mutual-learning step
(:meth:`MutualLearningTrainer.train_step`, both networks replayed from
their plans) against the eager ``_mutual_step`` on the LeNet-5 pair of
perfbench's ``train`` workload at batch 64, with its own 1.1x floor.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pytest

from repro.assignment import get_scheme
from repro.core.config import TrainingConfig
from repro.core.distillation import MutualLearningTrainer
from repro.core.training import Trainer
from repro.experiments.reporting import save_json
from repro.models.fcnn import ComplexFCNN
from repro.models.lenet import ComplexLeNet5
from repro.models.resnet import ComplexResNet


def bench_preset_name() -> str:
    return os.environ.get("REPRO_BENCH_PRESET", "bench")


@dataclass
class PlanStepRow:
    model: str
    batch: int
    planned_seconds: float
    eager_seconds: float
    speedup: float
    planned_steps_per_second: float
    forward_instructions: int
    backward_instructions: int
    specialized_backward: int
    fused_activations: int


@dataclass
class MutualStepRow:
    batch: int
    planned_seconds: float
    eager_seconds: float
    speedup: float
    planned_steps_per_second: float
    student_forward_instructions: int
    teacher_forward_instructions: int


_results: dict = {"train_step": [], "mutual_step": []}


def _save(results_dir) -> None:
    save_json(_results, results_dir / "train_plan.json")


def _batch_sizes():
    if bench_preset_name() == "smoke":
        return (8, 32)
    return (16, 64, 256)


def _build(model_name):
    """A freshly initialised model plus the numpy image batch shape it eats."""
    smoke = bench_preset_name() == "smoke"
    rng = np.random.default_rng(0)
    image = 16 if smoke else 32
    if model_name == "fcnn":
        # SI assignment halves the height: (1, 28, 28) packs into 392 features
        return ComplexFCNN(392, [50], 10, rng=rng), (1, 28, 28)
    if model_name == "lenet":
        lenet_kwargs = dict(kernel_size=3, padding=1) if smoke else {}
        return (ComplexLeNet5(in_channels=2, image_size=(image, image),
                              rng=rng, **lenet_kwargs),
                (2, 2 * image, image))
    return (ComplexResNet(depth=8, in_channels=2,
                          base_widths=(2, 4, 8) if smoke else (4, 8, 16),
                          rng=rng),
            (2, 2 * image, image))


def _trainer(model_name, batch, compiled):
    model, image_shape = _build(model_name)
    config = TrainingConfig(epochs=1, batch_size=batch, learning_rate=0.01, seed=0)
    trainer = Trainer(model, config, scheme=get_scheme("SI"),
                      compile_train_step=compiled)
    trainer.model.train()
    rng = np.random.default_rng(1)
    images = rng.normal(size=(batch,) + image_shape)
    labels = rng.integers(0, model.num_classes, size=batch)
    return trainer, images, labels


@pytest.mark.parametrize("model_name", ["fcnn", "lenet", "resnet"])
@pytest.mark.parametrize("batch", _batch_sizes())
def test_planned_step_speedup(interleaved_best_of, results_dir, model_name, batch):
    smoke = bench_preset_name() == "smoke"
    if model_name == "resnet" and batch > (32 if smoke else 64):
        pytest.skip("resnet eager path at large batch is too slow for CI")

    planned_trainer, images, labels = _trainer(model_name, batch, compiled=True)
    planned_trainer.train_step(images, labels)  # trace + compile once
    assert planned_trainer.plan_stats["compiled"] == 1, planned_trainer.plan_stats
    eager_trainer, _, _ = _trainer(model_name, batch, compiled=False)
    eager_trainer.train_step(images, labels)  # warm caches symmetrically
    planned_seconds, eager_seconds = interleaved_best_of(
        lambda: planned_trainer.train_step(images, labels),
        lambda: eager_trainer.train_step(images, labels))
    speedup = eager_seconds / planned_seconds

    # the plan must not lose to the eager tape (0.8 floor absorbs runner
    # noise on the sub-millisecond fcnn steps); the complex ResNet at batch
    # 64 carries the acceptance floor of 1.5x
    assert speedup >= 0.8
    if model_name == "resnet" and batch == 64 and not smoke:
        assert speedup >= 1.5

    plan_stats = next(iter(planned_trainer.plan_stats["plans"].values()))
    _results["train_step"].append(PlanStepRow(
        model=model_name, batch=batch,
        planned_seconds=planned_seconds, eager_seconds=eager_seconds,
        speedup=speedup, planned_steps_per_second=1.0 / planned_seconds,
        forward_instructions=plan_stats["forward_instructions"],
        backward_instructions=plan_stats["backward_instructions"],
        specialized_backward=plan_stats["specialized_backward"],
        fused_activations=plan_stats["fused_activations"]))
    _save(results_dir)


#: the planned mutual step must beat the eager ``_mutual_step`` by this much.
#: Both run one forward pass per network and the same conv kernels, which
#: take most of the step, so the plan wins only the tape's overhead: the
#: interleaved minima measured 1.21-1.31x at one BLAS thread and 1.26-1.45x
#: at default threads on a 2-vCPU box
MUTUAL_STEP_FLOOR = 1.1


def _mutual_trainer():
    """perfbench's ``train`` pair: a LeNet-5 SI student, a wider CVNN teacher."""
    rng = np.random.default_rng(0)
    student = ComplexLeNet5(in_channels=3, num_classes=10, image_size=(16, 32),
                            channels=(3, 8), hidden_sizes=(60, 42), rng=rng)
    teacher = ComplexLeNet5(in_channels=3, num_classes=10, image_size=(32, 32),
                            channels=(6, 16), hidden_sizes=(120, 84),
                            decoder="photodiode", rng=rng)
    config = TrainingConfig(epochs=1, batch_size=64, learning_rate=0.01, seed=0)
    trainer = MutualLearningTrainer(student, teacher, config,
                                    student_scheme=get_scheme("SI"))
    student.train()
    teacher.train()
    return trainer


def test_mutual_step_speedup(interleaved_best_of, results_dir):
    batch = 64
    rng = np.random.default_rng(1)
    images = rng.normal(size=(batch, 3, 32, 32))
    labels = rng.integers(0, 10, size=batch)

    planned = _mutual_trainer()
    planned.train_step(images, labels)  # trace + compile both networks
    stats = planned.plan_stats
    assert stats["compiled"] == 1 and stats["fallback_reason"] is None, stats
    eager = _mutual_trainer()
    eager._mutual_step(images, labels)  # warm caches symmetrically

    planned_seconds, eager_seconds = interleaved_best_of(
        lambda: planned.train_step(images, labels),
        lambda: eager._mutual_step(images, labels))
    speedup = eager_seconds / planned_seconds

    plans = next(iter(stats["plans"].values()))
    _results["mutual_step"].append(MutualStepRow(
        batch=batch, planned_seconds=planned_seconds, eager_seconds=eager_seconds,
        speedup=speedup, planned_steps_per_second=1.0 / planned_seconds,
        student_forward_instructions=plans["student"]["forward_instructions"],
        teacher_forward_instructions=plans["teacher"]["forward_instructions"]))
    _save(results_dir)
    assert speedup >= MUTUAL_STEP_FLOOR
