"""Micro-benchmarks of the training hot path.

Records per-training-step latency (forward + backward + optimizer step) of
the complex model families at several batch sizes, fused fast-path kernels
versus the reference path under ``REPRO_FORCE_REFERENCE=1`` (4-real-op
complex layers, index-table im2col, ``np.add.at`` col2im and, on the ResNet
rows, composed batch norm), plus the isolated cost of
the in-place versus allocating SGD steps -- all saved to
``benchmarks/latest/train.json``.

Two regression floors are pinned: the LeNet-style complex CNN training step
must stay at least 3x faster than the reference path at batch 64 (the
ISSUE-5 acceptance bar; measured ~5x on the dev box), and the fused path
must never lose to the reference anywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from bench_preset import bench_preset_name, train_batch_sizes
from repro.experiments.reporting import save_json, time_interleaved
from repro.models.fcnn import ComplexFCNN
from repro.models.lenet import ComplexLeNet5
from repro.models.resnet import ComplexResNet
from repro.nn.complex import ComplexTensor
from repro.nn.losses import cross_entropy
from repro.optim import SGD
from repro.tensor.tensor import Tensor


@dataclass
class TrainStepRow:
    model: str
    batch: int
    fused_seconds: float
    fused_p50_seconds: float
    reference_seconds: float
    reference_p50_seconds: float
    speedup: float
    fused_steps_per_second: float


@dataclass
class OptimizerRow:
    optimizer: str
    parameter_count: int
    in_place_seconds: float
    in_place_p50_seconds: float
    allocating_seconds: float
    allocating_p50_seconds: float
    speedup: float


_results: dict = {"train_step": [], "optimizer_step": []}


def _save(results_dir) -> None:
    save_json(_results, results_dir / "train.json")


def _models():
    smoke = bench_preset_name() == "smoke"
    rng = np.random.default_rng(0)
    image = 16 if smoke else 32
    lenet_kwargs = dict(kernel_size=3, padding=1) if smoke else {}
    return {
        "fcnn": (ComplexFCNN(392, [50], 10, rng=rng),
                 lambda batch_rng, batch: ComplexTensor(
                     Tensor(batch_rng.normal(size=(batch, 392))),
                     Tensor(batch_rng.normal(size=(batch, 392))))),
        "lenet": (ComplexLeNet5(in_channels=2, image_size=(image, image),
                                rng=rng, **lenet_kwargs),
                  lambda batch_rng, batch: ComplexTensor(
                      Tensor(batch_rng.normal(size=(batch, 2, image, image))),
                      Tensor(batch_rng.normal(size=(batch, 2, image, image))))),
        "resnet": (ComplexResNet(depth=8, in_channels=2,
                                 base_widths=(2, 4, 8) if smoke else (4, 8, 16),
                                 rng=rng),
                   lambda batch_rng, batch: ComplexTensor(
                       Tensor(batch_rng.normal(size=(batch, 2, image, image))),
                       Tensor(batch_rng.normal(size=(batch, 2, image, image))))),
    }


@pytest.fixture(scope="module")
def models():
    return _models()


@pytest.mark.parametrize("model_name", ["fcnn", "lenet", "resnet"])
@pytest.mark.parametrize("batch", train_batch_sizes())
def test_train_step_speedup(results_dir, monkeypatch, models,
                            model_name, batch):
    smoke = bench_preset_name() == "smoke"
    if model_name == "resnet" and batch > (32 if smoke else 64):
        pytest.skip("resnet reference path at large batch is too slow for CI")
    model, make_batch = models[model_name]
    rng = np.random.default_rng(1)
    inputs = make_batch(rng, batch)
    labels = rng.integers(0, model.num_classes, size=batch)
    optimizer = SGD(model.parameters(), lr=0.01, momentum=0.9)

    def step():
        optimizer.zero_grad()
        loss = cross_entropy(model(inputs), labels)
        loss.backward()
        optimizer.step()

    # each side sets the reference switch itself, so the two can alternate
    def fused_step():
        monkeypatch.delenv("REPRO_FORCE_REFERENCE", raising=False)
        step()

    def reference_step():
        monkeypatch.setenv("REPRO_FORCE_REFERENCE", "1")
        step()

    repeats = 3 if model_name == "resnet" else 5
    fused, reference = time_interleaved(fused_step, reference_step, rounds=repeats)
    monkeypatch.delenv("REPRO_FORCE_REFERENCE", raising=False)
    speedup = reference.min_s / fused.min_s

    # the fused path must not lose to the reference (0.8 floor leaves room
    # for shared-runner noise on the small fcnn steps); the LeNet CNN at
    # batch 64 carries the ISSUE-5 acceptance floor of 3x (measured ~5x)
    assert speedup >= 0.8
    if model_name == "lenet" and batch == 64 and not smoke:
        assert speedup >= 3.0

    _results["train_step"].append(TrainStepRow(
        model=model_name, batch=batch,
        fused_seconds=fused.min_s, fused_p50_seconds=fused.p50_s,
        reference_seconds=reference.min_s, reference_p50_seconds=reference.p50_s,
        speedup=speedup, fused_steps_per_second=1.0 / fused.min_s))
    _save(results_dir)


def test_optimizer_step_cost(results_dir, models):
    model, _make_batch = models["lenet"]
    parameters = model.parameters()
    rng = np.random.default_rng(2)
    grads = [rng.normal(size=parameter.shape) for parameter in parameters]
    for parameter, grad in zip(parameters, grads):
        parameter.grad = grad

    # the trainers' recipe: momentum 0.9, weight decay 1e-4
    optimizer = SGD(parameters, lr=1e-4, momentum=0.9, weight_decay=1e-4)

    in_place, allocating = time_interleaved(optimizer.step,
                                            optimizer.step_reference, rounds=20)

    _results["optimizer_step"].append(OptimizerRow(
        optimizer="sgd",
        parameter_count=int(sum(parameter.size for parameter in parameters)),
        in_place_seconds=in_place.min_s, in_place_p50_seconds=in_place.p50_s,
        allocating_seconds=allocating.min_s, allocating_p50_seconds=allocating.p50_s,
        speedup=allocating.min_s / in_place.min_s))
    _save(results_dir)
