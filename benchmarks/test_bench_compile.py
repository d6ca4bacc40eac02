"""Micro-benchmarks of the ``repro.compile`` pipeline.

Two quantities are measured and recorded to ``benchmarks/latest/compile.json``:

* **Batched-stack decomposition** -- decomposing a stack of same-size
  unitaries in one vectorized Reck/Clements pass
  (:func:`~repro.photonics.mzi_mesh.decompose_unitary_stack`) versus one
  stack-of-one call per matrix.  The Clements chain is a sequential
  dependency chain per matrix, so the stack axis is the only batch-level
  parallelism available.  Every slice is pinned to the scalar reference
  loops at 1e-10.
* **Numpy-chain crossover** -- with the native kernel disabled, the batched
  Clements chain against the scalar chain run once per matrix at small
  stacks: the measurement behind
  :data:`~repro.photonics.mzi_mesh.BATCHED_CHAIN_MIN_STACK`.
* **Deployed-ResNet throughput** -- compile time of a residual model and the
  forward throughput of the compiled graph program, with the noiseless
  fidelity against the eval-mode software model asserted to 1e-8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from bench_preset import bench_preset_name
from repro.experiments.reporting import save_json, time_interleaved
from repro.photonics import (
    clements_decompose_reference,
    decompose_unitary,
    decompose_unitary_stack,
    mzi_mesh,
    random_unitary,
    reck_decompose_reference,
)

REFERENCES = {"clements": clements_decompose_reference,
              "reck": reck_decompose_reference}


@dataclass
class StackBenchRow:
    dimension: int
    stack_size: int
    method: str
    per_matrix_seconds: float
    per_matrix_p50_seconds: float
    batched_seconds: float
    batched_p50_seconds: float
    speedup: float
    max_phase_deviation: float


@dataclass
class ResnetBenchRow:
    depth: int
    base_widths: tuple
    image_size: int
    mzi_count: int
    compile_seconds: float
    compile_p50_seconds: float
    forward_seconds: float
    forward_p50_seconds: float
    images_per_second: float
    max_logit_error: float


@dataclass
class CrossoverBenchRow:
    dimension: int
    stack_size: int
    scalar_seconds: float
    scalar_p50_seconds: float
    batched_seconds: float
    batched_p50_seconds: float
    speedup: float
    batched_chain_min_stack: int


_results: dict = {"stack_decomposition": [], "numpy_chain_crossover": [],
                  "deployed_resnet": []}


def _save(results_dir) -> None:
    save_json(_results, results_dir / "compile.json")


def _bench_sizes():
    if bench_preset_name() == "smoke":
        return 24, 8
    return 48, 16


@pytest.mark.parametrize("method", ["clements", "reck"])
def test_batched_stack_decomposition_speedup(benchmark, method, results_dir):
    dimension, stack_size = _bench_sizes()
    rng = np.random.default_rng(0)
    stack = np.stack([random_unitary(dimension, rng) for _ in range(stack_size)])

    # the untimed first round warms the schedule caches
    batched, per_matrix = time_interleaved(
        lambda: decompose_unitary_stack(stack, method=method),
        lambda: [decompose_unitary(unitary, method=method) for unitary in stack],
        rounds=3)
    meshes = benchmark(decompose_unitary_stack, stack, method=method)

    deviation = 0.0
    for unitary, mesh in zip(stack, meshes):
        reference = REFERENCES[method](unitary)
        deviation = max(deviation,
                        float(np.abs(mesh.thetas - reference.thetas).max()),
                        float(np.abs(mesh.phis - reference.phis).max()),
                        float(np.abs(mesh.output_phases - reference.output_phases).max()))
    assert deviation <= 1e-10

    speedup = per_matrix.min_s / batched.min_s
    # measured ~8x (clements) / ~3x (reck) for a 16-stack at dimension 48;
    # pin a regression floor below the noise band of shared CI runners
    assert speedup >= 1.3

    _results["stack_decomposition"].append(StackBenchRow(
        dimension=dimension, stack_size=stack_size, method=method,
        per_matrix_seconds=per_matrix.min_s, per_matrix_p50_seconds=per_matrix.p50_s,
        batched_seconds=batched.min_s, batched_p50_seconds=batched.p50_s,
        speedup=speedup, max_phase_deviation=deviation))
    _save(results_dir)


def test_stack_threshold_crossover(monkeypatch, results_dir):
    """Re-measure the numpy Clements chain choice at small stacks.

    Without the native kernel, :func:`clements_decompose_stack` runs the
    scalar chain once per matrix below
    :data:`~repro.photonics.mzi_mesh.BATCHED_CHAIN_MIN_STACK` matrices and
    the batched chain from there up.  The constant is the smallest stack
    whose batched chain does not lose to the scalar loop; here each chain is
    forced in turn by moving the constant, and the two chains alternate
    under one timer.  At the configured size the
    batched chain must be at (or above) break-even, asserted with headroom
    for shared-runner noise.
    """
    monkeypatch.setenv("REPRO_FORCE_REFERENCE", "1")
    configured = mzi_mesh.BATCHED_CHAIN_MIN_STACK
    # restores the constant the chains below move
    monkeypatch.setattr(mzi_mesh, "BATCHED_CHAIN_MIN_STACK", configured)
    dimension = 16 if bench_preset_name() == "smoke" else 32
    rng = np.random.default_rng(1)

    def decompose(stack, min_stack):
        mzi_mesh.BATCHED_CHAIN_MIN_STACK = min_stack
        return decompose_unitary_stack(stack)

    for stack_size in (2, 3, 4):
        stack = np.stack([random_unitary(dimension, rng) for _ in range(stack_size)])
        batched, scalar = time_interleaved(
            lambda: decompose(stack, min_stack=1),
            lambda: decompose(stack, min_stack=stack_size + 1), rounds=5)
        speedup = scalar.min_s / batched.min_s
        if stack_size == configured:
            assert speedup >= 0.7
        _results["numpy_chain_crossover"].append(CrossoverBenchRow(
            dimension=dimension, stack_size=stack_size,
            scalar_seconds=scalar.min_s, scalar_p50_seconds=scalar.p50_s,
            batched_seconds=batched.min_s, batched_p50_seconds=batched.p50_s,
            speedup=speedup, batched_chain_min_stack=configured))
    _save(results_dir)


def test_compiled_resnet_forward_throughput(results_dir):
    import repro
    from repro.assignment import get_scheme
    from repro.core.training import prepare_batch
    from repro.models.resnet import ComplexResNet
    from repro.nn.normalization import _BatchNorm
    from repro.tensor import no_grad

    smoke = bench_preset_name() == "smoke"
    # depth 14 gives two blocks per stage, so the conv-kernel SVD factors form
    # dimension groups large enough for the batched numpy Clements chain
    depth = 8 if smoke else 14
    widths = (2, 4, 8) if smoke else (4, 8, 16)
    image = 8 if smoke else 12
    batch = 16 if smoke else 32

    rng = np.random.default_rng(0)
    model = ComplexResNet(depth=depth, in_channels=2, num_classes=10,
                          base_widths=widths, rng=rng)
    for _name, module in model.named_modules():
        if isinstance(module, _BatchNorm):
            module._set_buffer("running_mean", rng.normal(size=module.num_features) * 0.3)
            module._set_buffer("running_var", rng.uniform(0.5, 2.0, size=module.num_features))

    (compile_timing,) = time_interleaved(lambda: repro.compile(model), rounds=2)
    program = repro.compile(model)

    scheme = get_scheme("CL")
    images = rng.normal(size=(batch, 3, image, image))
    with no_grad():
        software = model(prepare_batch(images, scheme)).data
    logits = program.predict_logits(images, scheme)
    max_logit_error = float(np.abs(logits - software).max())
    assert max_logit_error <= 1e-8

    (forward_timing,) = time_interleaved(
        lambda: program.predict_logits(images, scheme), rounds=3)

    _results["deployed_resnet"].append(ResnetBenchRow(
        depth=model.depth, base_widths=widths, image_size=image,
        mzi_count=program.mzi_count,
        compile_seconds=compile_timing.min_s,
        compile_p50_seconds=compile_timing.p50_s,
        forward_seconds=forward_timing.min_s,
        forward_p50_seconds=forward_timing.p50_s,
        images_per_second=batch / forward_timing.min_s,
        max_logit_error=max_logit_error))
    _save(results_dir)
