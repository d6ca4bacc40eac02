"""Ablation studies of OplixNet's design choices.

Beyond the paper's tables and figures, several of its design decisions are
worth quantifying; each has a harness here:

* :func:`run_alpha_sweep` -- sensitivity of mutual learning to the mixing
  factor alpha of Eqs. (3)/(4) (the paper fixes alpha = 1.0).
* :func:`run_mesh_comparison` -- Reck vs Clements decompositions: MZI count,
  reconstruction error and optical depth.
* :func:`run_noise_robustness` -- accuracy of the deployed split ONN and the
  deployed conventional ONN under Gaussian phase noise on every phase shifter
  (the split ONN uses ~4x fewer MZIs, so it accumulates less error).
* :func:`run_encoder_throughput` -- input-encoding latency of the proposed
  DC-based encoder versus the PS-based encoder of [16] (the thermal time
  bottleneck).
* :func:`run_pruning_comparison` -- magnitude pruning of the conventional ONN
  [18] versus OplixNet at matched area: the pruning route needs very high
  sparsity to reach a 75% area saving and loses more accuracy.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.assignment import get_scheme
from repro.baselines.pruning import magnitude_prune_model, pruned_area_report
from repro.core.area_analysis import model_area_report
from repro.core.compile import compile as compile_model
from repro.core.pipeline import OplixNet
from repro.core.training import evaluate_accuracy
from repro.experiments.common import get_workload, workload_config
from repro.experiments.presets import Preset, get_preset
from repro.experiments.reporting import format_table, percent
from repro.photonics import engine
from repro.photonics.encoders import DCComplexEncoder, PSComplexEncoder
from repro.photonics.mzi_mesh import clements_decompose, random_unitary, reck_decompose
from repro.photonics.noise import PhaseNoiseModel


# --------------------------------------------------------------------------- #
# 1. distillation mixing factor
# --------------------------------------------------------------------------- #
@dataclass
class AlphaSweepPoint:
    alpha: float
    student_accuracy: float
    teacher_accuracy: float


def run_alpha_sweep(preset: str = "bench", alphas: Sequence[float] = (0.0, 0.5, 1.0, 2.0),
                    workload_key: str = "fcnn", seed: int = 0) -> List[AlphaSweepPoint]:
    """Sweep the distillation mixing factor on one workload."""
    preset_obj = get_preset(preset) if isinstance(preset, str) else preset
    workload = get_workload(workload_key)
    points: List[AlphaSweepPoint] = []
    for alpha in alphas:
        config = workload_config(workload, preset_obj, seed=seed, distillation_alpha=alpha)
        pipeline = OplixNet(config)
        _student, result = pipeline.train_student(mutual_learning=True)
        points.append(AlphaSweepPoint(alpha=float(alpha),
                                      student_accuracy=result.student_test_accuracy,
                                      teacher_accuracy=result.teacher_test_accuracy))
    return points


# --------------------------------------------------------------------------- #
# 2. mesh decomposition comparison
# --------------------------------------------------------------------------- #
@dataclass
class MeshComparisonRow:
    dimension: int
    method: str
    mzi_count: int
    optical_depth: int
    reconstruction_error: float


def _optical_depth(settings) -> int:
    """Number of MZI columns after greedy scheduling of non-overlapping MZIs.

    Delegates to the compiled engine's column scheduler, which is also what
    propagation executes -- the reported depth is the number of vectorized
    column applications per forward pass.
    """
    modes = np.array([setting.mode for setting in settings], dtype=np.intp)
    dimension = int(modes.max()) + 2 if modes.size else 0
    return engine.column_schedule(modes, dimension).depth


def run_mesh_comparison(dimensions: Sequence[int] = (4, 8, 16, 32),
                        seed: int = 0) -> List[MeshComparisonRow]:
    """Compare Reck and Clements meshes on random unitaries."""
    rng = np.random.default_rng(seed)
    rows: List[MeshComparisonRow] = []
    for dimension in dimensions:
        unitary = random_unitary(dimension, rng)
        for method, decompose in (("reck", reck_decompose), ("clements", clements_decompose)):
            mesh = decompose(unitary)
            error = float(np.abs(mesh.reconstruct() - unitary).max())
            rows.append(MeshComparisonRow(dimension=dimension, method=method,
                                          mzi_count=mesh.mzi_count,
                                          optical_depth=mesh.optical_depth,
                                          reconstruction_error=error))
    return rows


# --------------------------------------------------------------------------- #
# 3. phase-noise robustness of the deployed circuits
# --------------------------------------------------------------------------- #
@dataclass
class NoisePoint:
    sigma: float
    split_onn_accuracy: float
    conventional_onn_accuracy: float
    trials: int = 1


def run_noise_robustness(preset: str = "bench", sigmas: Sequence[float] = (0.0, 0.01, 0.03, 0.1),
                         seed: int = 0, eval_samples: int = 128,
                         trials: Optional[int] = None) -> List[NoisePoint]:
    """Deploy trained FCNNs and sweep Gaussian phase noise on every phase shifter.

    The whole sweep is one batched ensemble: the noise model carries the
    sigma values as an array axis (common random numbers across sigmas) and
    ``trials=T`` adds ``T`` independent realizations per sigma, so every
    (sigma, trial) pair propagates in a single vectorized pass through the
    compiled engine instead of a Python loop over sigma values.
    """
    preset_obj = get_preset(preset) if isinstance(preset, str) else preset
    workload = get_workload("fcnn")
    config = workload_config(workload, preset_obj, seed=seed)
    pipeline = OplixNet(config)

    student, _ = pipeline.train_student(mutual_learning=False)
    conventional, _ = pipeline.train_reference("cvnn")

    student_scheme = pipeline.student_scheme()
    conventional_scheme = get_scheme("conventional")
    deployed_student = compile_model(student)
    deployed_conventional = compile_model(conventional)

    _train, test = pipeline.datasets()
    count = min(eval_samples, len(test))
    images = np.stack([test[i][0] for i in range(count)])
    labels = np.array([test[i][1] for i in range(count)])

    sigma_axis = np.asarray(list(sigmas), dtype=float)
    noise = PhaseNoiseModel(sigma=sigma_axis, rng=np.random.default_rng(seed + 17))
    noisy_student = deployed_student.with_noise(noise=noise, trials=trials)
    noisy_conventional = deployed_conventional.with_noise(noise=noise, trials=trials)
    # predictions are (sigmas, [trials,] samples); averaging every axis but
    # the sigma one gives the per-sigma (Monte-Carlo) accuracy
    student_hits = noisy_student.classify(images, student_scheme) == labels
    conventional_hits = noisy_conventional.classify(images, conventional_scheme) == labels
    trailing = tuple(range(1, student_hits.ndim))
    student_accuracy = student_hits.mean(axis=trailing)
    conventional_accuracy = conventional_hits.mean(axis=trailing)

    return [NoisePoint(sigma=float(sigma),
                       split_onn_accuracy=float(student_accuracy[index]),
                       conventional_onn_accuracy=float(conventional_accuracy[index]),
                       trials=1 if trials is None else int(trials))
            for index, sigma in enumerate(sigma_axis)]


# --------------------------------------------------------------------------- #
# 4. encoder throughput
# --------------------------------------------------------------------------- #
@dataclass
class EncoderLatencyRow:
    encoder: str
    samples: int
    latency_seconds: float
    has_time_bottleneck: bool


def run_encoder_throughput(sample_counts: Sequence[int] = (1_000, 100_000)) -> List[EncoderLatencyRow]:
    """Latency of streaming input samples through the DC and PS complex encoders."""
    rows: List[EncoderLatencyRow] = []
    for samples in sample_counts:
        for encoder in (DCComplexEncoder(), PSComplexEncoder()):
            rows.append(EncoderLatencyRow(encoder=encoder.name, samples=int(samples),
                                          latency_seconds=encoder.encoding_latency(samples),
                                          has_time_bottleneck=encoder.has_time_bottleneck))
    return rows


# --------------------------------------------------------------------------- #
# 5. pruning baseline comparison
# --------------------------------------------------------------------------- #
@dataclass
class PruningRow:
    configuration: str
    sparsity: float
    accuracy: float
    mzi_fraction: float        # relative to the dense conventional ONN


def run_pruning_comparison(preset: str = "bench", sparsities: Sequence[float] = (0.5, 0.75, 0.9),
                           seed: int = 0) -> List[PruningRow]:
    """Prune the conventional ONN to OplixNet-level area and compare accuracy."""
    preset_obj = get_preset(preset) if isinstance(preset, str) else preset
    workload = get_workload("fcnn")
    config = workload_config(workload, preset_obj, seed=seed)
    pipeline = OplixNet(config)

    conventional, _history = pipeline.train_reference("cvnn")
    _train_loader, test_loader = pipeline.loaders()
    conventional_scheme = get_scheme("conventional")
    dense_report = model_area_report(conventional)

    rows: List[PruningRow] = [PruningRow(
        configuration="conventional ONN (dense)", sparsity=0.0,
        accuracy=evaluate_accuracy(conventional, test_loader, conventional_scheme),
        mzi_fraction=1.0)]

    for sparsity in sparsities:
        pruned = copy.deepcopy(conventional)
        magnitude_prune_model(pruned, sparsity)
        accuracy = evaluate_accuracy(pruned, test_loader, conventional_scheme)
        area = pruned_area_report(pruned, sparsity)
        rows.append(PruningRow(configuration=f"pruned ONN [18] (s={sparsity:.2f})",
                               sparsity=float(sparsity), accuracy=accuracy,
                               mzi_fraction=area.total_mzis / dense_report.total_mzis))

    student, _ = pipeline.train_student(mutual_learning=False)
    student_report = model_area_report(student)
    rows.append(PruningRow(configuration="OplixNet (proposed)", sparsity=0.0,
                           accuracy=evaluate_accuracy(student, test_loader, pipeline.student_scheme()),
                           mzi_fraction=student_report.total_mzis / dense_report.total_mzis))
    return rows


# --------------------------------------------------------------------------- #
# formatting helpers
# --------------------------------------------------------------------------- #
def format_alpha_sweep(points: Sequence[AlphaSweepPoint]) -> str:
    return format_table(["alpha", "student acc", "teacher acc"],
                        [[p.alpha, percent(p.student_accuracy), percent(p.teacher_accuracy)]
                         for p in points],
                        title="Ablation -- distillation mixing factor")


def format_mesh_comparison(rows: Sequence[MeshComparisonRow]) -> str:
    return format_table(["n", "method", "#MZI", "optical depth", "reconstruction error"],
                        [[r.dimension, r.method, r.mzi_count, r.optical_depth,
                          f"{r.reconstruction_error:.2e}"] for r in rows],
                        title="Ablation -- Reck vs Clements meshes")


def format_noise_robustness(points: Sequence[NoisePoint]) -> str:
    return format_table(["phase noise sigma", "split ONN acc", "conventional ONN acc"],
                        [[p.sigma, percent(p.split_onn_accuracy),
                          percent(p.conventional_onn_accuracy)] for p in points],
                        title="Ablation -- phase-noise robustness of deployed circuits")


def format_pruning(rows: Sequence[PruningRow]) -> str:
    return format_table(["configuration", "sparsity", "accuracy", "MZI fraction"],
                        [[r.configuration, f"{r.sparsity:.2f}", percent(r.accuracy),
                          f"{r.mzi_fraction:.3f}"] for r in rows],
                        title="Ablation -- pruning baseline [18] vs OplixNet")
