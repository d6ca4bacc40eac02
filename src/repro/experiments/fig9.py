"""Figure 9: comparison of the output decoder designs.

For every workload the SCVNN student is trained with each decoder head --
"Merge" (proposed), "Linear", "Unitary" and the "Coherent" detection baseline
of [16] -- and the harness reports the test accuracy together with the model
area normalised so that the coherent configuration is 100% (the paper's
normalisation).  The expected shape: Merge adds only a fraction of a percent
of area over Coherent and reaches the best accuracy of the learnable decoders,
while Linear and Unitary cost more area.

:func:`run_fig9_hardware` extends the figure beyond the paper: each decoder
variant is additionally *deployed* onto simulated MZI meshes and evaluated
under a Monte-Carlo ensemble of phase-noise realizations.  The ensemble runs
as one trials-batched pass through the compiled mesh engine, so the sweep
costs one vectorized forward per (decoder, sigma) instead of one mesh rebuild
per trial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.area_analysis import model_area_report
from repro.core.pipeline import OplixNet
from repro.experiments.common import WORKLOADS, Workload, get_workload, paper_specs, workload_config
from repro.experiments.deployed import _deploy_and_sweep
from repro.experiments.presets import Preset, get_preset
from repro.experiments.reporting import format_table, percent
from repro.models import build_model

#: decoder configurations compared in the paper's Fig. 9
FIG9_DECODERS = ("merge", "linear", "unitary", "coherent")


@dataclass
class Fig9Row:
    """Accuracy and normalised area of one (workload, decoder) pair."""

    model: str
    decoder: str
    accuracy: float
    normalized_area: float     # 1.0 == the coherent-detection configuration
    extra_readout: bool        # True if the decoder needs reference light / post-processing


def normalized_area_at_paper_scale(workload: Workload, decoder: str) -> float:
    """Model area with the given decoder, normalised to the coherent baseline."""
    scvnn_spec, _ = paper_specs(workload, decoder=decoder)
    coherent_spec, _ = paper_specs(workload, decoder="coherent")
    area = model_area_report(build_model(scvnn_spec)).total_mzis
    coherent_area = model_area_report(build_model(coherent_spec)).total_mzis
    return area / coherent_area


def run_pair(workload: Workload, decoder: str, preset: Preset, seed: int = 0,
             mutual_learning: bool = False) -> Fig9Row:
    """Train the SCVNN of one workload with one decoder head."""
    config = workload_config(workload, preset, seed=seed, decoder=decoder)
    pipeline = OplixNet(config)
    _student, outcome = pipeline.train_student(mutual_learning=mutual_learning)
    accuracy = (outcome.student_test_accuracy if mutual_learning
                else outcome.final_test_accuracy)
    return Fig9Row(model=workload.display_name, decoder=decoder, accuracy=accuracy,
                   normalized_area=normalized_area_at_paper_scale(workload, decoder),
                   extra_readout=(decoder == "coherent"))


def run_fig9(preset: str = "bench", workloads: Optional[Sequence[str]] = None,
             decoders: Sequence[str] = FIG9_DECODERS, seed: int = 0,
             mutual_learning: bool = False) -> List[Fig9Row]:
    """Reproduce the Fig. 9 sweep for the selected workloads (default: all four)."""
    preset_obj = get_preset(preset) if isinstance(preset, str) else preset
    keys = [w.key for w in WORKLOADS] if workloads is None else list(workloads)
    rows: List[Fig9Row] = []
    for key in keys:
        workload = get_workload(key)
        for decoder in decoders:
            rows.append(run_pair(workload, decoder, preset_obj, seed=seed,
                                 mutual_learning=mutual_learning))
    return rows


@dataclass
class Fig9HardwareRow:
    """Deployed-on-hardware accuracy of one decoder under phase noise."""

    decoder: str
    sigma: float
    trials: int
    noiseless_accuracy: float  # deployed circuit without phase errors
    deployed_accuracy: float   # Monte-Carlo mean over the noise ensemble


def run_fig9_hardware(preset: str = "bench", decoders: Sequence[str] = FIG9_DECODERS,
                      sigmas: Sequence[float] = (0.0, 0.03), trials: int = 8,
                      seed: int = 0, eval_samples: int = 96) -> List[Fig9HardwareRow]:
    """Deploy each decoder variant onto meshes and sweep a phase-noise ensemble.

    Uses the FCNN workload.  For every decoder the trained student is deployed
    once; the whole sweep then runs as a single ``(sigmas, trials)`` batched
    mesh ensemble -- the sigma axis is an array axis of the noise model, not a
    Python loop (:func:`repro.experiments.deployed._deploy_and_sweep`).
    """
    rows: List[Fig9HardwareRow] = []
    for decoder in decoders:
        for row in _deploy_and_sweep("fcnn", preset, decoder, sigmas, trials, seed,
                                     eval_samples, method="clements",
                                     mutual_learning=False):
            rows.append(Fig9HardwareRow(decoder=decoder, sigma=row.sigma,
                                        trials=row.trials,
                                        noiseless_accuracy=row.deployed_accuracy,
                                        deployed_accuracy=row.noisy_accuracy))
    return rows


def format_fig9_hardware(rows: Sequence[Fig9HardwareRow]) -> str:
    headers = ["Decoder", "sigma", "trials", "Deployed accuracy", "Noiseless accuracy"]
    table_rows = [[row.decoder, f"{row.sigma:.3f}", row.trials,
                   percent(row.deployed_accuracy), percent(row.noiseless_accuracy)]
                  for row in rows]
    return format_table(headers, table_rows,
                        title="Figure 9 (hardware) -- deployed decoders under phase noise")


def format_fig9(rows: Sequence[Fig9Row]) -> str:
    headers = ["Model", "Decoder", "Accuracy", "Area (vs coherent)", "Extra readout"]
    table_rows = [[row.model, row.decoder, percent(row.accuracy),
                   percent(row.normalized_area), "yes" if row.extra_readout else "no"]
                  for row in rows]
    return format_table(headers, table_rows, title="Figure 9 -- decoder comparison")


if __name__ == "__main__":
    print(format_fig9(run_fig9(preset="bench")))
