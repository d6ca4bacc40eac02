"""Deployed-model evaluation harnesses (extends the paper's Fig. 2 workflow).

The paper's deployment demonstrator covered the FCNN family; with the graph
compiler every Table 2/3 architecture deploys.  ``run_deployed_cnn`` trains
the SCVNN LeNet-5 student at CPU scale and ``run_deployed_resnet`` the SCVNN
ResNet student (lowered to a dataflow graph with photonic branch stages and
electronic skip-add nodes); both compile through :func:`repro.compile` and
report

* the software-vs-deployed fidelity (max logit error and accuracy agreement
  of the noiseless circuit), and
* a phase-noise robustness sweep of the deployed model, run as one
  ``(sigmas, trials)`` batched Monte-Carlo ensemble through the compiled
  mesh engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.pipeline import OplixNet
from repro.core.training import prepare_batch
from repro.experiments.common import get_workload, workload_config
from repro.experiments.presets import get_preset
from repro.experiments.reporting import format_table, percent
from repro.photonics.noise import PhaseNoiseModel
from repro.tensor import no_grad


@dataclass
class DeployedModelRow:
    """Fidelity and robustness of one deployed model at one noise level."""

    workload: str
    decoder: str
    sigma: float
    trials: int
    software_accuracy: float
    deployed_accuracy: float     # noiseless deployed circuit
    noisy_accuracy: float        # Monte-Carlo mean over the ensemble
    max_logit_error: float       # noiseless deployed vs software logits
    mzi_count: int


def _deploy_and_sweep(workload_key: str, preset, decoder: str,
                      sigmas: Sequence[float], trials: int, seed: int,
                      eval_samples: int, method: str,
                      mutual_learning: bool) -> List[DeployedModelRow]:
    """Train one workload's student, compile it and run the noise sweep."""
    preset_obj = get_preset(preset) if isinstance(preset, str) else preset
    workload = get_workload(workload_key)
    config = workload_config(workload, preset_obj, seed=seed, decoder=decoder)
    pipeline = OplixNet(config)
    student, _ = pipeline.train_student(mutual_learning=mutual_learning)
    scheme = pipeline.student_scheme()
    deployed = pipeline.deploy(student, method=method)
    # compile the execution plan eagerly so the evaluation passes below run
    # through the plan runtime (fused dense stages, reused buffers) rather
    # than paying plan compilation inside the first timed/evaluated forward
    deployed.plan()

    _train, test = pipeline.datasets()
    count = min(eval_samples, len(test))
    images = np.stack([test[i][0] for i in range(count)])
    labels = np.array([test[i][1] for i in range(count)])

    with no_grad():
        software_logits = student(prepare_batch(images, scheme)).data
    deployed_logits = deployed.predict_logits(images, scheme)
    max_logit_error = float(np.abs(deployed_logits - software_logits).max())
    software_accuracy = float((software_logits.argmax(axis=-1) == labels).mean())
    deployed_accuracy = float((deployed_logits.argmax(axis=-1) == labels).mean())

    sigma_axis = np.asarray(list(sigmas), dtype=float)
    noise = PhaseNoiseModel(sigma=sigma_axis, rng=np.random.default_rng(seed + 17))
    noisy = deployed.with_noise(noise=noise, trials=trials)
    noisy.plan()     # the ensemble sweep executes through its own plan
    hits = noisy.classify(images, scheme) == labels          # (sigmas, trials, samples)
    noisy_accuracies = hits.mean(axis=(1, 2))

    return [DeployedModelRow(workload=workload.display_name, decoder=decoder,
                             sigma=float(sigma), trials=int(trials),
                             software_accuracy=software_accuracy,
                             deployed_accuracy=deployed_accuracy,
                             noisy_accuracy=float(noisy_accuracies[index]),
                             max_logit_error=max_logit_error,
                             mzi_count=deployed.mzi_count)
            for index, sigma in enumerate(sigma_axis)]


def run_deployed_cnn(preset: str = "bench", decoder: str = "merge",
                     sigmas: Sequence[float] = (0.0, 0.01, 0.03),
                     trials: int = 8, seed: int = 0, eval_samples: int = 64,
                     method: str = "clements",
                     mutual_learning: bool = False) -> List[DeployedModelRow]:
    """Train, compile and noise-sweep the complex LeNet-5 student.

    The deployed forward must match the software model to numerical precision
    when noiseless; the sweep then degrades gracefully with sigma.  One row
    per sigma is returned; fidelity columns repeat across rows.
    """
    return _deploy_and_sweep("lenet5", preset, decoder, sigmas, trials, seed,
                             eval_samples, method, mutual_learning)


def run_deployed_resnet(preset: str = "bench", decoder: str = "merge",
                        sigmas: Sequence[float] = (0.0, 0.01, 0.03),
                        trials: int = 4, seed: int = 0, eval_samples: int = 32,
                        method: str = "clements",
                        mutual_learning: bool = False) -> List[DeployedModelRow]:
    """Train, compile and noise-sweep the complex ResNet student.

    The residual student lowers to a graph-shaped program -- photonic im2col
    stages on each branch, skip additions and folded batch norms in the
    electronic domain -- so this harness exercises the full graph compiler
    end to end (the noiseless circuit must agree with the eval-mode software
    forward to numerical precision).
    """
    return _deploy_and_sweep("resnet20", preset, decoder, sigmas, trials, seed,
                             eval_samples, method, mutual_learning)


def _format_rows(rows: Sequence[DeployedModelRow], title: str) -> str:
    headers = ["Model", "Decoder", "sigma", "trials", "Software acc",
               "Deployed acc", "Noisy acc", "Max logit err", "#MZI"]
    table_rows = [[row.workload, row.decoder, f"{row.sigma:.3f}", row.trials,
                   percent(row.software_accuracy), percent(row.deployed_accuracy),
                   percent(row.noisy_accuracy), f"{row.max_logit_error:.2e}",
                   row.mzi_count]
                  for row in rows]
    return format_table(headers, table_rows, title=title)


def format_deployed_cnn(rows: Sequence[DeployedModelRow]) -> str:
    return _format_rows(rows, title="Deployed CNN -- im2col lowering onto MZI meshes")


def format_deployed_resnet(rows: Sequence[DeployedModelRow]) -> str:
    return _format_rows(rows, title="Deployed ResNet -- graph compiler "
                                    "(photonic branches + electronic skip adds)")


if __name__ == "__main__":
    print(format_deployed_cnn(run_deployed_cnn(preset="bench")))
    print(format_deployed_resnet(run_deployed_resnet(preset="bench")))
