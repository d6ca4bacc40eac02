"""Table III: effect of SCVNN-CVNN mutual learning on the split networks.

For each CNN workload the SCVNN student is trained twice with identical
hyper-parameters: once with plain cross-entropy and once jointly with its CVNN
teacher (the paper pairs ResNet-20/32 with a ResNet-56 and LeNet-5 with
another LeNet-5).  The paper's finding -- mutual learning recovers accuracy,
with the largest gain on the deepest student -- is what the harness reports.
Each row names the student and teacher depths that actually ran, which the
preset chooses (the ``bench`` preset trains ResNet-8 students with a
ResNet-14 teacher).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.pipeline import OplixNet
from repro.experiments.common import WORKLOADS, Workload, workload_config
from repro.experiments.presets import Preset, get_preset
from repro.experiments.reporting import format_table, percent

#: the workloads of the paper's Table III (the FCNN row is not part of it)
TABLE3_WORKLOAD_KEYS = ("lenet5", "resnet20", "resnet32")


def model_label(workload: Workload, depth: Optional[int]) -> str:
    """The name of the network that ran: ResNets carry their trained depth."""
    if workload.architecture == "resnet":
        return f"ResNet-{depth}"
    return workload.display_name


@dataclass
class Table3Row:
    """One row of Table III."""

    model: str
    dataset: str
    accuracy_without_ml: float
    accuracy_with_ml: float
    teacher: str

    @property
    def improvement(self) -> float:
        return self.accuracy_with_ml - self.accuracy_without_ml


def run_workload(workload: Workload, preset: Preset, seed: int = 0) -> Table3Row:
    """Train one workload with and without mutual learning."""
    config = workload_config(workload, preset, seed=seed)

    pipeline_plain = OplixNet(config)
    _student_plain, history = pipeline_plain.train_student(mutual_learning=False)
    accuracy_without = history.final_test_accuracy

    pipeline_ml = OplixNet(config)
    _student_ml, result = pipeline_ml.train_student(mutual_learning=True)
    accuracy_with = result.student_test_accuracy

    return Table3Row(
        model=model_label(workload, config.depth),
        dataset=workload.dataset.upper(),
        accuracy_without_ml=accuracy_without,
        accuracy_with_ml=accuracy_with,
        teacher=model_label(workload, config.teacher_depth),
    )


def run_table3(preset: str = "bench", workloads: Optional[Sequence[str]] = None,
               seed: int = 0) -> List[Table3Row]:
    """Reproduce Table III for the selected workloads."""
    preset_obj = get_preset(preset) if isinstance(preset, str) else preset
    keys = TABLE3_WORKLOAD_KEYS if workloads is None else tuple(workloads)
    selected = [w for w in WORKLOADS if w.key in keys]
    return [run_workload(workload, preset_obj, seed=seed) for workload in selected]


def format_table3(rows: Sequence[Table3Row]) -> str:
    headers = ["Model", "Dataset", "Acc w/o ML", "Acc w/ ML", "Gain", "CVNN teacher"]
    table_rows = [
        [row.model, row.dataset, percent(row.accuracy_without_ml),
         percent(row.accuracy_with_ml), percent(row.improvement), row.teacher]
        for row in rows
    ]
    return format_table(headers, table_rows,
                        title="Table III -- SCVNN-CVNN mutual learning")


if __name__ == "__main__":
    print(format_table3(run_table3(preset="bench")))
