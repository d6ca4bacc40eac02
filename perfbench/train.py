"""The ``train`` workload: planned SCVNN training, then mutual learning.

Phase one runs ``Trainer.fit`` on an SCVNN ResNet-8 (SI assignment, batch
64) through the compiled train-step plan.  Phase two runs
``MutualLearningTrainer.fit`` on a LeNet-5 SI student and a wider
conventional-assignment teacher (the paper's Sec. III-C recipe) on the
eager tape.  Both read the same synthetic CIFAR-like data.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

import numpy as np

from repro.assignment import get_scheme
from repro.core.config import TrainingConfig
from repro.core.distillation import MutualLearningTrainer
from repro.core.training import Trainer
from repro.data.loader import DataLoader
from repro.data.synthetic import synthetic_cifar10

from perfbench import models
from perfbench.harness import Measured, Metric
from perfbench.probes import TimedBatches
from perfbench.stats import median, percentile

BATCH = 64
SAMPLES = 1024
PLANNED_SHARE = 0.5         # of the measured seconds; the rest is mutual learning


def _finite(*values: float) -> bool:
    return bool(np.all(np.isfinite(values)))


def _nonfinite_parameters(*modules: Any) -> List[str]:
    return [f"{type(module).__name__} parameter {index} is not finite"
            for module in modules
            for index, parameter in enumerate(module.parameters())
            if not np.all(np.isfinite(parameter.data))]


class Train:
    name = "train"
    rounds = 4
    latency_note = "one planned Trainer.fit step, ResNet-8 SI, batch 64"
    throughput_note = "samples/s of MutualLearningTrainer.fit, LeNet-5 pair"
    owns = ("train.step_ms_p50", "train.step_ms_p90", "train.loader_ms_p50",
            "train.first_step_s", "train.plan_compiled", "train.plan_fallback")

    def __init__(self) -> None:
        self._data: Dict[int, Any] = {}

    def data(self, bench: Any):
        """The run's training images (generated once; they are inputs, not set-up)."""
        if bench.seed not in self._data:
            train, _test = synthetic_cifar10(32, 32, train_samples=SAMPLES,
                                             test_samples=BATCH,
                                             seed=int(bench.rng("train.data").integers(2**31)))
            self._data = {bench.seed: train}
        return self._data[bench.seed]

    def loader(self, bench: Any, stream: str) -> DataLoader:
        return DataLoader(self.data(bench), batch_size=BATCH, shuffle=True,
                          drop_last=True, rng=bench.rng(stream))

    def setup(self, bench: Any) -> Dict[str, Any]:
        data = self.data(bench)
        first = [(data.images[:BATCH], data.labels[:BATCH])]
        config = TrainingConfig(epochs=1, batch_size=BATCH, learning_rate=0.01, seed=0)
        model = models.train_resnet(bench.rng("train.model"))
        trainer = Trainer(model, config, scheme=get_scheme("SI"))
        start = time.perf_counter()
        trainer.fit(first)                  # traces the step and compiles its plan
        first_step_s = time.perf_counter() - start
        student, teacher = models.mutual_pair(bench.rng("train.mutual"))
        mutual = MutualLearningTrainer(student, teacher, config,
                                       student_scheme=get_scheme("SI"))
        mutual.fit(first)
        return {"trainer": trainer, "mutual": mutual, "first_step_s": first_step_s}

    def teardown(self, bench: Any, state: Dict[str, Any]) -> None:
        pass

    def measure(self, bench: Any, state: Dict[str, Any], tracer: Any,
                seconds: float, part: str) -> Measured:
        trainer, mutual = state["trainer"], state["mutual"]
        planned = TimedBatches(self.loader(bench, f"train.loader.{part}"),
                               seconds * PLANNED_SHARE, tracer, "train.step")
        history = trainer.fit(planned)
        joint = TimedBatches(self.loader(bench, f"train.mutual_loader.{part}"),
                             seconds * (1.0 - PLANNED_SHARE), tracer, "train.mutual_step")
        result = mutual.fit(joint)
        steps = len(planned.step_times) + len(joint.step_times)
        losses = (history.train_loss[-1], result.student_history.train_loss[-1],
                  result.teacher_history.train_loss[-1])
        bench.operations(steps, 0 if _finite(*losses) else steps,
                         [] if _finite(*losses) else [f"non-finite losses {losses}"])
        bench.check(_nonfinite_parameters(trainer.model, mutual.student, mutual.teacher))
        return Measured(latencies=planned.step_times,
                        throughputs=[joint.samples / joint.elapsed],
                        samples={"mutual_step": joint.step_times,
                                 "planned_rate": [planned.samples / planned.elapsed]},
                        state={"planned": planned})

    def report(self, measures: List[Measured]) -> Dict[str, Metric]:
        steps = [value for measured in measures for value in measured.latencies]
        mutual = [value for measured in measures
                  for value in measured.samples["mutual_step"]]
        return {
            "train_samples_per_s": Metric(
                median([rate for measured in measures
                        for rate in measured.samples["planned_rate"]]), "1/s",
                len(measures), "Trainer.fit, median over rounds"),
            "mutual_samples_per_s": Metric(
                median([rate for measured in measures for rate in measured.throughputs]),
                "1/s",
                len(measures), "MutualLearningTrainer.fit, median over rounds"),
            "train.step_ms_p50": Metric(percentile(steps, 50) * 1e3, "ms", len(steps)),
            "train.mutual_step_ms_p50": Metric(percentile(mutual, 50) * 1e3, "ms",
                                               len(mutual)),
        }

    def layers(self, bench: Any, state: Dict[str, Any], tracer: Any,
               measured: Measured) -> Dict[str, Metric]:
        planned = measured.state["planned"]
        steps, loads = planned.step_times, planned.loader_times
        plan_stats = state["trainer"].plan_stats
        return {
            "train.step_ms_p50": Metric(percentile(steps, 50) * 1e3, "ms", len(steps)),
            "train.step_ms_p90": Metric(percentile(steps, 90) * 1e3, "ms", len(steps)),
            "train.loader_ms_p50": Metric(percentile(loads, 50) * 1e3, "ms", len(loads)),
            "train.first_step_s": Metric(state["first_step_s"], "s", 1,
                                         "trace + plan compile + one update"),
            "train.plan_compiled": Metric(plan_stats["compiled"], "count"),
            "train.plan_fallback": Metric(
                0 if plan_stats["fallback_reason"] is None else 1, "count"),
        }
