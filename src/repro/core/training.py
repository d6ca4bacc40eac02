"""Supervised training loop shared by every experiment.

The :class:`Trainer` hides the difference between real and complex models: a
data-assignment scheme turns each numpy image batch into either a real tensor
(RVNN) or a :class:`~repro.nn.complex.ComplexTensor` (CVNN / SCVNN), and the
model maps it to real logits.

The hot path is compiled: the first step at each ``(image, label)`` batch
shape runs eagerly under :func:`~repro.tensor.tensor.trace_tape` and is
lowered by :mod:`repro.core.train_plan` to a flat instruction plan
(forward + backward + optimizer update on preallocated buffers).  Later
steps with the same shapes replay the plan; anything the tracer cannot
lower (dropout, custom ops) falls back to the eager tape transparently.
Under ``REPRO_FORCE_REFERENCE=1`` (:func:`repro.reference.enabled`) every
step runs the eager tape, the plan's reference: the reference kernels it
then runs record no forward kernel to replay.  The plan dict, its size cap, the
fallback reason and the per-batch plan inputs are shared with
:class:`~repro.core.distillation.MutualLearningTrainer`, which drives one
trainer per network through the same machinery.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import reference
from repro.assignment import AssignmentScheme
from repro.core.config import TrainingConfig
from repro.core.train_plan import PlanUnsupported, TrainStepPlan, compile_train_step
from repro.data.loader import DataLoader
from repro.nn.complex import ComplexTensor
from repro.nn.losses import cross_entropy
from repro.nn.module import Module
from repro.optim import SGD, CosineAnnealingLR
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor, mark_trace_input, no_grad, trace_tape

#: the fixed part of the training recipe: SGD momentum and weight decay, and
#: the global gradient-norm bound applied before every update
MOMENTUM = 0.9
WEIGHT_DECAY = 1e-4
GRAD_CLIP = 5.0


def prepare_batch(images: np.ndarray, scheme: Optional[AssignmentScheme]):
    """Convert a numpy image batch into the input the model expects.

    With a scheme, the batch is packed into a :class:`ComplexTensor` (complex
    models); without one it is wrapped as a real :class:`Tensor` (RVNN).  The
    wrapped tensors are marked as trace inputs so a recorded step knows which
    leaf buffers to refresh per batch.
    """
    if scheme is None:
        tensor = Tensor(np.asarray(images, dtype=float))
        mark_trace_input(tensor, "input", {})
        return tensor
    result = scheme.assign(images)
    real = Tensor(result.real)
    imag = Tensor(result.imag)
    mark_trace_input(real, "input_real", {})
    mark_trace_input(imag, "input_imag", {})
    return ComplexTensor(real, imag)


def apply_parameter_constraints(model: Module) -> None:
    """Re-project constrained modules (e.g. unitary decoders) after an update."""
    for module in model.modules():
        project = getattr(module, "project_to_unitary", None)
        if callable(project):
            project()


def evaluate_accuracy(model: Module, loader: DataLoader,
                      scheme: Optional[AssignmentScheme] = None) -> float:
    """Top-1 accuracy of ``model`` over ``loader``; leaves its mode as found."""
    was_training = model.training
    model.eval()
    correct = 0
    total = 0
    with no_grad():
        for images, labels in loader:
            logits = model(prepare_batch(images, scheme))
            predictions = logits.data.argmax(axis=1)
            correct += int((predictions == labels).sum())
            total += labels.shape[0]
    model.train(was_training)
    return correct / total if total else 0.0


@dataclass
class TrainingHistory:
    """Per-epoch metrics collected by the trainer."""

    train_loss: List[float] = field(default_factory=list)
    train_accuracy: List[float] = field(default_factory=list)
    test_accuracy: List[float] = field(default_factory=list)
    #: wall-clock seconds spent in the training batches of each epoch
    epoch_time: List[float] = field(default_factory=list)
    #: training throughput of each epoch (samples / epoch_time)
    samples_per_second: List[float] = field(default_factory=list)

    @property
    def best_test_accuracy(self) -> float:
        return max(self.test_accuracy) if self.test_accuracy else 0.0

    @property
    def final_test_accuracy(self) -> float:
        return self.test_accuracy[-1] if self.test_accuracy else 0.0


class Trainer:
    """Cross-entropy trainer with the one recipe every workload uses.

    Each step clips the global gradient norm at :data:`GRAD_CLIP` and applies
    ``SGD(momentum=MOMENTUM, weight_decay=WEIGHT_DECAY)``; the learning rate
    follows :class:`~repro.optim.CosineAnnealingLR` over ``config.epochs``.

    Parameters
    ----------
    model:
        The network to train (real or complex flavour).
    config:
        Training hyper-parameters.
    scheme:
        Data-assignment scheme for complex models; ``None`` for real models.
    compile_train_step:
        Replay each batch shape's training step as a compiled plan
        (bit-identical to the eager tape; falls back automatically on models
        the tracer cannot replay).  ``False`` runs the eager tape, the plan's
        reference.
    """

    #: distinct batch shapes the trainer keeps compiled plans for; typically a
    #: run only ever sees two (the full batch and the smaller final batch)
    MAX_PLANS = 8

    def __init__(self, model: Module, config: TrainingConfig,
                 scheme: Optional[AssignmentScheme] = None,
                 compile_train_step: bool = True):
        self.model = model
        self.config = config
        self.scheme = scheme
        self.optimizer = SGD(model.parameters(), lr=config.learning_rate,
                             momentum=MOMENTUM, weight_decay=WEIGHT_DECAY)
        self.scheduler = CosineAnnealingLR(self.optimizer, total_epochs=config.epochs)
        self._plan_enabled = compile_train_step
        self._plans: Dict[Tuple, TrainStepPlan] = {}
        self._plan_fallback_reason: Optional[str] = None

    # ------------------------------------------------------------------ #
    # the training step: compiled plan when possible, eager tape otherwise
    # ------------------------------------------------------------------ #
    @property
    def plan_stats(self) -> dict:
        """Diagnostics of the plan compiler: per-shape stats and fallbacks.

        ``scratch_bytes`` totals the plans' scratch arenas (each plan's is
        its largest layer's worth of per-instruction temporaries).
        """
        return {
            "enabled": self._plan_enabled and not reference.enabled(),
            "compiled": len(self._plans),
            "fallback_reason": self._plan_fallback_reason,
            "scratch_bytes": sum(plan.stats["scratch_bytes"]
                                 for plan in self._plans.values()),
            "plans": {str(key): plan.stats for key, plan in self._plans.items()},
        }

    def train_step(self, images: np.ndarray, labels: np.ndarray):
        """One optimizer update; returns ``(batch loss, predicted labels)``."""
        if self._plan_active():
            return self._planned_step(images, labels)
        return self._eager_step(images, labels)

    def _plan_active(self) -> bool:
        """Whether training steps replay compiled plans right now."""
        return self._plan_enabled and not reference.enabled() and self.model.training

    def _may_compile(self) -> bool:
        """Whether an unseen batch shape may still be traced and compiled."""
        return self._plan_fallback_reason is None and len(self._plans) < self.MAX_PLANS

    def _eager_step(self, images: np.ndarray, labels: np.ndarray):
        """The reference step: graph walk, closure backward, optimizer loop."""
        logits = self.model(prepare_batch(images, self.scheme))
        loss = cross_entropy(logits, labels)
        self._update(loss)
        return float(loss.data), logits.data.argmax(axis=1)

    def _update(self, loss: Tensor) -> None:
        """Backward of ``loss``, the clip, the optimizer step, constraints."""
        self.optimizer.zero_grad()
        loss.backward()
        self.optimizer.clip_grad_norm(GRAD_CLIP)
        self.optimizer.step()
        apply_parameter_constraints(self.model)

    def _planned_step(self, images: np.ndarray, labels: np.ndarray):
        key = (np.shape(images), np.shape(labels))
        plan = self._plans.get(key)
        if plan is None:
            if not self._may_compile():
                return self._eager_step(images, labels)
            return self._trace_step(key, images, labels)
        loss, predictions = plan.execute(self._plan_inputs(images, labels, plan.input_meta))
        apply_parameter_constraints(self.model)
        return loss, predictions

    def _trace_step(self, key, images: np.ndarray, labels: np.ndarray):
        """Run one eager step under the tape tracer and lower it to a plan."""
        with trace_tape() as trace:
            logits = self.model(prepare_batch(images, self.scheme))
            loss = cross_entropy(logits, labels)
        self._update(loss)
        self._compile(key, trace, loss, logits)
        return float(loss.data), logits.data.argmax(axis=1)

    def _compile(self, key, trace, loss: Tensor, logits: Tensor) -> None:
        """Lower a traced (and already applied) step to the plan for ``key``."""
        try:
            self._plans[key] = compile_train_step(trace, loss, logits, self.optimizer,
                                                  grad_clip=GRAD_CLIP)
        except PlanUnsupported as reason:
            # models the tracer cannot replay keep the eager path for good
            self._plan_fallback_reason = str(reason)

    def _plan_inputs(self, images: np.ndarray, labels: np.ndarray,
                     input_meta: dict) -> Dict[str, np.ndarray]:
        """The per-batch arrays a compiled plan copies into its input leaves."""
        values: Dict[str, np.ndarray] = {}
        if self.scheme is None:
            values["input"] = np.asarray(images, dtype=float)
        else:
            result = self.scheme.assign(images)
            values["input_real"] = result.real
            values["input_imag"] = result.imag
        target_meta = input_meta.get("cross_entropy_targets")
        if target_meta is not None:
            values["cross_entropy_targets"] = F.one_hot(
                labels, target_meta["num_classes"], dtype=target_meta["dtype"])
        return values

    def fit(self, train_loader: DataLoader, test_loader: Optional[DataLoader] = None,
            verbose: bool = False) -> TrainingHistory:
        """Run the full training schedule."""
        history = TrainingHistory()
        self.model.train()
        for epoch in range(self.config.epochs):
            epoch_loss = 0.0
            batches = 0
            correct = 0
            seen = 0
            epoch_start = time.perf_counter()
            for images, labels in train_loader:
                loss, predictions = self.train_step(images, labels)
                epoch_loss += loss
                batches += 1
                correct += int((predictions == labels).sum())
                seen += labels.shape[0]
            elapsed = time.perf_counter() - epoch_start
            history.epoch_time.append(elapsed)
            history.samples_per_second.append(seen / elapsed if elapsed > 0 else 0.0)
            history.train_loss.append(epoch_loss / max(batches, 1))
            history.train_accuracy.append(correct / max(seen, 1))
            if test_loader is not None:
                history.test_accuracy.append(evaluate_accuracy(self.model, test_loader, self.scheme))
            self.scheduler.step()
            if verbose:
                test_acc = history.test_accuracy[-1] if history.test_accuracy else float("nan")
                print(f"epoch {epoch + 1:3d}: loss={history.train_loss[-1]:.4f} "
                      f"train_acc={history.train_accuracy[-1]:.4f} test_acc={test_acc:.4f} "
                      f"({history.samples_per_second[-1]:.1f} samples/s)")
        return history
