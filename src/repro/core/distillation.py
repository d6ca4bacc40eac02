"""SCVNN-CVNN mutual learning (Section III-C of the paper).

The split network (student) and a larger complex-valued network with
conventional assignment (teacher) are trained *jointly* from scratch, each
minimising its own cross-entropy plus a KL term towards the other's softened
predictions (deep mutual learning, Zhang et al. CVPR 2018):

.. math::

    L_{SCVNN} = L_{CE} + \\alpha \\, KL(p_{CVNN} \\,\\|\\, p_{SCVNN}), \\qquad
    L_{CVNN}  = L_{CE} + \\alpha \\, KL(p_{SCVNN} \\,\\|\\, p_{CVNN})

Both networks see the *same* images each step, but through their own data
assignment (the student through SI/CL/..., the teacher through the
conventional amplitude-only assignment).

Each step runs one forward pass per network, then the student's backward and
update, then the teacher's.  Both losses read only the pre-step parameters
(each treats its peer's logits as a constant), so this order is exact, and a
train-mode batch norm moves its running statistics once per step.  The hot
path is compiled like :class:`~repro.core.training.Trainer`'s: the first step
at each batch shape records each network's forward pass and loss under its
own tape trace, and later steps replay both networks'
:class:`~repro.core.train_plan.TrainStepPlan`: ``forward`` on each, the
peer distributions from the replayed logits, then ``finish`` on each.
The plans live in the two inner trainers' plan dicts; their size cap and
fallback reasons apply unchanged.  ``_mutual_step`` (the eager tape) is the
oracle; it also runs under ``REPRO_FORCE_REFERENCE=1``, with
``compile_train_step=False`` on either trainer, and for models the tracer
cannot replay (zReLU, complex max-pool).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.assignment import AssignmentScheme, get_scheme
from repro.core.config import TrainingConfig
from repro.core.training import (
    Trainer,
    TrainingHistory,
    apply_parameter_constraints,
    evaluate_accuracy,
    prepare_batch,
)
from repro.data.loader import DataLoader
from repro.nn.losses import DistillationLoss, peer_distribution
from repro.nn.module import Module
from repro.tensor.tensor import trace_tape

#: softmax temperature of the distillation term
TEMPERATURE = 2.0


@dataclass
class MutualLearningResult:
    """Histories and final accuracies of a mutual-learning run."""

    student_history: TrainingHistory = field(default_factory=TrainingHistory)
    teacher_history: TrainingHistory = field(default_factory=TrainingHistory)
    student_test_accuracy: float = 0.0
    teacher_test_accuracy: float = 0.0


class MutualLearningTrainer:
    """Joint trainer for the SCVNN student and its CVNN teacher.

    Parameters
    ----------
    student, teacher:
        The two models.  The teacher is typically a larger network of the same
        family (e.g. CVNN ResNet-56 for an SCVNN ResNet-32 student).
    config:
        Shared hyper-parameters; ``distillation_alpha`` is the paper's alpha,
        and the KD term softens both networks' outputs at :data:`TEMPERATURE`.
        Each network trains with :class:`~repro.core.training.Trainer`'s recipe.
    student_scheme:
        Data assignment of the student (e.g. spatial interlace).
    teacher_scheme:
        Data assignment of the teacher; defaults to the conventional
        amplitude-only assignment.
    """

    def __init__(self, student: Module, teacher: Module, config: TrainingConfig,
                 student_scheme: AssignmentScheme,
                 teacher_scheme: Optional[AssignmentScheme] = None):
        self.student = student
        self.teacher = teacher
        self.config = config
        self.student_scheme = student_scheme
        self.teacher_scheme = teacher_scheme if teacher_scheme is not None else get_scheme("conventional")
        self.student_trainer = Trainer(student, config, scheme=student_scheme)
        self.teacher_trainer = Trainer(teacher, config, scheme=self.teacher_scheme)
        self._loss = DistillationLoss(alpha=config.distillation_alpha,
                                      temperature=TEMPERATURE)

    @property
    def plan_stats(self) -> dict:
        """Diagnostics of both networks' plans, shaped like ``Trainer.plan_stats``."""
        trainers = {"student": self.student_trainer, "teacher": self.teacher_trainer}
        keys = [key for key in self.student_trainer._plans
                if key[0] == "mutual" and key in self.teacher_trainer._plans]
        reasons = [f"{role}: {trainer._plan_fallback_reason}"
                   for role, trainer in trainers.items()
                   if trainer._plan_fallback_reason is not None]
        return {
            "enabled": all(trainer.plan_stats["enabled"] for trainer in trainers.values()),
            "compiled": len(keys),
            "fallback_reason": "; ".join(reasons) or None,
            "scratch_bytes": sum(trainer._plans[key].stats["scratch_bytes"]
                                 for key in keys for trainer in trainers.values()),
            "plans": {str(key): {role: trainer._plans[key].stats
                                 for role, trainer in trainers.items()}
                      for key in keys},
        }

    def train_step(self, images: np.ndarray, labels: np.ndarray) -> tuple:
        """One joint update of both networks; returns their batch losses."""
        if self.student_trainer._plan_active() and self.teacher_trainer._plan_active():
            return self._planned_step(images, labels)
        return self._mutual_step(images, labels)

    def _mutual_step(self, images: np.ndarray, labels: np.ndarray) -> tuple:
        """The reference step on the eager tape: both forwards, then both updates."""
        student_logits = self.student(prepare_batch(images, self.student_scheme))
        teacher_logits = self.teacher(prepare_batch(images, self.teacher_scheme))
        student_loss = self._loss(student_logits, labels, teacher_logits)
        teacher_loss = self._loss(teacher_logits, labels, student_logits)
        self.student_trainer._update(student_loss)
        self.teacher_trainer._update(teacher_loss)
        return float(student_loss.data), float(teacher_loss.data)

    def _planned_step(self, images: np.ndarray, labels: np.ndarray) -> tuple:
        key = ("mutual", np.shape(images), np.shape(labels))
        student_plan = self.student_trainer._plans.get(key)
        teacher_plan = self.teacher_trainer._plans.get(key)
        if student_plan is None or teacher_plan is None:
            if self.student_trainer._may_compile() and self.teacher_trainer._may_compile():
                return self._trace_step(key, images, labels)
            return self._mutual_step(images, labels)
        student_logits = student_plan.forward(self.student_trainer._plan_inputs(
            images, labels, student_plan.input_meta))
        teacher_logits = teacher_plan.forward(self.teacher_trainer._plan_inputs(
            images, labels, teacher_plan.input_meta))
        student_peer = _peer_inputs(teacher_logits, student_plan.input_meta)
        teacher_peer = _peer_inputs(student_logits, teacher_plan.input_meta)
        student_loss, _ = student_plan.finish(student_peer)
        apply_parameter_constraints(self.student)
        teacher_loss, _ = teacher_plan.finish(teacher_peer)
        apply_parameter_constraints(self.teacher)
        return student_loss, teacher_loss

    def _trace_step(self, key, images: np.ndarray, labels: np.ndarray) -> tuple:
        """Run the eager step with each network under its own trace, then compile.

        The traces nest: the teacher's forward pass and loss record into their
        own trace while the student's is suspended.  Each KL term reads its
        peer's logits as plain data, so neither trace holds the other's nodes.
        """
        with trace_tape() as student_trace:
            student_logits = self.student(prepare_batch(images, self.student_scheme))
            with trace_tape() as teacher_trace:
                teacher_logits = self.teacher(prepare_batch(images, self.teacher_scheme))
                teacher_loss = self._loss(teacher_logits, labels, student_logits)
            student_loss = self._loss(student_logits, labels, teacher_logits)
        self.student_trainer._update(student_loss)
        self.teacher_trainer._update(teacher_loss)
        self.student_trainer._compile(key, student_trace, student_loss, student_logits)
        self.teacher_trainer._compile(key, teacher_trace, teacher_loss, teacher_logits)
        return float(student_loss.data), float(teacher_loss.data)

    def fit(self, train_loader: DataLoader, test_loader: Optional[DataLoader] = None,
            verbose: bool = False) -> MutualLearningResult:
        """Run the joint training schedule."""
        result = MutualLearningResult()
        self.student.train()
        self.teacher.train()
        for epoch in range(self.config.epochs):
            student_loss_sum = teacher_loss_sum = 0.0
            batches = 0
            for images, labels in train_loader:
                student_loss, teacher_loss = self.train_step(images, labels)
                student_loss_sum += student_loss
                teacher_loss_sum += teacher_loss
                batches += 1
            result.student_history.train_loss.append(student_loss_sum / max(batches, 1))
            result.teacher_history.train_loss.append(teacher_loss_sum / max(batches, 1))
            if test_loader is not None:
                student_acc = evaluate_accuracy(self.student, test_loader, self.student_scheme)
                teacher_acc = evaluate_accuracy(self.teacher, test_loader, self.teacher_scheme)
                result.student_history.test_accuracy.append(student_acc)
                result.teacher_history.test_accuracy.append(teacher_acc)
            self.student_trainer.scheduler.step()
            self.teacher_trainer.scheduler.step()
            if verbose:
                student_acc = (result.student_history.test_accuracy[-1]
                               if result.student_history.test_accuracy else float("nan"))
                print(f"epoch {epoch + 1:3d}: student_loss={result.student_history.train_loss[-1]:.4f} "
                      f"student_acc={student_acc:.4f}")
        if test_loader is not None:
            result.student_test_accuracy = result.student_history.final_test_accuracy
            result.teacher_test_accuracy = result.teacher_history.final_test_accuracy
        return result


def _peer_inputs(peer_logits: np.ndarray, input_meta: dict) -> dict:
    """The late inputs of one network's compiled step: its peer's distribution."""
    meta = input_meta.get("kl_peer_probs")
    if meta is None:
        return {}  # no distillation term (alpha = 0)
    probs, log_probs = peer_distribution(peer_logits, meta["temperature"])
    return {"kl_peer_probs": probs, "kl_peer_log_probs": log_probs}
