"""Loss functions: classification, regression and knowledge-distillation losses.

The distillation losses implement Eqs. (3)/(4) of the OplixNet paper:

.. math::

    L_{SCVNN} = L_{CE} + \\alpha \\, L_{KD\\_CVNN}, \\qquad
    L_{CVNN}  = L_{CE} + \\alpha \\, L_{KD\\_SCVNN}

where the KD term is the Kullback-Leibler divergence between the softened
output distributions of the two networks (deep mutual learning, Zhang et al.
CVPR 2018).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.nn.module import Module
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor, ensure_tensor, mark_trace_input


def _labels_to_array(labels: Union[Tensor, np.ndarray]) -> np.ndarray:
    if isinstance(labels, Tensor):
        labels = labels.data
    return np.asarray(labels).astype(int).reshape(-1)


def smoothed_targets(labels: np.ndarray, num_classes: int, label_smoothing: float,
                     dtype) -> np.ndarray:
    """The (optionally label-smoothed) target distribution of ``cross_entropy``.

    Shared with the train-plan compiler, which recomputes the targets for each
    new batch and copies them into the traced target leaf.
    """
    targets = F.one_hot(labels, num_classes, dtype=dtype)
    if label_smoothing > 0.0:
        targets = (1.0 - label_smoothing) * targets + label_smoothing / num_classes
    return targets


def cross_entropy(logits: Tensor, labels: Union[Tensor, np.ndarray],
                  label_smoothing: float = 0.0) -> Tensor:
    """Mean cross-entropy between ``logits`` and integer class ``labels``.

    Parameters
    ----------
    logits:
        ``(batch, num_classes)`` raw scores.
    labels:
        Integer class indices of shape ``(batch,)``.
    label_smoothing:
        Optional smoothing factor in ``[0, 1)``; the target distribution
        becomes ``(1 - s) * one_hot + s / num_classes``.
    """
    logits = ensure_tensor(logits)
    labels = _labels_to_array(labels)
    batch, num_classes = logits.shape
    if labels.shape[0] != batch:
        raise ValueError(f"label count {labels.shape[0]} does not match batch size {batch}")
    targets_tensor = Tensor(smoothed_targets(labels, num_classes, label_smoothing,
                                             logits.dtype))
    mark_trace_input(targets_tensor, "cross_entropy_targets",
                     {"num_classes": num_classes,
                      "label_smoothing": float(label_smoothing),
                      "dtype": logits.dtype})
    log_probs = F.log_softmax(logits, axis=-1)
    return -(targets_tensor * log_probs).sum(axis=-1).mean()


def mse_loss(prediction: Tensor, target: Union[Tensor, np.ndarray]) -> Tensor:
    """Mean squared error."""
    prediction = ensure_tensor(prediction)
    target = ensure_tensor(target)
    difference = prediction - target.detach()
    return (difference * difference).mean()


def peer_distribution(peer_logits: np.ndarray, temperature: float):
    """Softened peer probabilities and log-probabilities of ``kl_divergence``.

    The same float operations as a shifted softmax and a ``logsumexp``-based
    log-softmax of ``peer_logits / temperature``.  Shared with the mutual
    learning trainer, which recomputes the peer distribution for each new
    batch and copies it into the traced peer leaves.
    """
    scaled = np.asarray(peer_logits) / temperature
    shift = scaled.max(axis=-1, keepdims=True)
    exps = np.exp(scaled - shift)
    sum_exps = exps.sum(axis=-1, keepdims=True)
    return exps / sum_exps, scaled - (np.log(sum_exps) + shift)


def kl_divergence(student_logits: Tensor, teacher_logits: Tensor,
                  temperature: float = 1.0) -> Tensor:
    """``KL(teacher || student)`` on temperature-softened distributions.

    Gradients only flow into ``student_logits``; the teacher distribution is
    treated as a constant target (each network in mutual learning computes its
    own loss against the *detached* peer, exactly as in deep mutual learning).
    The classic :math:`T^2` factor keeps gradient magnitudes comparable across
    temperatures.  The peer distribution is computed in numpy
    (:func:`peer_distribution`) and marked as two *late* trace inputs: a
    compiled step receives them only after its forward pass, once the peer's
    logits of the same batch exist.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    student_logits = ensure_tensor(student_logits)
    probs, log_probs = peer_distribution(ensure_tensor(teacher_logits).data, temperature)
    teacher_probs = Tensor(probs)
    teacher_log_probs = Tensor(log_probs)
    meta = {"temperature": float(temperature), "late": True}
    mark_trace_input(teacher_probs, "kl_peer_probs", meta)
    mark_trace_input(teacher_log_probs, "kl_peer_log_probs", meta)
    student_log_probs = F.log_softmax(student_logits / temperature, axis=-1)
    divergence = (teacher_probs * (teacher_log_probs - student_log_probs)).sum(axis=-1).mean()
    return divergence * (temperature ** 2)


class CrossEntropyLoss(Module):
    """Cross-entropy on raw logits and integer labels."""

    def __init__(self, label_smoothing: float = 0.0):
        super().__init__()
        if not 0.0 <= label_smoothing < 1.0:
            raise ValueError("label_smoothing must be in [0, 1)")
        self.label_smoothing = float(label_smoothing)

    def forward(self, logits: Tensor, labels) -> Tensor:
        return cross_entropy(logits, labels, label_smoothing=self.label_smoothing)


class MSELoss(Module):
    """Mean squared error loss."""

    def forward(self, prediction: Tensor, target) -> Tensor:
        return mse_loss(prediction, target)


class KLDivergenceLoss(Module):
    """Temperature-softened KL divergence used as the distillation term."""

    def __init__(self, temperature: float = 1.0):
        super().__init__()
        self.temperature = float(temperature)

    def forward(self, student_logits: Tensor, teacher_logits: Tensor) -> Tensor:
        return kl_divergence(student_logits, teacher_logits, temperature=self.temperature)


class DistillationLoss(Module):
    """Combined loss ``L_CE + alpha * L_KD`` of Eqs. (3)/(4).

    Parameters
    ----------
    alpha:
        Mixing factor between the supervised and distillation terms (the paper
        uses ``alpha = 1.0``).
    temperature:
        Softening temperature for the KD term.
    """

    def __init__(self, alpha: float = 1.0, temperature: float = 1.0,
                 label_smoothing: float = 0.0):
        super().__init__()
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.alpha = float(alpha)
        self.temperature = float(temperature)
        self.label_smoothing = float(label_smoothing)

    def forward(self, logits: Tensor, labels, peer_logits: Optional[Tensor] = None) -> Tensor:
        loss = cross_entropy(logits, labels, label_smoothing=self.label_smoothing)
        if peer_logits is not None and self.alpha > 0:
            loss = loss + self.alpha * kl_divergence(logits, peer_logits, temperature=self.temperature)
        return loss
