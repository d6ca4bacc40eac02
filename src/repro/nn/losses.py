"""Loss functions: cross-entropy and the knowledge-distillation losses.

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


def cross_entropy(logits: Tensor, labels: Union[Tensor, np.ndarray]) -> Tensor:
    """Mean cross-entropy between ``logits`` and integer class ``labels``.

    Parameters
    ----------
    logits:
        ``(batch, num_classes)`` raw scores.
    labels:
        Integer class indices of shape ``(batch,)``.

    The one-hot targets are marked as a trace input: the train-plan compiler
    recomputes them for each new batch and copies them into the traced leaf.
    """
    logits = ensure_tensor(logits)
    labels = _labels_to_array(labels)
    batch, num_classes = logits.shape
    if labels.shape[0] != batch:
        raise ValueError(f"label count {labels.shape[0]} does not match batch size {batch}")
    targets_tensor = Tensor(F.one_hot(labels, num_classes, dtype=logits.dtype))
    mark_trace_input(targets_tensor, "cross_entropy_targets",
                     {"num_classes": num_classes, "dtype": logits.dtype})
    log_probs = F.log_softmax(logits, axis=-1)
    return -(targets_tensor * log_probs).sum(axis=-1).mean()


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

    def __init__(self, alpha: float = 1.0, temperature: float = 1.0):
        super().__init__()
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.alpha = float(alpha)
        self.temperature = float(temperature)

    def forward(self, logits: Tensor, labels, peer_logits: Optional[Tensor] = None) -> Tensor:
        loss = cross_entropy(logits, labels)
        if peer_logits is not None and self.alpha > 0:
            loss = loss + self.alpha * kl_divergence(logits, peer_logits, temperature=self.temperature)
        return loss
