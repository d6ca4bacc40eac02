"""The optimizer and learning-rate schedule every training run uses."""

from repro.optim.sgd import SGD
from repro.optim.lr_scheduler import CosineAnnealingLR

__all__ = ["SGD", "CosineAnnealingLR"]
