"""The cosine learning-rate schedule."""

from __future__ import annotations

import math

from repro.optim.sgd import SGD


class CosineAnnealingLR:
    """Cosine decay from the base learning rate to zero over ``total_epochs``.

    :meth:`step` advances one epoch and sets ``optimizer.lr``.
    """

    def __init__(self, optimizer: SGD, total_epochs: int):
        if total_epochs <= 0:
            raise ValueError("total_epochs must be positive")
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.epoch = 0
        self.total_epochs = int(total_epochs)

    def get_lr(self) -> float:
        progress = min(self.epoch, self.total_epochs) / self.total_epochs
        return 0.5 * self.base_lr * (1.0 + math.cos(math.pi * progress))

    def step(self) -> float:
        """Advance one epoch and update the optimizer's learning rate."""
        self.epoch += 1
        self.optimizer.lr = self.get_lr()
        return self.optimizer.lr
