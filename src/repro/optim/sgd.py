"""Stochastic gradient descent with momentum and weight decay."""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from repro.nn.module import Parameter


class SGD:
    """SGD update ``p <- p - lr * (grad + wd * p)`` with optional momentum.

    This is the optimizer of every training run (momentum 0.9 and weight
    decay 1e-4, see :class:`~repro.core.training.Trainer`).  ``lr`` may be
    changed between steps, e.g. by
    :class:`~repro.optim.lr_scheduler.CosineAnnealingLR`.

    :meth:`step` is allocation-free: the velocity buffers and
    ``parameter.data`` are updated in place through ``out=`` ufunc operands
    and preallocated per-parameter scratch, instead of rebinding fresh arrays
    every step.  A compiled training plan folds the update into its
    instruction tail as one :meth:`step_parameter` per parameter, exactly
    what :meth:`step` runs.  :meth:`step_reference` keeps the allocating
    formulation as an executable specification; the two produce
    bit-identical trajectories (pinned in the test-suite).
    """

    def __init__(self, parameters: Iterable[Parameter], lr: float = 0.1,
                 momentum: float = 0.0, weight_decay: float = 0.0):
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if momentum < 0 or weight_decay < 0:
            raise ValueError("momentum and weight_decay must be non-negative")
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]
        self._scratch = [np.empty_like(p.data) for p in self.parameters]

    def zero_grad(self) -> None:
        """Clear the gradients of all managed parameters."""
        for parameter in self.parameters:
            parameter.zero_grad()

    def step_parameter(self, index: int) -> None:
        """Apply the update for ``self.parameters[index]`` from its gradient."""
        parameter = self.parameters[index]
        grad = parameter.grad
        if grad is None:
            return
        velocity = self._velocity[index]
        buf = self._scratch[index]
        if self.weight_decay:
            np.multiply(parameter.data, self.weight_decay, out=buf)
            buf += grad
        else:
            np.copyto(buf, grad)
        if self.momentum:
            velocity *= self.momentum
            velocity += buf
            np.copyto(buf, velocity)
        np.multiply(buf, self.lr, out=buf)
        parameter.data -= buf

    def step(self) -> None:
        """Apply one update using the currently accumulated gradients."""
        for index in range(len(self.parameters)):
            self.step_parameter(index)

    def step_reference(self) -> None:
        """The allocating seed update, kept as an executable specification."""
        for parameter, velocity in zip(self.parameters, self._velocity):
            if parameter.grad is None:
                continue
            grad = parameter.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * parameter.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                update = velocity
            else:
                update = grad
            parameter.data = parameter.data - self.lr * update

    def clip_grad_norm(self, max_norm: float) -> float:
        """Clip the global gradient norm in place; returns the pre-clip norm."""
        grads = [p.grad for p in self.parameters if p.grad is not None]
        if not grads:
            return 0.0
        total = float(np.sqrt(sum(float((g ** 2).sum()) for g in grads)))
        if total > max_norm > 0:
            scale = max_norm / (total + 1e-12)
            for parameter in self.parameters:
                if parameter.grad is not None:
                    # gradients are freshly accumulated arrays, so the scale
                    # can be applied in place instead of rebinding a copy
                    np.multiply(parameter.grad, scale, out=parameter.grad)
        return total
