"""Batch-normalisation layers with running statistics.

Training runs one fused :func:`repro.tensor.functional.batch_norm` node; the
composed op-by-op graph is its bit-identical reference (pinned in the
test-suite) and runs under ``REPRO_FORCE_REFERENCE=1``.
"""

from __future__ import annotations

import numpy as np

from repro import reference
from repro.nn.module import Module, Parameter
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor


class _BatchNorm(Module):
    """Shared implementation of 1-d and 2-d batch normalisation.

    During training the layer normalises using batch statistics and updates
    exponential moving averages; during evaluation the moving averages are
    used instead, so that single-sample inference (as on the photonic chip)
    is deterministic.
    """

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5,
                 affine: bool = True):
        super().__init__()
        if num_features <= 0:
            raise ValueError("num_features must be positive")
        self.num_features = int(num_features)
        self.momentum = float(momentum)
        self.eps = float(eps)
        self.affine = bool(affine)
        if affine:
            self.weight = Parameter(np.ones(num_features))
            self.bias = Parameter(np.zeros(num_features))
        else:
            self.weight = None
            self.bias = None
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def _reduce_axes(self, inputs: Tensor):
        raise NotImplementedError

    def _param_shape(self, inputs: Tensor):
        raise NotImplementedError

    def _update_running_stats(self, batch_mean: np.ndarray, batch_var: np.ndarray) -> None:
        # update running statistics from the *data* (no autograd involvement);
        # the fused node calls this hook again on every plan replay
        self._set_buffer("running_mean",
                         (1 - self.momentum) * self.running_mean + self.momentum * batch_mean)
        self._set_buffer("running_var",
                         (1 - self.momentum) * self.running_var + self.momentum * batch_var)

    def forward(self, inputs: Tensor) -> Tensor:
        axes = self._reduce_axes(inputs)
        shape = self._param_shape(inputs)
        if self.training:
            if not reference.enabled():
                return F.batch_norm(inputs, self.weight, self.bias, axes, shape,
                                    self.eps, stats_hook=self._update_running_stats)
            mean = inputs.mean(axis=axes, keepdims=True)
            var = inputs.var(axis=axes, keepdims=True)
            self._update_running_stats(mean.data.reshape(self.num_features),
                                       var.data.reshape(self.num_features))
        else:
            mean = Tensor(self.running_mean.reshape(shape))
            var = Tensor(self.running_var.reshape(shape))
        normalized = (inputs - mean) / (var + self.eps).sqrt()
        if self.affine:
            normalized = normalized * self.weight.reshape(shape) + self.bias.reshape(shape)
        return normalized

    def __repr__(self) -> str:
        return f"{type(self).__name__}(features={self.num_features}, momentum={self.momentum})"


class BatchNorm1d(_BatchNorm):
    """Batch normalisation over ``(batch, features)`` inputs."""

    def _reduce_axes(self, inputs: Tensor):
        return 0

    def _param_shape(self, inputs: Tensor):
        return (1, self.num_features)


class BatchNorm2d(_BatchNorm):
    """Batch normalisation over ``(batch, channels, height, width)`` inputs."""

    def _reduce_axes(self, inputs: Tensor):
        return (0, 2, 3)

    def _param_shape(self, inputs: Tensor):
        return (1, self.num_features, 1, 1)
