"""Containers and structural layers operating on :class:`ComplexTensor`."""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.nn.complex.ctensor import ComplexTensor
from repro.nn.module import Module
from repro.tensor import functional as F
from repro.tensor.random import default_rng
from repro.tensor.tensor import Tensor, mark_trace_volatile

IntPair = Union[int, Tuple[int, int]]


class ComplexSequential(Module):
    """Chain of complex modules applied in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._layers: List[Module] = []
        for index, module in enumerate(modules):
            setattr(self, f"layer{index}", module)
            self._layers.append(module)

    def append(self, module: Module) -> "ComplexSequential":
        setattr(self, f"layer{len(self._layers)}", module)
        self._layers.append(module)
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._layers)

    def __len__(self) -> int:
        return len(self._layers)

    def __getitem__(self, index: int) -> Module:
        return self._layers[index]

    def forward(self, inputs):
        for layer in self._layers:
            inputs = layer(inputs)
        return inputs


class ComplexFlatten(Module):
    """Flatten the spatial/channel dimensions of both parts."""

    def forward(self, inputs: ComplexTensor) -> ComplexTensor:
        return inputs.flatten(start_dim=1)


class ComplexAvgPool2d(Module):
    """Average pooling applied to real and imaginary parts.

    Averaging is a linear operation, so pooling each part independently is the
    exact complex average pool.
    """

    def __init__(self, kernel_size: IntPair, stride: Optional[IntPair] = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, inputs: ComplexTensor) -> ComplexTensor:
        return ComplexTensor(
            F.avg_pool2d(inputs.real, self.kernel_size, self.stride),
            F.avg_pool2d(inputs.imag, self.kernel_size, self.stride),
        )


class ComplexMaxPool2d(Module):
    """Magnitude-driven max pooling.

    The element with the largest modulus in each window is selected and both
    its real and imaginary parts are propagated, preserving phase information
    (selecting by modulus is what an optical power monitor would do).
    """

    def __init__(self, kernel_size: IntPair, stride: Optional[IntPair] = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, inputs: ComplexTensor) -> ComplexTensor:
        kernel = self.kernel_size if isinstance(self.kernel_size, tuple) else (self.kernel_size,) * 2
        stride = self.stride if self.stride is not None else kernel
        stride = stride if isinstance(stride, tuple) else (stride, stride)
        batch, channels, height, width = inputs.shape
        out_h = (height - kernel[0]) // stride[0] + 1
        out_w = (width - kernel[1]) // stride[1] + 1

        # Select indices by modulus (constant w.r.t. autograd), then gather both
        # parts with the same indices so the selection is consistent.
        mark_trace_volatile("complex max-pool modulus argmax")
        power = inputs.real.data ** 2 + inputs.imag.data ** 2
        reshaped = power.reshape(batch * channels, 1, height, width)
        columns, _ = F.im2col(reshaped, kernel, stride, (0, 0))
        max_idx = columns.argmax(axis=0)
        # capture the adjoint kernel at forward time (same contract as the
        # closures in repro.tensor.functional)
        col2im_fn = F.col2im_kernel()

        def gather(part: Tensor) -> Tensor:
            part_reshaped = part.reshape(batch * channels, 1, height, width)
            # build a differentiable gather using the same column lowering
            part_cols_data, _ = F.im2col(part_reshaped.data, kernel, stride, (0, 0))

            def backward(grad):
                grad_cols = np.zeros_like(part_cols_data)
                grad_flat = grad.reshape(batch * channels, out_h, out_w).transpose(1, 2, 0).reshape(-1)
                grad_cols[max_idx, np.arange(part_cols_data.shape[1])] = grad_flat
                grad_input = col2im_fn(grad_cols, (batch * channels, 1, height, width), kernel, stride, (0, 0))
                return (grad_input.reshape(batch, channels, height, width),)

            selected = part_cols_data[max_idx, np.arange(part_cols_data.shape[1])]
            out_data = selected.reshape(out_h, out_w, batch * channels).transpose(2, 0, 1)
            out_data = out_data.reshape(batch, channels, out_h, out_w)
            return Tensor._make(out_data, (part,), backward)

        return ComplexTensor(gather(inputs.real), gather(inputs.imag))


class ComplexGlobalAvgPool2d(Module):
    """Global average pooling of both parts."""

    def forward(self, inputs: ComplexTensor) -> ComplexTensor:
        return ComplexTensor(inputs.real.mean(axis=(2, 3)), inputs.imag.mean(axis=(2, 3)))


class ComplexDropout(Module):
    """Dropout that zeroes the same positions in both parts.

    Dropping real and imaginary parts together keeps dropped units physically
    meaningful (an extinguished light signal has neither amplitude nor phase).
    """

    def __init__(self, rate: float = 0.5, rng: Optional[np.random.Generator] = None):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = float(rate)
        self._rng = default_rng(rng)

    def forward(self, inputs: ComplexTensor) -> ComplexTensor:
        if not self.training or self.rate <= 0.0:
            return inputs
        mask = (self._rng.random(inputs.shape) >= self.rate) / (1.0 - self.rate)
        mask_tensor = Tensor(mask.astype(inputs.real.dtype))
        return ComplexTensor(inputs.real * mask_tensor, inputs.imag * mask_tensor)
