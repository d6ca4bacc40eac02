"""Complex-valued 2-D convolution layer."""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro import reference
from repro.nn.complex.ctensor import ComplexTensor
from repro.nn.module import Module, Parameter
from repro.tensor.random import complex_init, default_rng

IntPair = Union[int, Tuple[int, int]]


class ComplexConv2d(Module):
    """Complex convolution on split real/imaginary tensors.

    Mathematically, for input ``x = x_re + j x_im`` and kernel
    ``w = w_re + j w_im``:

    ``y_re = conv(x_re, w_re) - conv(x_im, w_im)``
    ``y_im = conv(x_re, w_im) + conv(x_im, w_re)``

    The forward pass routes through the fused kernel
    :func:`~repro.nn.complex.cfunctional.complex_conv2d`: one im2col over
    the stacked real/imaginary planes (instead of four real convolutions
    each extracting their own columns) and the Eq. (2) real block product
    ``[[Wr, -Wi], [Wi, Wr]]`` as a single wide matmul per direction.
    :meth:`forward_reference` keeps the literal
    4-real-convolution formulation above as an executable specification,
    and the two are gradcheck-parity-pinned to 1e-8 in the test-suite;
    :meth:`forward` runs the reference under ``REPRO_FORCE_REFERENCE=1``.

    The channel counts refer to *complex* channels; with OplixNet's
    channel-lossless assignment, a CNN with ``C`` real channels becomes a
    complex CNN with ``ceil(C / 2)`` complex channels, halving the size of the
    convolution kernels deployed on the MZI meshes.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: IntPair,
                 stride: IntPair = 1, padding: IntPair = 0, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("ComplexConv2d channel counts must be positive")
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = kernel_size if isinstance(kernel_size, tuple) else (kernel_size, kernel_size)
        self.stride = stride if isinstance(stride, tuple) else (stride, stride)
        self.padding = padding if isinstance(padding, tuple) else (padding, padding)
        rng = default_rng(rng)
        weight_shape = (self.out_channels, self.in_channels, *self.kernel_size)
        weight_real, weight_imag = complex_init(weight_shape, rng=rng)
        self.weight_real = Parameter(weight_real)
        self.weight_imag = Parameter(weight_imag)
        if bias:
            self.bias_real = Parameter(np.zeros(self.out_channels))
            self.bias_imag = Parameter(np.zeros(self.out_channels))
        else:
            self.bias_real = None
            self.bias_imag = None

    def forward(self, inputs: ComplexTensor) -> ComplexTensor:
        from repro.nn.complex import cfunctional

        if reference.enabled():
            return self.forward_reference(inputs)
        return cfunctional.complex_conv2d(
            inputs, self.weight_real, self.weight_imag,
            self.bias_real, self.bias_imag,
            stride=self.stride, padding=self.padding)

    def forward_reference(self, inputs: ComplexTensor) -> ComplexTensor:
        """The seed 4-real-convolution path (executable specification)."""
        from repro.nn.complex import cfunctional

        return cfunctional.complex_conv2d_reference(
            inputs, self.weight_real, self.weight_imag,
            self.bias_real, self.bias_imag,
            stride=self.stride, padding=self.padding)

    def complex_weight(self) -> np.ndarray:
        """Return the kernel as a numpy complex array."""
        return self.weight_real.data + 1j * self.weight_imag.data

    def weight_matrix(self) -> np.ndarray:
        """The im2col-lowered kernel matrix ``(out_channels, in_channels * kh * kw)``.

        This is the matrix actually deployed on MZI meshes: streaming image
        patches (in ``(channel, kh, kw)`` feature order, the layout of
        :func:`repro.core.lowering.complex_im2col`) through it reproduces the
        convolution exactly, and its shape is what the paper's area model
        counts for convolution layers.
        """
        return self.complex_weight().reshape(self.out_channels, -1)

    def __repr__(self) -> str:
        return (f"ComplexConv2d(in={self.in_channels}, out={self.out_channels}, "
                f"kernel={self.kernel_size}, stride={self.stride}, padding={self.padding})")
