"""Complex-valued fully connected layer."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import reference
from repro.nn.complex.ctensor import ComplexTensor
from repro.nn.complex.expansion import complex_matrix_to_real
from repro.nn.module import Module, Parameter
from repro.tensor.random import complex_init, default_rng


class ComplexLinear(Module):
    """Affine layer with complex weights acting on :class:`ComplexTensor` inputs.

    Mathematically the layer computes the split complex-to-real formulation
    of Eq. (2):

    ``y_re = x_re W_re^T - x_im W_im^T + b_re``
    ``y_im = x_re W_im^T + x_im W_re^T + b_im``

    so a trained layer can be mapped to an MZI mesh either as one complex
    matrix or as its real expansion.  The forward pass routes through the
    fused Karatsuba kernel
    :func:`~repro.nn.complex.cfunctional.complex_linear` (three matmuls
    forward, six backward instead of 4 + 8); :meth:`forward_reference` keeps
    the literal 4-real-product expansion above as an executable
    specification, gradcheck-parity-pinned to 1e-8 in the test-suite, and
    :meth:`forward` runs it under ``REPRO_FORCE_REFERENCE=1``.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("ComplexLinear features must be positive")
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        rng = default_rng(rng)
        weight_real, weight_imag = complex_init((out_features, in_features), rng=rng)
        self.weight_real = Parameter(weight_real)
        self.weight_imag = Parameter(weight_imag)
        if bias:
            self.bias_real = Parameter(np.zeros(out_features))
            self.bias_imag = Parameter(np.zeros(out_features))
        else:
            self.bias_real = None
            self.bias_imag = None

    def forward(self, inputs: ComplexTensor) -> ComplexTensor:
        from repro.nn.complex import cfunctional

        if reference.enabled():
            return self.forward_reference(inputs)
        return cfunctional.complex_linear(
            inputs, self.weight_real, self.weight_imag,
            self.bias_real, self.bias_imag)

    def forward_reference(self, inputs: ComplexTensor) -> ComplexTensor:
        """The seed 4-real-product path (executable specification)."""
        from repro.nn.complex import cfunctional

        return cfunctional.complex_linear_reference(
            inputs, self.weight_real, self.weight_imag,
            self.bias_real, self.bias_imag)

    def complex_weight(self) -> np.ndarray:
        """Return the weight as a numpy complex matrix (for photonic deployment)."""
        return self.weight_real.data + 1j * self.weight_imag.data

    def real_expanded_weight(self) -> np.ndarray:
        """Return the Eq. (2) real expansion of the complex weight."""
        return complex_matrix_to_real(self.complex_weight())

    def __repr__(self) -> str:
        return (f"ComplexLinear(in={self.in_features}, out={self.out_features}, "
                f"bias={self.bias_real is not None})")
