"""Photonic circuit layers assembled from deployed weight matrices.

:class:`PhotonicLinearLayer` wraps one weight matrix deployed via SVD onto two
MZI meshes, with optional phase noise / phase quantization injection to study
robustness.  Whole networks are compiled graphs
(:func:`repro.compile`), whose CReLU nodes apply :func:`split_relu`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.photonics.mzi_mesh import MeshDecomposition
from repro.photonics.noise import PhaseNoiseModel, quantize_phases
from repro.photonics.svd_mapping import PhotonicMatrix, svd_decompose


@dataclass
class PhotonicLinearLayer:
    """One weight matrix deployed on photonic hardware plus an optional bias.

    The bias is applied electronically after detection (photonic MVM engines
    add biases in the electrical domain).
    """

    photonic_matrix: PhotonicMatrix
    bias: Optional[np.ndarray] = None
    name: str = "layer"

    @classmethod
    def from_weight(cls, weight: np.ndarray, bias: Optional[np.ndarray] = None,
                    method: str = "clements",
                    name: str = "layer") -> "PhotonicLinearLayer":
        """Deploy a (complex or real) weight matrix onto two MZI meshes via SVD."""
        matrix = svd_decompose(weight, method=method)
        return cls(photonic_matrix=matrix, bias=bias, name=name)

    @property
    def mzi_count(self) -> int:
        return self.photonic_matrix.device_count

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Propagate complex amplitudes through the deployed matrix.

        Batch-first: ``inputs`` is ``(in_features,)`` or
        ``(batch, in_features)``; trials-batched (noise-ensemble) meshes
        prepend their trials axes to the result, composing with the batch
        axis, and the electronic bias broadcasts over all leading axes.
        """
        outputs = self.photonic_matrix.apply(inputs)
        if self.bias is not None:
            outputs = outputs + self.bias
        return outputs

    __call__ = forward

    def with_noise(self, noise: Optional[PhaseNoiseModel] = None,
                   quantization_bits: Optional[int] = None,
                   trials: Optional[int] = None) -> "PhotonicLinearLayer":
        """Return a copy whose meshes carry phase noise and/or quantization.

        ``trials`` draws that many independent noise realizations at once;
        the returned layer propagates the whole ensemble in one vectorized
        pass and its outputs gain a leading trials axis.
        """
        if trials is not None and noise is None:
            raise ValueError("trials requires a PhaseNoiseModel")

        def degrade(mesh: MeshDecomposition) -> MeshDecomposition:
            degraded = mesh
            if quantization_bits is not None:
                degraded = quantize_phases(degraded, quantization_bits)
            if noise is not None:
                degraded = noise.perturb(degraded, trials=trials)
            return degraded

        matrix = self.photonic_matrix
        degraded_matrix = PhotonicMatrix(
            rows=matrix.rows, cols=matrix.cols,
            left_mesh=degrade(matrix.left_mesh),
            right_mesh=degrade(matrix.right_mesh),
            singular_values=matrix.singular_values.copy(),
            scale=matrix.scale,
        )
        bias = None if self.bias is None else np.array(self.bias, copy=True)
        return PhotonicLinearLayer(photonic_matrix=degraded_matrix, bias=bias, name=self.name)


def split_relu(signal: np.ndarray) -> np.ndarray:
    """CReLU on complex amplitudes: clamp real and imaginary parts at zero."""
    signal = np.asarray(signal, dtype=complex)
    return np.maximum(signal.real, 0.0) + 1j * np.maximum(signal.imag, 0.0)


def modulus_squared(signal: np.ndarray) -> np.ndarray:
    """Photodiode power readout used as a real nonlinearity."""
    return np.abs(np.asarray(signal, dtype=complex)) ** 2
