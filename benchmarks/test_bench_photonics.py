"""Micro-benchmarks of the photonic substrate (Eq. 1 / Fig. 1 / Fig. 3 machinery).

These measure the cost of the operations the experiment harnesses rely on --
mesh decomposition, SVD weight mapping, optical propagation and full model
deployment -- and assert their correctness invariants (unitarity, closed-form
MZI counts, deployment fidelity).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.assignment import get_scheme
from repro.core.training import prepare_batch
from repro.models import ComplexFCNN
from repro.photonics import (
    clements_decompose,
    mzi_count_matrix,
    mzi_count_unitary,
    random_unitary,
    reck_decompose,
    svd_decompose,
)
from repro.tensor import no_grad


@pytest.mark.parametrize("dimension", [16, 32, 48])
@pytest.mark.parametrize("method", ["reck", "clements"])
def test_mesh_decomposition(benchmark, dimension, method):
    """Decompose a Haar-random unitary into a physical MZI mesh."""
    rng = np.random.default_rng(0)
    unitary = random_unitary(dimension, rng)
    decompose = reck_decompose if method == "reck" else clements_decompose

    mesh = benchmark(decompose, unitary)

    assert mesh.mzi_count == mzi_count_unitary(dimension)
    assert np.abs(mesh.reconstruct() - unitary).max() < 1e-8


@pytest.mark.parametrize("shape", [(32, 64), (64, 64)])
def test_svd_weight_mapping(benchmark, shape):
    """Map a random weight matrix onto two meshes plus attenuators."""
    rng = np.random.default_rng(0)
    weight = rng.normal(size=shape)

    photonic = benchmark(svd_decompose, weight)

    assert photonic.device_count == mzi_count_matrix(*shape)
    assert np.abs(photonic.matrix() - weight).max() < 1e-8


def test_optical_batch_propagation(benchmark):
    """Propagate a batch of complex amplitudes through a 64-mode mesh."""
    rng = np.random.default_rng(0)
    mesh = clements_decompose(random_unitary(64, rng))
    batch = rng.normal(size=(128, 64)) + 1j * rng.normal(size=(128, 64))

    outputs = benchmark(mesh.apply, batch)

    assert np.allclose(np.sum(np.abs(outputs) ** 2, axis=1),
                       np.sum(np.abs(batch) ** 2, axis=1))


def test_fcnn_deployment_fidelity(benchmark):
    """Deploy a split FCNN onto meshes and check software/hardware agreement."""
    rng = np.random.default_rng(0)
    scheme = get_scheme("SI")
    model = ComplexFCNN(98, (50,), 10, decoder="merge", rng=rng)
    images = rng.normal(size=(16, 1, 14, 14))

    deployed = benchmark(repro.compile, model)

    with no_grad():
        expected = model(prepare_batch(images, scheme)).data
    assert np.allclose(deployed.predict_logits(images, scheme), expected, atol=1e-6)
