"""Micro-benchmark: vectorized mesh decomposition vs the scalar nulling loops.

Measures per-unitary decomposition throughput of the wavefront-vectorized
Reck and the array-level Clements paths against the seed scalar references
(full embedded matrix products per nulled element), and records the results
to ``benchmarks/latest/decompose.json``.  Deployment itself -- not just
propagation -- is now the quantity being accelerated: deploying a stack of
conv im2col matrices decomposes many same-size unitaries back to back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.experiments.reporting import save_json, time_interleaved
from repro.photonics import (
    clements_decompose,
    clements_decompose_reference,
    random_unitary,
    reck_decompose,
    reck_decompose_reference,
)


@dataclass
class DecomposeBenchRow:
    dimension: int
    method: str
    reference_seconds: float
    reference_p50_seconds: float
    vectorized_seconds: float
    vectorized_p50_seconds: float
    speedup: float
    max_phase_deviation: float


_rows: list = []


@pytest.mark.parametrize("dimension,method", [(32, "reck"), (64, "reck"),
                                              (32, "clements"), (64, "clements")])
def test_decompose_speedup(benchmark, dimension, method, results_dir):
    rng = np.random.default_rng(0)
    unitary = random_unitary(dimension, rng)
    fast = reck_decompose if method == "reck" else clements_decompose
    reference = (reck_decompose_reference if method == "reck"
                 else clements_decompose_reference)

    # the untimed first round warms the per-dimension schedule caches
    vectorized, scalar = time_interleaved(lambda: fast(unitary),
                                          lambda: reference(unitary), rounds=3)

    mesh = benchmark(fast, unitary)
    spec = reference(unitary)
    deviation = float(max(np.abs(mesh.thetas - spec.thetas).max(),
                          np.abs(mesh.phis - spec.phis).max(),
                          np.abs(mesh.output_phases - spec.output_phases).max()))
    assert np.array_equal(mesh.modes, spec.modes)
    assert deviation < 1e-10

    speedup = scalar.min_s / vectorized.min_s
    if dimension >= 64:
        # measured ~18x (reck) / ~9x (clements) at dimension 64; pin a
        # regression floor below the noise band of shared CI runners
        assert speedup >= 3.0

    _rows.append(DecomposeBenchRow(
        dimension=dimension, method=method,
        reference_seconds=scalar.min_s, reference_p50_seconds=scalar.p50_s,
        vectorized_seconds=vectorized.min_s, vectorized_p50_seconds=vectorized.p50_s,
        speedup=speedup, max_phase_deviation=deviation,
    ))
    save_json(_rows, results_dir / "decompose.json")
