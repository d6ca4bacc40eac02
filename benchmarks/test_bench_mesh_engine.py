"""Micro-benchmark: compiled mesh engine vs the per-MZI Python walk.

Measures per-mesh apply throughput of the three propagation strategies --
the historical per-MZI reference walk, the vectorized column program and the
cached dense transfer matrix -- on Haar-random unitaries, and records the
results (including the speedup over the reference walk) to
``benchmarks/latest/mesh_engine.json``.

The acceptance bar of the engine refactor is a >= 10x wall-clock win over the
seed per-MZI loop at dimension >= 64; the assertions below pin that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.experiments.reporting import save_json, time_interleaved
from repro.photonics import clements_decompose, random_unitary, reck_decompose
from repro.photonics import engine
from repro.photonics.engine import reference_apply


@dataclass
class MeshEngineBenchRow:
    dimension: int
    method: str
    batch: int
    optical_depth: int
    reference_seconds: float
    reference_p50_seconds: float
    column_seconds: float
    column_p50_seconds: float
    dense_seconds: float
    dense_p50_seconds: float
    column_speedup: float
    dense_speedup: float
    dense_applies_per_second: float


_rows: list = []


@pytest.mark.parametrize("dimension,method", [(16, "clements"), (64, "clements"), (64, "reck")])
def test_mesh_engine_speedup(benchmark, dimension, method, results_dir):
    rng = np.random.default_rng(0)
    decompose = clements_decompose if method == "clements" else reck_decompose
    mesh = decompose(random_unitary(dimension, rng))
    batch = 64
    states = rng.normal(size=(batch, dimension)) + 1j * rng.normal(size=(batch, dimension))
    program = mesh.compiled()

    # the untimed first round warms the dense transfer-matrix cache
    reference, column, dense = time_interleaved(
        lambda: reference_apply(mesh.modes, mesh.thetas, mesh.phis,
                                mesh.output_phases, states),
        lambda: engine.propagate(program, states, mesh.thetas, mesh.phis,
                                 mesh.output_phases),
        lambda: mesh.apply(states), rounds=5)

    outputs = benchmark(mesh.apply, states)
    expected = reference_apply(mesh.modes, mesh.thetas, mesh.phis,
                               mesh.output_phases, states)
    assert np.abs(outputs - expected).max() < 1e-10

    column_speedup = reference.min_s / column.min_s
    dense_speedup = reference.min_s / dense.min_s
    if dimension >= 64:
        # the acceptance bar: mesh.apply (the consumer-facing path, dense at
        # this dimension) beats the seed per-MZI loop by >= 10x -- measured
        # ~900x, so the assertion has a wide margin on shared CI runners.
        assert dense_speedup >= 10.0
        # the column program measures ~12x (clements) / ~10x (reck, whose
        # triangular columns pack only half full); pin a regression floor
        # below the noise band of shared runners rather than the raw 10x
        assert column_speedup >= 5.0

    _rows.append(MeshEngineBenchRow(
        dimension=dimension, method=method, batch=batch,
        optical_depth=program.depth,
        reference_seconds=reference.min_s, reference_p50_seconds=reference.p50_s,
        column_seconds=column.min_s, column_p50_seconds=column.p50_s,
        dense_seconds=dense.min_s, dense_p50_seconds=dense.p50_s,
        column_speedup=column_speedup, dense_speedup=dense_speedup,
        dense_applies_per_second=1.0 / dense.min_s,
    ))
    save_json(_rows, results_dir / "mesh_engine.json")


def test_trials_ensemble_throughput(benchmark, results_dir):
    """A 32-realization noise ensemble propagates in one vectorized pass."""
    from repro.photonics import PhaseNoiseModel

    rng = np.random.default_rng(0)
    dimension, trials, batch = 32, 32, 16
    mesh = clements_decompose(random_unitary(dimension, rng))
    batched = PhaseNoiseModel(sigma=0.05, rng=rng).perturb(mesh, trials=trials)
    states = rng.normal(size=(batch, dimension)) + 1j * rng.normal(size=(batch, dimension))

    ensemble = benchmark(batched.apply, states)

    assert ensemble.shape == (trials, batch, dimension)

    def sequential():
        for t in range(trials):
            single = mesh.with_phases(thetas=batched.thetas[t], phis=batched.phis[t],
                                      output_phases=batched.output_phases[t])
            reference_apply(single.modes, single.thetas, single.phis,
                            single.output_phases, states)

    vectorized, looped = time_interleaved(lambda: batched.apply(states), sequential,
                                          rounds=5)
    assert looped.min_s / vectorized.min_s >= 10.0
