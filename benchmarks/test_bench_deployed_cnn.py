"""Benchmark of the deployed-CNN harness: im2col lowering onto MZI meshes.

Trains the SCVNN LeNet-5 student at the session preset, lowers it onto
simulated meshes through the lowering pipeline and records fidelity plus the
batched phase-noise sweep to ``benchmarks/latest/deployed_cnn.json``.
"""

from __future__ import annotations

from repro.experiments.deployed import format_deployed_cnn, run_deployed_cnn
from repro.experiments.reporting import save_json


def test_deployed_cnn(run_once, preset_name, results_dir):
    rows = run_once(run_deployed_cnn, preset=preset_name,
                    sigmas=(0.0, 0.01, 0.03), trials=8, eval_samples=48)

    assert len(rows) == 3
    # acceptance bar of the lowering pipeline: the noiseless deployed CNN
    # matches the software forward to <= 1e-8 on real test batches
    assert rows[0].max_logit_error <= 1e-8
    assert rows[0].deployed_accuracy == rows[0].software_accuracy
    assert all(0.0 <= row.noisy_accuracy <= 1.0 for row in rows)

    save_json(rows, results_dir / "deployed_cnn.json")
    print()
    print(format_deployed_cnn(rows))
