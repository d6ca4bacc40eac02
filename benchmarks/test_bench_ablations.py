"""Benchmarks of the design ablations in :mod:`repro.experiments.ablations`.

Covers: the distillation mixing factor, Reck vs Clements meshes, phase-noise
robustness of the deployed split vs conventional ONN, encoder throughput and
the pruning baseline [18].
"""

from __future__ import annotations

import pytest

from repro.experiments.ablations import (
    format_alpha_sweep,
    format_mesh_comparison,
    format_noise_robustness,
    format_pruning,
    run_alpha_sweep,
    run_encoder_throughput,
    run_mesh_comparison,
    run_noise_robustness,
    run_pruning_comparison,
)
from repro.experiments.reporting import save_json


def test_alpha_sweep(run_once, preset_name, results_dir):
    points = run_once(run_alpha_sweep, preset=preset_name, alphas=(0.0, 0.5, 1.0, 2.0))

    assert len(points) == 4
    assert all(0.0 <= p.student_accuracy <= 1.0 for p in points)

    save_json(points, results_dir / "ablation_alpha.json")
    print()
    print(format_alpha_sweep(points))


def test_mesh_comparison(run_once, results_dir):
    rows = run_once(run_mesh_comparison, dimensions=(4, 8, 16, 32))

    assert all(row.reconstruction_error < 1e-8 for row in rows)
    by_key = {(row.dimension, row.method): row for row in rows}
    for dimension in (8, 16, 32):
        assert (by_key[(dimension, "clements")].optical_depth
                <= by_key[(dimension, "reck")].optical_depth)

    save_json(rows, results_dir / "ablation_mesh.json")
    print()
    print(format_mesh_comparison(rows))


def test_noise_robustness(run_once, preset_name, results_dir):
    points = run_once(run_noise_robustness, preset=preset_name,
                      sigmas=(0.0, 0.01, 0.03, 0.1), eval_samples=96)

    assert len(points) == 4
    clean = points[0]
    noisiest = points[-1]
    # accuracy cannot improve under heavy phase noise
    assert noisiest.split_onn_accuracy <= clean.split_onn_accuracy + 0.05
    assert noisiest.conventional_onn_accuracy <= clean.conventional_onn_accuracy + 0.05

    save_json(points, results_dir / "ablation_noise.json")
    print()
    print(format_noise_robustness(points))


def test_encoder_throughput(run_once, results_dir):
    rows = run_once(run_encoder_throughput, sample_counts=(1_000, 1_000_000))

    dc_rows = [row for row in rows if row.encoder == "dc"]
    ps_rows = [row for row in rows if row.encoder == "ps"]
    assert all(dc.latency_seconds < ps.latency_seconds for dc, ps in zip(dc_rows, ps_rows))

    save_json(rows, results_dir / "ablation_encoder.json")


def test_pruning_comparison(run_once, preset_name, results_dir):
    rows = run_once(run_pruning_comparison, preset=preset_name, sparsities=(0.5, 0.75, 0.9))

    labels = [row.configuration for row in rows]
    assert any("OplixNet" in label for label in labels)
    pruned_075 = [row for row in rows if "0.75" in row.configuration][0]
    assert pruned_075.mzi_fraction == pytest.approx(0.25, abs=0.01)

    save_json(rows, results_dir / "ablation_pruning.json")
    print()
    print(format_pruning(rows))
