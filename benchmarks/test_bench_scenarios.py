"""Benchmark of the hardware-realism scenario suite and the serving-layer
drift-detect-recalibrate loop.

Records to ``benchmarks/latest/scenarios.json``:

* **Degradation trajectories** -- prediction agreement vs the clean program
  as a function of scenario time for each registered scenario, evaluated as
  one batched ensemble per scenario (the time axis rides the engine's trial
  machinery, so a whole curve costs a single forward pass).
* **The recalibration loop** -- end to end against a live
  :class:`ShardedInferenceService` in chaos mode: injected thermal drift
  measurably degrades accuracy, the :class:`RecalibrationManager` detects it
  from logit statistics alone and heals the lane by drain-then-swap
  redeploy.  The acceptance properties are asserted, not just recorded:
  accuracy is restored to within 1% of clean and zero requests failed while
  the swap was in flight.
"""

from __future__ import annotations

import numpy as np

from bench_preset import bench_preset_name
from repro.experiments.reporting import save_json
from repro.experiments.scenarios import (
    run_drift_recalibration,
    scenario_time_sweep,
)
from repro.models import ComplexFCNN

IMAGE_SHAPE = (1, 4, 4)
RECOVERY_TOLERANCE = 0.01    # recalibrated accuracy within 1% of clean

_results: dict = {}


def _bench_model() -> ComplexFCNN:
    return ComplexFCNN(8, (6,), 3, decoder="merge",
                       rng=np.random.default_rng(0))


def test_degradation_trajectories(results_dir):
    smoke = bench_preset_name() == "smoke"
    images = np.random.default_rng(2).normal(
        size=(32 if smoke else 96, *IMAGE_SHAPE))
    times = [0.0, 10.0, 30.0, 60.0, 120.0]
    trials = 4 if smoke else 16
    sweeps = {}
    for name, params in (
            ("thermal_drift", {"sigma": 0.4, "tau_s": 30.0}),
            ("crosstalk", {"sigma": 0.1, "coupling": 0.3}),
            ("fabrication", {"sigma": 0.05})):
        sweeps[name] = scenario_time_sweep(
            _bench_model(), "SI", images, {"name": name, "params": params},
            times=times, trials=trials)
    # a drift walk starts clean and loses agreement as the clock advances
    drift = {row["time_s"]: row["agreement"] for row in sweeps["thermal_drift"]}
    assert drift[0.0] == 1.0
    assert drift[120.0] < 1.0
    # fabrication error is frozen: the whole curve is one constant
    fabrication = [row["agreement"] for row in sweeps["fabrication"]]
    assert len(set(fabrication)) == 1
    _results["trajectories"] = sweeps


def test_drift_recalibration_loop(results_dir):
    smoke = bench_preset_name() == "smoke"
    images = np.random.default_rng(3).normal(
        size=(24 if smoke else 48, *IMAGE_SHAPE))
    summary = run_drift_recalibration(
        _bench_model(), "SI", IMAGE_SHAPE, images, sigma=0.5, tau_s=30.0,
        drift_s=120.0, workers=2, threshold=0.15, min_batches=2,
        observe_batches=4, seed=0)
    # the acceptance properties of the recalibration loop
    assert summary["degraded_accuracy"] < summary["clean_accuracy"] - 0.05
    assert summary["detected"] and summary["recalibrations"] == 1
    assert summary["recalibrated_accuracy"] >= \
        summary["clean_accuracy"] - RECOVERY_TOLERANCE
    assert summary["traffic"]["failed"] == 0

    _results["recalibration"] = summary
    _results["preset"] = bench_preset_name()
    _results["recovery_tolerance"] = RECOVERY_TOLERANCE
    save_json(_results, results_dir / "scenarios.json")
