"""Benchmarks of the multi-process sharded inference service.

Records batched request throughput of :class:`ShardedInferenceService` at
worker counts {1, 2, 4} over identical synthetic traffic to
``benchmarks/latest/serve_shard.json``.  Two properties are pinned:

* **Parity** -- every sharded request's logits are compared against the
  ``forward_reference`` oracle of the same model compiled in-process
  (<= 1e-10, asserted unconditionally).
* **Scaling** -- request throughput at 2 workers must clear a conservative
  1.6x CI floor over 1 worker.  The gain is the median over three
  alternating 1-worker/2-worker waves of four times the sweep's requests,
  so one slow wave cannot fail it.  The floor assertion needs real
  parallelism, so it auto-skips (with the reason logged into the JSON) when
  fewer than two CPUs are available to this process; the throughput sweep
  itself still runs and records honest numbers.

The sweep and the floor deploy one seeded noisy chip
(``HardwareTarget(noise=PhaseNoiseModel.seeded(0.01, seed=3), trials=1)``):
its meshes are trials-batched, so every stage simulates them on the numpy
column program and a flush is a multi-millisecond, compute-bound forward --
the regime process sharding targets.  The in-process oracle compiles the
same target, so its logits keep the same leading trials axis.  On the
default noiseless compile every stage fuses into one matmul and a flush
costs well under a millisecond; the sweep records that 1/2-worker row pair
too (``fused_rows``), parity-pinned but with no throughput assertion yet.
Since each worker runs an explicit BLAS thread count (the host's cores
split across the lane's replicas), 2 workers beat 1 there as well: two
runs on a 2-vCPU host at default threads read 4011 -> 6632 and
3952 -> 7388 req/s, where inherited threads had read 4739 -> 274.  A floor
waits for more runs.

A final hygiene check asserts no ``repro-shard-*`` shared-memory segment
created by this process survives service shutdown, so CI machines never
accumulate ``/dev/shm`` leaks across runs.
"""

from __future__ import annotations

import glob
import os
from dataclasses import asdict

import numpy as np
import pytest

from bench_preset import bench_preset_name
from repro.core.compile import HardwareTarget
from repro.experiments.reporting import save_json
from repro.experiments.serving import run_shard_benchmark
from repro.models import ComplexFCNN
from repro.photonics.noise import PhaseNoiseModel

PARITY = 1e-10
SCALING_FLOOR = 1.6          # CI floor at 2 workers vs 1 (measured ~1.9x)
WORKER_COUNTS = (1, 2, 4)
SCALING_WAVES = 3            # alternating 1-worker / 2-worker waves
IMAGE_SHAPE = (1, 16, 16)    # SI assignment -> 128 complex features
NOISE_SIGMA, NOISE_SEED = 0.01, 3   # one seeded noisy chip, one trial


def noise_lane() -> HardwareTarget:
    """The seeded noisy target: trials-batched meshes, simulated per request."""
    return HardwareTarget(noise=PhaseNoiseModel.seeded(NOISE_SIGMA, seed=NOISE_SEED),
                          trials=1)


def effective_cpus() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _bench_model(smoke: bool) -> ComplexFCNN:
    # wide enough that one 32-sample flush on the column program is a
    # multi-millisecond, compute-bound forward
    widths = (96, 96) if smoke else (160, 160)
    return ComplexFCNN(128, widths, 10, decoder="merge",
                       rng=np.random.default_rng(0))


_results: dict = {}


def _leaked_segments() -> list:
    """repro-shard segments owned by this process still present in /dev/shm."""
    if not os.path.isdir("/dev/shm"):  # pragma: no cover -- non-Linux
        return []
    return glob.glob(f"/dev/shm/repro-shard-{os.getpid()}-*")


def _sweep_requests() -> int:
    return 48 if bench_preset_name() == "smoke" else 96


def _run_waves(worker_counts, requests, noisy=True):
    return run_shard_benchmark(
        _bench_model(bench_preset_name() == "smoke"), "SI", IMAGE_SHAPE,
        worker_counts=worker_counts, requests=requests, clients=8,
        images_per_request=4, max_batch=32, max_latency_s=0.002, seed=0,
        target=noise_lane() if noisy else None)


def test_shard_throughput_sweep(results_dir):
    cpus = effective_cpus()
    rows = _run_waves(WORKER_COUNTS, _sweep_requests())
    # the default fused compile: recorded, parity-pinned, not asserted on
    fused_rows = _run_waves((1, 2), _sweep_requests(), noisy=False)
    for row in rows + fused_rows:
        assert row.max_parity <= PARITY, (row.workers, row.max_parity)
    floor_checked = cpus >= 2
    _results.update({
        "cpus": cpus,
        "preset": bench_preset_name(),
        "scaling_floor": SCALING_FLOOR,
        "scaling_floor_checked": floor_checked,
        "skip_reason": None if floor_checked else (
            f"only {cpus} CPU(s) available: worker processes time-slice one "
            f"core, so the {SCALING_FLOOR}x floor at 2 workers is not asserted"),
        "target": {"noise_sigma": NOISE_SIGMA, "noise_seed": NOISE_SEED,
                   "trials": 1},
        "rows": [asdict(row) for row in rows],
        "fused_rows": [asdict(row) for row in fused_rows],
    })
    save_json(_results, results_dir / "serve_shard.json")
    # shutdown hygiene: every slab ring the sweep created must be unlinked
    assert _leaked_segments() == []


def test_scaling_floor_at_two_workers(results_dir):
    cpus = effective_cpus()
    if cpus < 2:
        pytest.skip(f"sharded scaling floor needs >= 2 CPUs, found {cpus}; "
                    "the throughput sweep recorded serve_shard.json without "
                    "asserting the floor")
    rows = {row["workers"]: row for row in _results["rows"]}
    assert rows, "sweep must run first"
    # a ~0.15-s sweep wave is too short for a steady gain: take the median
    # of longer alternating 1-worker / 2-worker waves instead
    gains = [_run_waves((1, 2), 4 * _sweep_requests())[1].gain_vs_single
             for _wave in range(SCALING_WAVES)]
    gain = float(np.median(gains))
    _results.update(scaling_gains=gains, scaling_gain_median=gain)
    save_json(_results, results_dir / "serve_shard.json")
    assert gain >= SCALING_FLOOR, gains
    # four workers must not serve worse than two (allow scheduler noise)
    if cpus >= 4:
        assert rows[4]["requests_per_s"] >= 0.9 * rows[2]["requests_per_s"]
