"""Benchmarks of the multi-process sharded inference service.

Records batched request throughput of :class:`ShardedInferenceService` at
worker counts {1, 2, 4} over identical synthetic traffic to
``benchmarks/latest/serve_shard.json``.  Two properties are pinned:

* **Parity** -- every sharded request's logits are compared against the
  ``forward_reference`` oracle of the same model compiled in-process
  (<= 1e-10, asserted unconditionally).
* **Scaling** -- request throughput at 2 workers must clear a conservative
  1.6x CI floor over 1 worker.  The floor assertion needs real parallelism,
  so it auto-skips (with the reason logged into the JSON) when fewer than
  two CPUs are available to this process; the throughput sweep itself still
  runs and records honest numbers.

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

from repro.experiments.reporting import save_json
from repro.models import ComplexFCNN
from repro.experiments.serving import run_shard_benchmark

PARITY = 1e-10
SCALING_FLOOR = 1.6          # CI floor at 2 workers vs 1 (measured ~1.9x)
WORKER_COUNTS = (1, 2, 4)
IMAGE_SHAPE = (1, 16, 16)    # SI assignment -> 128 complex features


def bench_preset_name() -> str:
    return os.environ.get("REPRO_BENCH_PRESET", "bench")


def effective_cpus() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _bench_model(smoke: bool) -> ComplexFCNN:
    # wide enough that one 32-sample flush is a multi-millisecond,
    # compute-bound forward -- the regime process sharding targets
    widths = (96, 96) if smoke else (160, 160)
    return ComplexFCNN(128, widths, 10, decoder="merge",
                       rng=np.random.default_rng(0))


_results: dict = {}


def _leaked_segments() -> list:
    """repro-shard segments owned by this process still present in /dev/shm."""
    if not os.path.isdir("/dev/shm"):  # pragma: no cover -- non-Linux
        return []
    return glob.glob(f"/dev/shm/repro-shard-{os.getpid()}-*")


def test_shard_throughput_sweep(results_dir):
    smoke = bench_preset_name() == "smoke"
    cpus = effective_cpus()
    rows = run_shard_benchmark(
        _bench_model(smoke), "SI", IMAGE_SHAPE, worker_counts=WORKER_COUNTS,
        requests=48 if smoke else 96, clients=8, images_per_request=4,
        max_batch=32, max_latency_s=0.002, seed=0)
    for row in rows:
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
        "rows": [asdict(row) for row in rows],
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
    assert rows[2]["gain_vs_single"] >= SCALING_FLOOR
    # four workers must not serve worse than two (allow scheduler noise)
    if cpus >= 4:
        assert rows[4]["requests_per_s"] >= 0.9 * rows[2]["requests_per_s"]
