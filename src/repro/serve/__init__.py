"""Serving subsystem: micro-batched inference on compiled programs.

Bottom up:

* :class:`~repro.serve.cache.ProgramCache` -- LRU cache of compiled programs
  keyed by ``(model_key, HardwareTarget, CompileOptions)``, so repeated
  deploys never recompile.
* :class:`~repro.serve.batcher.DynamicBatcher` -- coalesces concurrent
  ``classify`` / ``logits`` requests into one batched forward pass under a
  max-batch / max-latency flush policy.
* :class:`~repro.serve.shard.ShardedInferenceService` -- the serving
  frontend: per-model worker pools (:mod:`repro.serve.worker`) fed through
  shared-memory slab rings (:mod:`repro.serve.shm`), with admission control,
  backpressure and least-outstanding replica routing.
* :class:`~repro.serve.drift.DriftInjector` /
  :class:`~repro.serve.recalibrate.RecalibrationManager` -- chaos-mode drift
  injection on scenario-deployed lanes, and the online loop that detects
  degradation from logit statistics and heals it through a drain-then-swap
  redeploy with requests flowing throughout.

In-process serving is the first two alone: ``DynamicBatcher(program,
scheme)`` over a program from ``repro.compile`` or
``ProgramCache.get_or_compile``.

``python -m repro serve`` runs the serving throughput demos on top of these
(``--workers`` switches to the sharded service, ``--recalibrate`` the
drift-and-heal demo); their measurement harnesses live in
:mod:`repro.experiments.serving`.
"""

from repro.serve.batcher import BatcherStats, DynamicBatcher
from repro.serve.cache import CacheStats, ProgramCache, cache_key
from repro.serve.drift import DriftInjector
from repro.serve.recalibrate import RecalibrationManager
from repro.serve.shard import (
    ServiceOverloadedError,
    ShardedInferenceService,
    WorkerError,
    WorkerTimeoutError,
)
from repro.serve.shm import SharedSlab, SlabRing, segment_exists
from repro.serve.worker import WorkerSpec

__all__ = [
    "BatcherStats",
    "CacheStats",
    "DriftInjector",
    "DynamicBatcher",
    "ProgramCache",
    "RecalibrationManager",
    "ServiceOverloadedError",
    "ShardedInferenceService",
    "SharedSlab",
    "SlabRing",
    "WorkerError",
    "WorkerSpec",
    "WorkerTimeoutError",
    "cache_key",
    "segment_exists",
]
