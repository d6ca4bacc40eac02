"""Serving subsystem: micro-batched inference on compiled programs.

Bottom up:

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

In-process serving is the batcher alone: ``DynamicBatcher(program,
scheme)`` over a program from ``repro.compile``; the program keeps its own
plan and effective matrices, and ``repro.compile(model,
store=ArtifactStore(path))`` turns a fresh process's compile into a
content-addressed disk lookup.

``python -m repro serve`` runs the serving throughput demos on top of these
(``--workers`` switches to the sharded service, ``--recalibrate`` the
drift-and-heal demo); their measurement harnesses live in
:mod:`repro.experiments.serving`.
"""

from repro import lazy_exports

# name -> submodule; lazy, so a spawned worker imports its module before numpy
_EXPORTS = {
    **dict.fromkeys(("BatcherStats", "DynamicBatcher"), "batcher"),
    "DriftInjector": "drift", "RecalibrationManager": "recalibrate",
    **dict.fromkeys(("ServiceOverloadedError", "ShardedInferenceService",
                     "WorkerError", "WorkerTimeoutError"), "shard"),
    **dict.fromkeys(("SharedSlab", "SlabRing", "segment_exists"), "shm"),
    "WorkerSpec": "worker",
}
__all__ = sorted(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
