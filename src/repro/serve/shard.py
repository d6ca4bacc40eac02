"""Multi-process sharded inference: worker pools, admission control, routing.

:class:`ShardedInferenceService` is the serving frontend.  It lifts
in-process serving (a compiled program behind a
:class:`~repro.serve.batcher.DynamicBatcher`) across process boundaries so
request throughput scales with cores instead of stopping at one
plan-executor thread per model:

* **Per-model worker pools.**  Each deployed model gets ``replicas``
  spawn-started worker processes (:mod:`repro.serve.worker`); every worker
  rebuilds the compiled program from a pickled :class:`WorkerSpec` and warms
  its own :class:`~repro.serve.cache.ProgramCache`, so no live program (or
  its plan buffers) ever crosses a pickle.
* **Shared-memory batch transport.**  Batches cross via a leased slab from a
  preallocated :class:`~repro.serve.shm.SlabRing` -- zero tensor pickling on
  the hot path; slabs are recycled after each flush and unlinked at
  shutdown.
* **Flush policy per worker.**  Each replica is fronted by its own
  :class:`~repro.serve.batcher.DynamicBatcher` whose "program" is a
  :class:`_WorkerProxy` -- the exact max-batch / max-latency coalescing of
  in-process serving, with the flushed batch executing in the worker.
* **Admission control.**  A lane bounds its queued-but-unresolved samples;
  :meth:`submit` fast-fails with :class:`ServiceOverloadedError` once the
  bound is hit, giving callers backpressure instead of unbounded latency.
* **Replica routing.**  Requests go to the replica with the least
  outstanding samples (round-robin tie-break), so N replicas of a hot model
  absorb a dominant traffic share evenly.
* **Drain-then-swap redeploys.**  Re-deploying a served key builds the new
  lane first, swaps it in, then drains and dismantles the old one -- queued
  futures on the old lane still resolve, and a request that looked up the
  old lane just before the swap is handed to the new one.
* **Bounded worker auto-restart.**  A replica whose process dies mid-request
  fails the in-flight flush's futures with the child's error, then respawns
  within the lane's restart budget (``max_worker_restarts``); requests
  submitted after the respawn are served by the fresh process.  A lane out
  of budget keeps serving from its surviving replicas.

The test-suite pins sharded logits to 1e-10 against the program's
``forward_reference`` node-walk, the one oracle every serving path shares.
"""

from __future__ import annotations

import asyncio
import logging
import multiprocessing
import queue as queue_module
import threading
import time
from concurrent.futures import Future
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.compile import CompileOptions, HardwareTarget
from repro.serve.batcher import DynamicBatcher
from repro.serve.shm import SlabRing
from repro.serve.worker import WorkerSpec, worker_main


logger = logging.getLogger("repro.serve.shard")


class ServiceOverloadedError(RuntimeError):
    """A lane's admission bound is full; the request was fast-failed."""


class WorkerError(RuntimeError):
    """A worker process failed; carries the child's traceback text."""


class WorkerTimeoutError(WorkerError):
    """A worker blew its per-request deadline; the process was killed.

    A hung-but-alive worker (deadlocked BLAS, a wedged syscall) used to
    block its lane forever -- ``wait_response`` polled liveness but a live
    zombie never trips it.  The deadline kills the process, so the failure
    takes the same path as a crash: the flush's futures fail with this
    error and the lane's bounded respawn budget decides whether the slot
    comes back.
    """


def _scheme_name(scheme: Any) -> str:
    """Registry name of a scheme given either the name or a scheme object."""
    if isinstance(scheme, str):
        return scheme
    name = getattr(scheme, "name", None)
    if isinstance(name, str):
        return name
    raise TypeError("scheme must be a registry name or an AssignmentScheme "
                    f"with a .name, got {scheme!r}")


class _LaneRetired(Exception):
    """The lane started closing (a redeploy swapped it out, or the service
    closed) before this request was enqueued; nothing was admitted."""


class _Replica:
    """One worker process plus its control queues and routing counter."""

    def __init__(self, name: str, context, spec: WorkerSpec):
        self.name = name
        self._context = context
        self._spec = spec
        self.ready: dict = {}
        self.outstanding = 0            # samples routed here, not yet resolved
        self.batcher: Optional[DynamicBatcher] = None
        self.restarts = 0               # times this slot respawned its process
        self.scenario_time: Optional[float] = None  # last reported chaos clock
        self._spawn()

    def _spawn(self) -> None:
        """Fresh process + control queues for this replica slot (not started)."""
        self.requests = self._context.Queue()
        self.responses = self._context.Queue()
        self.process = self._context.Process(
            target=worker_main,
            args=(self._spec, self.requests, self.responses),
            name=f"repro-{self.name}", daemon=True)

    def respawn(self, timeout: float) -> dict:
        """Replace a dead worker with a freshly spawned, ready process.

        Builds new control queues too (the dead process may have left stale
        or half-fed messages on the old ones), so the next flush through
        this slot talks to a clean replica.  Raises :class:`WorkerError`
        when the replacement fails to become ready.
        """
        self.process.join(timeout=0.1)      # reap the corpse, never blocks long
        self.restarts += 1
        self._spawn()
        self.process.start()
        return self.wait_ready(timeout)

    def wait_ready(self, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        while True:
            try:
                message = self.responses.get(timeout=min(1.0, timeout))
            except queue_module.Empty:
                if not self.process.is_alive():
                    raise WorkerError(f"worker {self.name} died during startup "
                                      f"(exit code {self.process.exitcode})") from None
                if time.monotonic() > deadline:
                    raise WorkerError(f"worker {self.name} did not become ready "
                                      f"within {timeout}s") from None
                continue
            if message[0] == "ready":
                self.ready = message[1]
                return self.ready
            if message[0] == "failed":
                raise WorkerError(f"worker {self.name} failed to start:\n{message[1]}")

    def wait_response(self, request_id: int, timeout_s: Optional[float] = None,
                      poll_s: float = 1.0) -> Tuple:
        """The ("ok"/"err", id, payload) message for ``request_id``.

        Only one request is in flight per replica (its batcher executes
        flushes one at a time), so matching is a liveness-checked poll, not
        a correlation table.  ``timeout_s`` is the per-request deadline: a
        worker that is still alive but has not answered by then is *killed*
        (a hung process would otherwise block this lane slot forever) and
        the wait raises :class:`WorkerTimeoutError`, which the caller turns
        into failed futures plus a budgeted respawn like any other death.
        """
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        while True:
            wait = poll_s
            if deadline is not None:
                wait = min(wait, max(deadline - time.monotonic(), 0.01))
            try:
                message = self.responses.get(timeout=wait)
            except queue_module.Empty:
                if not self.process.is_alive():
                    raise WorkerError(
                        f"worker {self.name} died mid-request "
                        f"(exit code {self.process.exitcode})") from None
                if deadline is not None and time.monotonic() >= deadline:
                    logger.error("worker %s blew the %.1fs request deadline; "
                                 "killing the hung process", self.name, timeout_s)
                    self.process.kill()
                    self.process.join(timeout=5.0)
                    raise WorkerTimeoutError(
                        f"worker {self.name} did not answer within "
                        f"{timeout_s}s; process killed") from None
                continue
            if message[0] in ("ok", "err") and message[1] == request_id:
                return message
            # anything else (a stale "stopped", a response to a request whose
            # caller already errored out) is dropped

    def stop(self, timeout: float) -> bool:
        """Ask the worker to exit; returns whether it actually stopped."""
        if not self.process.is_alive():
            return True
        try:
            self.requests.put(("stop",))
        except (OSError, ValueError):  # pragma: no cover -- queue already torn down
            pass
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout)
        return not self.process.is_alive()


class _WorkerProxy:
    """Duck-types ``predict_logits`` so a DynamicBatcher can front a worker.

    A flush becomes: lease a slab, write the batch into shared memory, ship
    the control tuple, wait for the worker's completion message, copy the
    logits out, recycle the slab.
    """

    def __init__(self, replica: _Replica, ring: SlabRing,
                 lease_timeout_s: float = 60.0, on_death=None,
                 request_timeout_s: Optional[float] = None):
        self._replica = replica
        self._ring = ring
        self._lease_timeout_s = lease_timeout_s
        self._on_death = on_death       # lane callback: maybe respawn the slot
        self._request_timeout_s = request_timeout_s
        self._request_id = 0

    def predict_logits(self, images: np.ndarray, scheme: Any = None) -> np.ndarray:
        slab = self._ring.lease(timeout=self._lease_timeout_s)
        try:
            shape = slab.write_input(images)
            self._request_id += 1
            self._replica.requests.put(("run", self._request_id, slab.name,
                                        slab.input_elements, slab.output_elements,
                                        shape))
            message = self._replica.wait_response(
                self._request_id, timeout_s=self._request_timeout_s)
            if message[0] == "err":
                raise WorkerError(f"worker {self._replica.name} failed a batch:\n"
                                  f"{message[2]}")
            if len(message) > 3:        # chaos mode: the worker's scenario clock
                self._replica.scenario_time = message[3]
            return np.array(slab.output_view(message[2]))
        except WorkerError:
            # the in-flight flush's futures still fail with the child's
            # traceback / exit code; a *dead* process (not a per-batch "err")
            # additionally triggers the lane's bounded respawn so the slot
            # keeps serving later requests
            if self._on_death is not None and not self._replica.process.is_alive():
                self._on_death(self._replica)
            raise
        finally:
            self._ring.release(slab)


class _ModelLane:
    """One deployed model: replicas, slab ring, admission + routing state."""

    def __init__(self, model_key: str, replicas: List[_Replica], ring: SlabRing,
                 max_batch: int, max_queue_samples: int,
                 max_restarts: int = 2, start_timeout_s: float = 120.0):
        self.model_key = model_key
        self.replicas = replicas
        self.ring = ring
        self.max_batch = max_batch
        self.max_queue_samples = max_queue_samples
        self.max_restarts = max_restarts        # respawn budget, lane-wide
        self.start_timeout_s = start_timeout_s
        self.restarts_used = 0
        self.pending_samples = 0        # admitted, future not yet resolved
        self.rejected = 0               # fast-failed by admission control
        self._route_counter = 0
        self._lock = threading.Lock()
        self._closing = False
        # observability hooks: deploy() records its own arguments here so the
        # service can rebuild this lane verbatim (redeploy/recalibration); a
        # RecalibrationManager installs `logit_monitor` (called with every
        # successfully resolved logits array) and publishes `drift_status`
        self.deploy_args: Optional[dict] = None
        self.logit_monitor = None
        self.drift_status: Optional[dict] = None

    def _handle_worker_death(self, replica: _Replica) -> None:
        """Respawn a crashed replica's process within the lane's budget.

        Runs on the dead replica's own batcher thread (the only thread that
        talks to that process), after the failing flush's futures have been
        charged with the child's error.  Exceeding the budget -- or a
        respawn that itself fails to become ready -- leaves the slot dead:
        later flushes routed there keep fast-failing with
        :class:`WorkerError`, and routing keeps preferring live replicas
        because dead slots accumulate no resolved work.
        """
        with self._lock:
            if self._closing or self.restarts_used >= self.max_restarts:
                return
            self.restarts_used += 1
        logger.warning("worker %s died (exit code %s); respawning "
                       "(%d/%d lane restarts used)", replica.name,
                       replica.process.exitcode, self.restarts_used,
                       self.max_restarts)
        try:
            replica.respawn(self.start_timeout_s)
        except Exception:  # noqa: BLE001 -- slot stays dead, lane keeps serving
            logger.exception("respawn of worker %s failed; slot stays down",
                             replica.name)

    # ------------------------------------------------------------------ #
    # request path
    # ------------------------------------------------------------------ #
    def submit(self, images: np.ndarray, kind: str = "logits") -> Future:
        images = np.asarray(images)
        if images.ndim == 3:
            samples = 1
        elif images.ndim == 4:
            samples = images.shape[0]
        else:
            raise ValueError("submit expects (batch, channels, height, width) "
                             "images or one (channels, height, width) sample")
        if samples == 0:
            raise ValueError("zero-sample request: images.shape[0] must be >= 1")
        if samples > self.max_batch:
            raise ValueError(f"request of {samples} samples exceeds the lane's "
                             f"slab capacity (max_batch={self.max_batch}); "
                             "split the request or deploy with a larger max_batch")
        # enqueueing under the lane lock orders every submit before or after
        # close(): one that gets in is drained by the batchers, one that comes
        # later sees `_closing` and never reaches a closed batcher
        with self._lock:
            if self._closing:
                raise _LaneRetired(self.model_key)
            if self.pending_samples + samples > self.max_queue_samples:
                self.rejected += 1
                raise ServiceOverloadedError(
                    f"model {self.model_key!r} is overloaded: "
                    f"{self.pending_samples} samples pending against a bound of "
                    f"{self.max_queue_samples}; retry with backoff")
            replica = self._route_locked()
            future = replica.batcher.submit(images, kind=kind)
            self.pending_samples += samples
            replica.outstanding += samples
        future.add_done_callback(
            lambda f: self._resolve(replica, samples, f, kind))
        return future

    def _route_locked(self) -> _Replica:
        """Least-outstanding-samples replica, round-robin on ties."""
        count = len(self.replicas)
        offset = self._route_counter % count
        self._route_counter += 1
        best = None
        for step in range(count):
            replica = self.replicas[(offset + step) % count]
            if best is None or replica.outstanding < best.outstanding:
                best = replica
        return best

    def _resolve(self, replica: _Replica, samples: int,
                 future: Optional[Future] = None, kind: str = "logits") -> None:
        with self._lock:
            self.pending_samples -= samples
            replica.outstanding -= samples
            monitor = self.logit_monitor
        if (monitor is None or kind != "logits" or future is None
                or future.cancelled() or future.exception() is not None):
            return
        try:
            monitor(future.result())
        except Exception:  # noqa: BLE001 -- observability never fails serving
            logger.exception("logit monitor of lane %r raised", self.model_key)

    # ------------------------------------------------------------------ #
    # introspection / lifecycle
    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        with self._lock:
            pending, rejected = self.pending_samples, self.rejected
            per_replica = {replica.name: {"outstanding": replica.outstanding,
                                          "pid": replica.ready.get("pid"),
                                          "alive": replica.process.is_alive(),
                                          "restarts": replica.restarts,
                                          "decompositions":
                                              replica.ready.get("decompositions"),
                                          "store": replica.ready.get("store"),
                                          "native_backend":
                                              replica.ready.get("native_backend"),
                                          "scenario": replica.ready.get("scenario"),
                                          "scenario_time": replica.scenario_time
                                              if replica.scenario_time is not None
                                              else replica.ready.get("scenario_time"),
                                          **replica.batcher.stats.as_dict()}
                           for replica in self.replicas}
            restarts_used = self.restarts_used
            drift = self.drift_status
        return {"replicas": per_replica, "pending_samples": pending,
                "rejected": rejected, "max_queue_samples": self.max_queue_samples,
                "restarts_used": restarts_used, "max_restarts": self.max_restarts,
                "drift": drift, "slabs": self.ring.names}

    def close(self, timeout: float = 30.0) -> bool:
        """Drain batchers, stop workers, unlink slabs; True if all stopped."""
        with self._lock:
            self._closing = True        # no respawns race the teardown
        joined = [replica.batcher.close(timeout=timeout)
                  for replica in self.replicas if replica.batcher is not None]
        stopped = [replica.stop(timeout) for replica in self.replicas]
        self.ring.close_and_unlink()
        return all(joined) and all(stopped)


class ShardedInferenceService:
    """Serve compiled photonic programs from a pool of worker processes.

    Parameters
    ----------
    workers:
        Default replica count per deployed model (overridable per
        :meth:`deploy` via ``replicas=``).
    max_batch, max_latency_s:
        Default flush policy of every replica's batcher; ``max_batch`` also
        sizes the shared-memory slabs, so it bounds the largest single
        request a lane accepts.
    max_queue_samples:
        Default admission bound per lane (samples admitted but unresolved);
        ``None`` means ``8 * max_batch`` per replica.
    start_timeout_s:
        How long a worker may take to import, compile and report ready.
    context:
        Multiprocessing start method; ``"spawn"`` (the default) is the only
        one the workers are audited for.
    store_path:
        Optional path of an ahead-of-time compilation artifact store
        (:mod:`repro.store`).  Every spawned worker opens it: warm entries
        turn replica cold-start into a memory-mapped lookup, and all
        replicas on the host share one physical copy of the mapped dense
        matrices through the page cache.
    max_worker_restarts:
        How many crashed replica processes each lane may respawn over its
        lifetime; ``0`` disables auto-restart (dead slots just keep failing
        the requests routed to them).
    request_timeout_s:
        Per-request deadline on the worker round-trip.  A replica that has
        not answered a flush by then is treated as hung: its process is
        killed, the flush's futures fail with :class:`WorkerTimeoutError`,
        and the lane's restart budget decides whether the slot respawns.
        ``None`` disables the deadline (pre-PR-10 behavior).
    store_prune_max_entries, store_prune_max_age_s:
        Automatic artifact-store housekeeping: when either is set (and
        ``store_path`` is), every deploy/redeploy follows up with
        ``ArtifactStore.prune`` so a long-running service keeps the store
        bounded by entry count / entry age without an operator cron job.
    """

    def __init__(self, workers: int = 2, max_batch: int = 64,
                 max_latency_s: float = 0.002,
                 max_queue_samples: Optional[int] = None,
                 start_timeout_s: float = 120.0, context: str = "spawn",
                 store_path: Optional[str] = None,
                 max_worker_restarts: int = 2,
                 request_timeout_s: Optional[float] = 120.0,
                 store_prune_max_entries: Optional[int] = None,
                 store_prune_max_age_s: Optional[float] = None):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if max_worker_restarts < 0:
            raise ValueError("max_worker_restarts must be >= 0")
        if request_timeout_s is not None and request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be positive (or None)")
        self.workers = int(workers)
        self.max_worker_restarts = int(max_worker_restarts)
        self.max_batch = int(max_batch)
        self.max_latency_s = float(max_latency_s)
        self.max_queue_samples = max_queue_samples
        self.start_timeout_s = float(start_timeout_s)
        self.store_path = None if store_path is None else str(store_path)
        self.request_timeout_s = (None if request_timeout_s is None
                                  else float(request_timeout_s))
        self.store_prune_max_entries = store_prune_max_entries
        self.store_prune_max_age_s = store_prune_max_age_s
        self._context = multiprocessing.get_context(context)
        self._lanes: Dict[str, _ModelLane] = {}
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------ #
    # deployment
    # ------------------------------------------------------------------ #
    def deploy(self, model_key: str, model: Any, scheme: Any,
               image_shape: Sequence[int], replicas: Optional[int] = None,
               target: Optional[HardwareTarget] = None,
               options: Optional[CompileOptions] = None,
               max_batch: Optional[int] = None,
               max_latency_s: Optional[float] = None,
               max_queue_samples: Optional[int] = None,
               scenario: Optional[Any] = None) -> dict:
        """Open a sharded request lane for ``model_key``.

        Spawns ``replicas`` workers (each compiling its own copy of the
        pickled model spec), sizes the slab ring off ``max_batch`` samples of
        ``image_shape`` in and the widest replica's logit geometry out, and
        fronts every replica with a :class:`DynamicBatcher`.  Re-deploying a
        served key is a drain-then-swap: traffic switches to the new lane,
        then the old lane's queue drains and its workers and slabs go away.
        ``scenario`` (a ``repro.scenarios`` config or instance) puts the lane
        in hardware-degradation chaos mode: every replica serves through the
        scenario, and a :class:`~repro.serve.drift.DriftInjector` can advance
        its clock.  Returns a summary dict (``replicas``, ``num_classes``,
        ``pids``).
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("service is closed")
        if scenario is not None and hasattr(scenario, "as_config"):
            # workers rebuild scenarios from configs; live objects (RNGs,
            # per-device state) stay frontend-side
            scenario = scenario.as_config()
        deploy_args = {"model_key": model_key, "model": model, "scheme": scheme,
                       "image_shape": tuple(int(s) for s in image_shape),
                       "replicas": replicas, "target": target,
                       "options": options, "max_batch": max_batch,
                       "max_latency_s": max_latency_s,
                       "max_queue_samples": max_queue_samples,
                       "scenario": scenario}
        lane = self._build_lane(
            model_key, model, scheme, tuple(int(s) for s in image_shape),
            self.workers if replicas is None else int(replicas),
            target, options,
            self.max_batch if max_batch is None else int(max_batch),
            self.max_latency_s if max_latency_s is None else float(max_latency_s),
            max_queue_samples, scenario)
        lane.deploy_args = deploy_args
        with self._lock:
            if self._closed:
                closed = True
            else:
                closed = False
                previous = self._lanes.get(model_key)
                self._lanes[model_key] = lane
        if closed:
            lane.close()
            raise RuntimeError("service is closed")
        if previous is not None:
            previous.close()
        self._prune_store()
        return {"model_key": model_key, "replicas": len(lane.replicas),
                "num_classes": lane.replicas[0].ready.get("num_classes"),
                "pids": [replica.ready.get("pid") for replica in lane.replicas],
                "decompositions": [replica.ready.get("decompositions")
                                   for replica in lane.replicas],
                "slabs": lane.ring.names}

    def _build_lane(self, model_key: str, model: Any, scheme: Any,
                    image_shape: Tuple[int, ...], replicas: int,
                    target, options, max_batch: int, max_latency_s: float,
                    max_queue_samples: Optional[int],
                    scenario: Optional[Any] = None) -> _ModelLane:
        if replicas < 1:
            raise ValueError("replicas must be at least 1")
        scheme_name = _scheme_name(scheme)
        spec = WorkerSpec(model_key=model_key, model=model, scheme=scheme_name,
                          image_shape=image_shape, target=target, options=options,
                          store_path=self.store_path, scenario=scenario)
        pool = [_Replica(f"{model_key}:r{index}", self._context, spec)
                for index in range(replicas)]
        try:
            for replica in pool:            # start all first: parallel warm-up
                replica.process.start()
            for replica in pool:
                replica.wait_ready(self.start_timeout_s)
            elements_per_sample = max(replica.ready["elements_per_sample"]
                                      for replica in pool)
            samples_per_image = int(np.prod(image_shape, dtype=np.int64))
            ring = SlabRing(slots=replicas,
                            input_elements=max_batch * samples_per_image,
                            output_elements=max_batch * elements_per_sample)
        except BaseException:
            for replica in pool:
                replica.stop(timeout=5.0)
            raise
        if max_queue_samples is None:
            max_queue_samples = self.max_queue_samples
        if max_queue_samples is None:
            max_queue_samples = 8 * max_batch * replicas
        lane = _ModelLane(model_key, pool, ring, max_batch=max_batch,
                          max_queue_samples=int(max_queue_samples),
                          max_restarts=self.max_worker_restarts,
                          start_timeout_s=self.start_timeout_s)
        for replica in pool:
            replica.batcher = DynamicBatcher(
                _WorkerProxy(replica, ring,
                             on_death=lane._handle_worker_death,
                             request_timeout_s=self.request_timeout_s),
                scheme=None, max_batch=max_batch,
                max_latency_s=max_latency_s, name=f"shard:{replica.name}")
        return lane

    def redeploy(self, model_key: str, **overrides) -> dict:
        """Rebuild a served lane from its own recorded deploy arguments.

        The drain-then-swap core of online recalibration: the replacement
        lane's workers recompile from the clean model spec (store-aware, so
        warm hosts skip the decomposition), traffic switches atomically,
        and the old lane drains before its processes go away -- requests
        submitted at any point complete on whichever lane they entered.
        Keyword ``overrides`` replace individual recorded arguments (e.g.
        ``scenario=None`` to redeploy without chaos mode).
        """
        lane = self.lane(model_key)
        if lane.deploy_args is None:
            raise RuntimeError(f"lane {model_key!r} has no recorded deploy "
                               "arguments; redeploy() needs a lane deployed "
                               "through deploy()")
        args = dict(lane.deploy_args)
        args.update(overrides)
        return self.deploy(**args)

    def _prune_store(self) -> Optional[dict]:
        """Apply the configured prune policy to the artifact store, if any."""
        if self.store_path is None or (self.store_prune_max_entries is None
                                       and self.store_prune_max_age_s is None):
            return None
        from repro.store import ArtifactStore

        try:
            report = ArtifactStore(self.store_path).prune(
                max_entries=self.store_prune_max_entries,
                max_age=self.store_prune_max_age_s)
        except Exception:  # noqa: BLE001 -- housekeeping never fails a deploy
            logger.exception("artifact-store prune of %s failed", self.store_path)
            return None
        if report.get("removed_entries") or report.get("removed_quarantined"):
            logger.info("pruned artifact store %s: %s", self.store_path, report)
        return report

    def lane(self, model_key: str) -> _ModelLane:
        with self._lock:
            if self._closed:
                raise RuntimeError("service is closed")
            lane = self._lanes.get(model_key)
        if lane is None:
            raise KeyError(f"model {model_key!r} is not deployed; call deploy() first")
        return lane

    # ------------------------------------------------------------------ #
    # request side
    # ------------------------------------------------------------------ #
    def submit(self, model_key: str, images: np.ndarray,
               kind: str = "logits") -> Future:
        lane = self.lane(model_key)
        while True:
            try:
                return lane.submit(images, kind=kind)
            except _LaneRetired:
                # a redeploy swapped the lane out after the lookup: the
                # request goes to the lane now registered under the key
                lane = self.lane(model_key)

    def logits(self, model_key: str, images: np.ndarray) -> np.ndarray:
        return self.submit(model_key, images, kind="logits").result()

    def classify(self, model_key: str, images: np.ndarray) -> np.ndarray:
        return self.submit(model_key, images, kind="classify").result()

    # asyncio-facing variants: the concurrent future resolves on a batcher
    # thread and wakes the caller's event loop without blocking it
    async def logits_async(self, model_key: str, images: np.ndarray) -> np.ndarray:
        return await asyncio.wrap_future(self.submit(model_key, images,
                                                     kind="logits"))

    async def classify_async(self, model_key: str, images: np.ndarray) -> np.ndarray:
        return await asyncio.wrap_future(self.submit(model_key, images,
                                                     kind="classify"))

    # ------------------------------------------------------------------ #
    # introspection / lifecycle
    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        with self._lock:
            lanes = dict(self._lanes)
        return {key: lane.stats() for key, lane in lanes.items()}

    def slab_names(self, model_key: str) -> List[str]:
        return list(self.lane(model_key).ring.names)

    def close(self, timeout: float = 30.0) -> bool:
        """Drain every lane and tear down workers; True if all stopped."""
        with self._lock:
            self._closed = True
            lanes = list(self._lanes.values())
            self._lanes.clear()
        return all([lane.close(timeout=timeout) for lane in lanes])

    def __enter__(self) -> "ShardedInferenceService":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()

