"""Worker process of the sharded inference service.

A worker is one replica of one model: it compiles its program once with
``repro.compile`` from a pickled :class:`WorkerSpec` (the model module's
architecture + weights -- never a live
:class:`~repro.core.compile.CompiledProgram`, whose plans, cached dense
matrices and locks do not belong on a pickle), warms the plan with one probe
forward, and then loops over a control queue executing shared-memory
batches.

The control protocol is deliberately tiny (everything bulky crosses via the
slabs in :mod:`repro.serve.shm`):

========================  =====================================================
frontend -> worker        the pickled :class:`WorkerSpec` as ``bytes`` (first
                          message, exactly once), then ``("run", request_id,
                          slab_name, in_cap, out_cap, shape)``, ``("advance",
                          dt_seconds)`` (chaos mode: move the
                          hardware-scenario clock forward) and ``("stop",)``
worker  -> frontend       ``("ready", info)`` once after compilation,
                          ``("ok", request_id, logits_shape, scenario_clock)``
                          / ``("err", request_id, traceback)`` per request,
                          ``("failed", traceback)`` if startup died
========================  =====================================================

``("advance", dt)`` is fire-and-forget: the control queue is FIFO, so every
``("run", ...)`` enqueued after it is guaranteed to execute against the
advanced (further degraded) program -- that ordering is what makes drift
injection deterministic enough to test against.

Thread rule (:func:`blas_threads`): the frontend's CPU affinity split across
the lane's replicas, capped by a lower ``OPENBLAS_NUM_THREADS`` or
``OMP_NUM_THREADS`` of the frontend.  :func:`worker_main` sets it before
numpy loads (this module imports none) and reports it as ``blas_threads``:
``None`` if numpy came first, e.g. from a spawn re-import of ``__main__``.

Workers are spawn-safe: :func:`worker_main` imports everything it needs and
touches no inherited globals, so it behaves identically under the ``spawn``
start method the service uses (fork would duplicate the frontend's batcher
threads and BLAS state).
"""

from __future__ import annotations

import logging
import os
import pickle
import sys
import traceback
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

if TYPE_CHECKING:
    from repro.core.compile import HardwareTarget
    from repro.serve.shm import SharedSlab

logger = logging.getLogger("repro.serve.worker")

# read once by the BLAS/OpenMP runtimes, when numpy loads
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def blas_threads(replicas: int) -> int:
    """BLAS threads per worker of a ``replicas``-wide lane (the thread rule)."""
    inherited = (os.environ.get(name, "")
                 for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    return min([max(1, len(os.sched_getaffinity(0)) // replicas),
                *(int(value) for value in inherited if value.isdigit() and int(value))])


@dataclass
class WorkerSpec:
    """Everything a worker needs to rebuild its program, picklable.

    ``model`` is the model :class:`~repro.nn.module.Module` itself (its
    pickle is the architecture plus parameter arrays).  The assignment
    scheme crosses as its registry *name* and is rebuilt worker-side, and
    the hardware target crosses as the frozen :class:`HardwareTarget`
    dataclass.
    ``store_path`` (optional) points at an ahead-of-time compilation
    artifact store: a warm entry turns the replica's rebuild into a
    memory-mapped lookup instead of a full re-decomposition, and the mapped
    dense matrices are shared by every replica on the host through the page
    cache.

    ``scenario`` (optional) is a hardware-degradation scenario *config*
    (``repro.scenarios.build_scenario`` form -- configs cross the pickle,
    never live scenario objects).  The worker serves a scenario-degraded
    copy of its program and re-degrades it whenever the frontend advances
    the scenario clock; every replica builds the scenario from the same
    config, so all replicas of a lane degrade identically.
    """

    model: Any
    scheme: str
    image_shape: Tuple[int, ...]
    target: Optional[HardwareTarget] = None
    store_path: Optional[str] = None
    scenario: Optional[Any] = None


def worker_main(threads: int, requests, responses) -> None:
    """Entry point of one replica process (see the module protocol table)."""
    applied: Optional[int] = None
    if "numpy" in sys.modules:
        logger.warning("numpy loaded before worker start-up; the worker keeps "
                       "the inherited BLAS thread count instead of %d", threads)
    else:
        os.environ.update(dict.fromkeys(THREAD_VARIABLES, str(threads)))
        applied = threads
    try:
        spec = pickle.loads(requests.get())     # the model's arrays load numpy
        import numpy as np

        from repro.assignment import get_scheme
        from repro.core.compile import compile as compile_program
        from repro.photonics.engine import native_kernel
        from repro.photonics.svd_mapping import decompositions_performed
        from repro.serve.shm import attach_slab

        scheme = get_scheme(spec.scheme)
        store = None
        if spec.store_path is not None:
            from repro.store import ArtifactStore

            store = ArtifactStore(spec.store_path)
        program = compile_program(spec.model, target=spec.target, store=store)
        scenario = None
        if spec.scenario is not None:
            from repro.scenarios import build_scenario

            scenario = build_scenario(spec.scenario)
            serving = program.with_scenario(scenario)
        else:
            serving = program
        # the probe builds the execution plan that is served, so the first
        # request does not pay plan compilation
        probe = np.zeros((1, *spec.image_shape))
        logits = serving.predict_logits(probe, scheme)
        responses.put(("ready", {
            "pid": os.getpid(),
            "num_classes": int(logits.shape[-1]),
            # logit elements one sample produces, including leading
            # noise-trials axes; the frontend sizes slab output regions off
            # the maximum across replicas
            "elements_per_sample": int(logits.size),
            # weight matrices this process decomposed during startup -- zero
            # when a warm artifact store served the whole program
            "decompositions": decompositions_performed(),
            "store": None if store is None else store.stats.as_dict(),
            # whether this replica loaded the compiled cchain kernel; each
            # spawn-started process compiles/loads independently, so the
            # frontend can surface replicas that silently fell back to numpy
            "native_backend": native_kernel() is not None,
            "blas_threads": applied,
            # hardware-degradation chaos mode: which scenario (if any) this
            # replica serves through, and its current clock in seconds
            "scenario": None if scenario is None else scenario.name,
            "scenario_time": None if scenario is None else scenario.clock,
        }))
    except BaseException:  # noqa: BLE001 -- startup failure crosses as text
        responses.put(("failed", traceback.format_exc()))
        return

    slabs: Dict[str, SharedSlab] = {}
    executed = 0
    try:
        while True:
            message = requests.get()
            if message[0] == "stop":
                break
            if message[0] == "advance":
                # chaos mode: move the scenario clock and re-degrade the
                # serving program from the clean compile.  Fire-and-forget;
                # FIFO queue order guarantees later "run"s see the new state.
                if scenario is not None:
                    scenario.advance(float(message[1]))
                    serving = program.with_scenario(scenario)
                continue
            _, request_id, slab_name, input_elements, output_elements, shape = message
            try:
                slab = slabs.get(slab_name)
                if slab is None:
                    slab = slabs[slab_name] = attach_slab(
                        slab_name, input_elements, output_elements)
                images = slab.input_view(shape)
                logits = serving.predict_logits(images, scheme)
                slab.output_view(logits.shape)[...] = logits
                executed += 1
                responses.put(("ok", request_id, tuple(logits.shape),
                               None if scenario is None else scenario.clock))
            except BaseException:  # noqa: BLE001 -- relayed to the frontend
                responses.put(("err", request_id, traceback.format_exc()))
    finally:
        for slab in slabs.values():
            slab.close()
        responses.put(("stopped", os.getpid(), executed))
