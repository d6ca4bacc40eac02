"""Serving measurement harnesses, shared by ``python -m repro serve`` and the
runtime/sharding benchmarks:

* :func:`measure_plan_speedup` -- plan execution against the reference
  node-walk on one batch, with their parity.
* :func:`run_serving_benchmark` -- batched (:class:`~repro.serve.DynamicBatcher`)
  vs sequential request throughput on one compiled program.
* :func:`run_shard_benchmark` -- :class:`~repro.serve.ShardedInferenceService`
  throughput per worker count, every request parity-pinned against the
  program's ``forward_reference`` oracle.
"""

from __future__ import annotations

import copy
import threading
import time
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

import numpy as np

import repro
from repro.assignment import get_scheme
from repro.core.compile import CompiledProgram, HardwareTarget
from repro.serve.batcher import DynamicBatcher
from repro.serve.shard import ServiceOverloadedError, ShardedInferenceService


def _best_of(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def measure_plan_speedup(program: CompiledProgram, images: np.ndarray,
                         scheme: Any, repeats: int = 5) -> dict:
    """Time plan execution against the reference node-walk on one batch.

    Also reports the parity between the two executors (must be <= 1e-12; the
    caller asserts it) and the plan's fusion statistics.
    """
    signal = program.encode_images(images, scheme)
    plan = program.plan()
    walk = program.graph.forward_reference(signal)
    planned = plan.execute(signal)
    max_deviation = float(np.abs(walk - planned).max())
    walk_seconds = _best_of(lambda: program.graph.forward_reference(signal), repeats)
    plan_seconds = _best_of(lambda: plan.execute(signal), repeats)
    return {"batch": int(images.shape[0]),
            "walk_seconds": walk_seconds,
            "plan_seconds": plan_seconds,
            "speedup": walk_seconds / plan_seconds,
            "max_deviation": max_deviation,
            "instructions": plan.instruction_count,
            "buffer_slots": plan.slot_count,
            "fused_matmuls": plan.fused_matmuls,
            "fused_affine_chains": plan.fused_affine_chains}


@dataclass
class BatchingRow:
    """Throughput of one batcher configuration over synthetic traffic."""

    max_batch: int
    clients: int
    requests: int
    images_per_request: int
    sequential_seconds: float
    batched_seconds: float
    sequential_requests_per_s: float
    batched_requests_per_s: float
    throughput_gain: float
    batcher: dict


def run_serving_benchmark(program: CompiledProgram, scheme: Any,
                          image_shape: Sequence[int], requests: int = 64,
                          clients: int = 8, images_per_request: int = 1,
                          max_batch: int = 64, max_latency_s: float = 0.002,
                          seed: int = 0, repeats: int = 1) -> BatchingRow:
    """Fire synthetic concurrent traffic at a batcher vs a sequential loop.

    ``clients`` threads each submit their share of ``requests`` single
    (or ``images_per_request``-sized) requests and wait for every future;
    the sequential baseline runs the same requests one ``predict_logits``
    call at a time.  A wave's clock starts once every client thread is
    running and released together.  Each side is timed as the best of
    ``repeats`` waves (the batcher's stats cover every wave), and every
    wave's batched results are verified against the sequential ones before
    timing is reported.
    """
    rng = np.random.default_rng(seed)
    pool = rng.normal(size=(requests, images_per_request, *image_shape))

    def run_sequential() -> List[np.ndarray]:
        return [program.predict_logits(pool[index], scheme)
                for index in range(requests)]

    expected = run_sequential()
    sequential_seconds = _best_of(run_sequential, repeats=repeats)

    batcher = DynamicBatcher(program, scheme, max_batch=max_batch,
                             max_latency_s=max_latency_s, name="bench")

    def run_wave() -> float:
        results: List[Optional[np.ndarray]] = [None] * requests
        errors: List[BaseException] = []
        go = threading.Event()

        def client(worker: int) -> None:
            go.wait(timeout=60)
            try:
                futures = [(index, batcher.submit(pool[index]))
                           for index in range(worker, requests, clients)]
                for index, future in futures:
                    results[index] = future.result(timeout=60)
            except BaseException as error:  # noqa: BLE001 -- surfaced below
                errors.append(error)

        # every client is running before the clock starts: spawning threads
        # while the executor holds the GIL took 12-22 ms of a 16-24 ms wave
        threads = [threading.Thread(target=client, args=(worker,))
                   for worker in range(clients)]
        for thread in threads:
            thread.start()
        start = time.perf_counter()
        go.set()
        for thread in threads:
            thread.join()
        seconds = time.perf_counter() - start
        if errors:
            raise errors[0]
        for index in range(requests):
            if not np.allclose(results[index], expected[index], atol=1e-10):
                raise AssertionError("batched serving returned different logits "
                                     f"for request {index}")
        return seconds

    try:
        batched_seconds = min(run_wave() for _ in range(repeats))
        stats = batcher.stats.as_dict()
    finally:
        batcher.close()

    return BatchingRow(
        max_batch=max_batch, clients=clients, requests=requests,
        images_per_request=images_per_request,
        sequential_seconds=sequential_seconds, batched_seconds=batched_seconds,
        sequential_requests_per_s=requests / sequential_seconds,
        batched_requests_per_s=requests / batched_seconds,
        throughput_gain=sequential_seconds / batched_seconds,
        batcher=stats)


@dataclass
class ShardRow:
    """Throughput of one worker count over the same synthetic traffic."""

    workers: int
    requests: int
    clients: int
    images_per_request: int
    seconds: float
    requests_per_s: float
    samples_per_s: float
    max_parity: float               # vs the forward_reference oracle
    overload_retries: int
    gain_vs_single: float = 0.0     # filled once the 1-worker row exists
    replicas: dict = field(default_factory=dict)
    lane: dict = field(default_factory=dict)    # restarts_used / drift status


def run_shard_benchmark(model: Any, scheme: Any, image_shape: Sequence[int],
                        worker_counts: Sequence[int] = (1, 2, 4),
                        requests: int = 96, clients: int = 8,
                        images_per_request: int = 4, max_batch: int = 32,
                        max_latency_s: float = 0.002, seed: int = 0,
                        warmup_requests: int = 8,
                        store_path: Optional[str] = None,
                        target: Optional[HardwareTarget] = None) -> List[ShardRow]:
    """Fire one request wave per worker count and pin parity per request.

    The expected logits come from the oracle of the *same* model compiled
    in-process: ``readout(graph.forward_reference(encode_images(...)))``.
    ``target`` reaches both that compile and every worker's deploy; a
    seeded noisy target (``PhaseNoiseModel.seeded``) gives every replica and
    the oracle the same trials-batched chip, so each request simulates its
    meshes on the column program and the expected logits keep the leading
    trials axis.  Every sharded result is compared against its row before
    timings are reported.  Clients that hit admission control back off and retry
    (counted in ``overload_retries``), so the numbers describe a
    loaded-but-live service, not a fast-fail storm.
    """
    rng = np.random.default_rng(seed)
    pool = rng.normal(size=(requests, images_per_request, *image_shape))
    # compiling draws the target's noise: the oracle compiles a copy, so each
    # worker's deploy unpickles the untouched generator and draws the same chip
    program = repro.compile(model, target=copy.deepcopy(target))
    signal = program.encode_images(
        pool.reshape(-1, *image_shape),
        get_scheme(scheme) if isinstance(scheme, str) else scheme)
    oracle = program.readout(program.graph.forward_reference(signal))
    # the batch axis sits just before the class axis, after any trials axes
    expected = [oracle[..., index * images_per_request:
                       (index + 1) * images_per_request, :]
                for index in range(requests)]

    rows: List[ShardRow] = []
    for workers in worker_counts:
        with ShardedInferenceService(workers=int(workers), max_batch=max_batch,
                                     max_latency_s=max_latency_s,
                                     store_path=store_path) as service:
            service.deploy("bench", model, scheme, image_shape, target=target)
            for index in range(min(warmup_requests, requests)):
                service.logits("bench", pool[index])

            results: List[Optional[np.ndarray]] = [None] * requests
            errors: List[BaseException] = []
            retries = [0] * clients

            def client(worker_index: int) -> None:
                try:
                    futures = []
                    for index in range(worker_index, requests, clients):
                        while True:
                            try:
                                futures.append((index, service.submit("bench",
                                                                      pool[index])))
                                break
                            except ServiceOverloadedError:
                                retries[worker_index] += 1
                                time.sleep(0.0005)
                    for index, future in futures:
                        results[index] = future.result(timeout=120)
                except BaseException as error:  # noqa: BLE001 -- surfaced below
                    errors.append(error)

            start = time.perf_counter()
            threads = [threading.Thread(target=client, args=(index,))
                       for index in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            seconds = time.perf_counter() - start
            if errors:
                raise errors[0]
            parity = max(float(np.abs(results[index] - expected[index]).max())
                         for index in range(requests))
            lane_stats = service.stats()["bench"]
            stats = lane_stats["replicas"]
        rows.append(ShardRow(
            workers=int(workers), requests=requests, clients=clients,
            images_per_request=images_per_request, seconds=seconds,
            requests_per_s=requests / seconds,
            samples_per_s=requests * images_per_request / seconds,
            max_parity=parity, overload_retries=sum(retries), replicas=stats,
            lane={key: lane_stats.get(key) for key in
                  ("restarts_used", "max_restarts", "drift",
                   "pending_samples", "rejected")}))
    baseline = next((row for row in rows if row.workers == 1), rows[0])
    for row in rows:
        row.gain_vs_single = row.requests_per_s / baseline.requests_per_s
    return rows
