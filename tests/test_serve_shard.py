"""Tests of the multi-process sharded inference service.

Process spawns are expensive (each worker imports the stack and compiles its
program), so most tests share one module-scoped two-replica service; the
lifecycle-sensitive cases (admission control, slab unlinking, drain-then-swap
redeploys) build their own small services, and worker startup is also
driven in-process over plain queues.  Sharded results are parity-pinned
to 1e-10 against the program's oracle,
``readout(graph.forward_reference(encode_images(...)))``.
"""

import asyncio
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.assignment import get_scheme
from repro.models import ComplexFCNN
from repro.photonics.svd_mapping import decompositions_performed
from repro.serve import (
    ServiceOverloadedError,
    ShardedInferenceService,
    SlabRing,
    WorkerError,
    segment_exists,
)

IMAGE_SHAPE = (1, 4, 4)      # SI assignment halves 16 pixels -> 8 complex features


def tiny_fcnn(seed: int = 0) -> ComplexFCNN:
    return ComplexFCNN(8, (6,), 3, decoder="merge",
                       rng=np.random.default_rng(seed))


def oracle_logits(model, images: np.ndarray) -> np.ndarray:
    """The one kept serving oracle: the reference node-walk of the program."""
    program = repro.compile(model)
    signal = program.encode_images(images, get_scheme("SI"))
    return program.readout(program.graph.forward_reference(signal))


@pytest.fixture(scope="module")
def shard_service():
    """A running 2-replica service plus the oracle logits."""
    model = tiny_fcnn()
    images = np.random.default_rng(7).normal(size=(6, *IMAGE_SHAPE))
    expected = oracle_logits(model, images)
    service = ShardedInferenceService(workers=2, max_batch=8,
                                      max_latency_s=0.002)
    service.deploy("fcnn", model, "SI", image_shape=IMAGE_SHAPE)
    yield service, model, images, expected
    service.close()


class TestWorkerStartup:
    """``worker_main`` driven in-process over plain queues (no spawn); the
    pickled spec is the first message on the requests queue."""

    @staticmethod
    def _start_then_stop(spec):
        import pickle
        import queue

        from repro.serve.worker import worker_main

        requests, responses = queue.Queue(), queue.Queue()
        requests.put(pickle.dumps(spec))
        requests.put(("stop",))
        worker_main(1, requests, responses)
        return [responses.get_nowait() for _ in range(responses.qsize())]

    def test_compiles_off_the_store_and_reports_ready(self, tmp_path):
        from repro.serve.worker import WorkerSpec
        from repro.store import ArtifactStore

        root = tmp_path / "store"
        repro.compile(tiny_fcnn(), store=ArtifactStore(root))
        spec = WorkerSpec(model=tiny_fcnn(), scheme="SI",
                          image_shape=IMAGE_SHAPE, store_path=str(root))
        (kind, info), stopped = self._start_then_stop(spec)
        assert kind == "ready" and "cache" not in info
        assert info["num_classes"] == 3 and info["elements_per_sample"] == 3
        assert info["store"]["hits"] == 1 and info["store"]["misses"] == 0
        assert stopped[0] == "stopped" and stopped[2] == 0

    def test_numpy_loaded_first_reports_no_thread_count(self, caplog):
        """In-process, numpy is already loaded: the worker cannot pin BLAS
        threads, says so, and leaves the environment alone."""
        import os

        from repro.serve.worker import THREAD_VARIABLES, WorkerSpec

        before = {name: os.environ.get(name) for name in THREAD_VARIABLES}
        spec = WorkerSpec(model=tiny_fcnn(), scheme="SI", image_shape=IMAGE_SHAPE)
        with caplog.at_level("WARNING", logger="repro.serve.worker"):
            (kind, info), _ = self._start_then_stop(spec)
        assert kind == "ready" and info["blas_threads"] is None
        assert "numpy loaded before worker start-up" in caplog.text
        assert {name: os.environ.get(name) for name in THREAD_VARIABLES} == before

    def test_startup_failure_is_reported_not_raised(self):
        from repro.serve.worker import WorkerSpec

        spec = WorkerSpec(model=tiny_fcnn(), scheme="no-such-scheme",
                          image_shape=IMAGE_SHAPE)
        [(kind, text)] = self._start_then_stop(spec)
        assert kind == "failed" and "no-such-scheme" in text


class TestSlabRing:
    def test_lease_release_and_unlink(self):
        ring = SlabRing(slots=2, input_elements=16, output_elements=4)
        names = ring.names
        assert all(segment_exists(name) for name in names)
        first = ring.lease(timeout=1)
        second = ring.lease(timeout=1)
        with pytest.raises(TimeoutError):
            ring.lease(timeout=0.01)
        shape = first.write_input(np.arange(8.0).reshape(2, 4))
        assert shape == (2, 4)
        assert np.array_equal(first.input_view((2, 4)),
                              np.arange(8.0).reshape(2, 4))
        with pytest.raises(ValueError, match="overflow"):
            first.input_view((5, 4))
        ring.release(first)
        assert ring.lease(timeout=1) is first        # recycled
        ring.release(second)
        ring.close_and_unlink()
        ring.close_and_unlink()                      # idempotent
        assert all(not segment_exists(name) for name in names)


class TestShardedService:
    def test_logits_match_in_process_reference(self, shard_service):
        service, _model, images, expected = shard_service
        got = service.logits("fcnn", images)
        assert np.abs(got - expected).max() <= 1e-10
        labels = service.classify("fcnn", images)
        assert np.array_equal(labels, expected.argmax(axis=-1))

    def test_single_sample_is_squeezed(self, shard_service):
        service, _model, images, expected = shard_service
        logits = service.logits("fcnn", images[0])
        assert logits.shape == expected[0].shape
        assert np.abs(logits - expected[0]).max() <= 1e-10

    def test_concurrent_clients_get_their_own_rows(self, shard_service):
        service, _model, images, expected = shard_service
        results = [None] * len(images)

        def client(worker):
            for index in range(worker, len(images), 3):
                results[index] = service.submit("fcnn", images[index:index + 1]) \
                                        .result(timeout=60)

        threads = [threading.Thread(target=client, args=(w,)) for w in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for index in range(len(images)):
            assert np.abs(results[index] - expected[index:index + 1]).max() <= 1e-10

    def test_routing_spreads_over_replicas(self, shard_service):
        service, _model, images, _expected = shard_service
        futures = [service.submit("fcnn", images[index:index + 1])
                   for index in range(6)]
        for future in futures:
            future.result(timeout=60)
        per_replica = service.stats()["fcnn"]["replicas"]
        assert len(per_replica) == 2
        # least-outstanding routing with a round-robin tie-break must not
        # starve a replica under back-to-back traffic
        assert all(stats["requests"] >= 1 for stats in per_replica.values())
        assert all(stats["outstanding"] == 0 for stats in per_replica.values())

    def test_ready_info_reports_one_cold_compile(self, shard_service):
        service, model, _images, _expected = shard_service
        before = decompositions_performed()
        repro.compile(model)
        weights = decompositions_performed() - before
        assert weights == 2                 # the FCNN's two weight matrices
        replicas = service.lane("fcnn").replicas
        assert len(replicas) == 2
        for replica in replicas:
            # each worker compiled its program exactly once
            assert "cache" not in replica.ready
            assert replica.ready["decompositions"] == weights

    def test_async_frontend(self, shard_service):
        service, _model, images, expected = shard_service

        async def drive():
            logits, labels = await asyncio.gather(
                service.logits_async("fcnn", images),
                service.classify_async("fcnn", images))
            return logits, labels

        logits, labels = asyncio.run(drive())
        assert np.abs(logits - expected).max() <= 1e-10
        assert np.array_equal(labels, expected.argmax(axis=-1))

    def test_invalid_submissions_rejected(self, shard_service):
        service, _model, images, _expected = shard_service
        with pytest.raises(KeyError, match="deploy"):
            service.submit("ghost", images)
        with pytest.raises(ValueError, match="zero-sample"):
            service.submit("fcnn", np.zeros((0, *IMAGE_SHAPE)))
        with pytest.raises(ValueError, match="slab capacity"):
            service.submit("fcnn", np.zeros((9, *IMAGE_SHAPE)))  # max_batch=8
        with pytest.raises(ValueError, match="sample"):
            service.submit("fcnn", np.zeros((4, 4)))

    def test_pending_counters_return_to_zero(self, shard_service):
        service, _model, images, _expected = shard_service
        futures = [service.submit("fcnn", images) for _ in range(3)]
        for future in futures:
            future.result(timeout=60)
        lane_stats = service.stats()["fcnn"]
        assert lane_stats["pending_samples"] == 0

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            ShardedInferenceService(workers=0)

    def test_start_method_is_not_an_option(self):
        # workers always start by spawn, the one method they are audited for;
        # the keyword is refused before any lane or process exists
        with pytest.raises(TypeError):
            ShardedInferenceService(workers=1, context="fork")

    def test_closed_service_rejects_deploys_and_requests(self):
        # closed before any deploy: the checks below must fire before a lane
        # (and its worker processes) is built
        service = ShardedInferenceService(workers=1)
        assert service.close() is True
        sample = np.zeros((1, *IMAGE_SHAPE))
        with pytest.raises(RuntimeError, match="service is closed"):
            service.deploy("fcnn", tiny_fcnn(), "SI", image_shape=IMAGE_SHAPE)
        with pytest.raises(RuntimeError, match="service is closed"):
            service.submit("fcnn", sample)
        with pytest.raises(RuntimeError, match="service is closed"):
            service.logits("fcnn", sample)
        with pytest.raises(RuntimeError, match="service is closed"):
            service.classify("fcnn", sample)
        assert service.stats() == {}


class TestLifecycle:
    def test_admission_control_and_slab_unlink(self):
        # one replica, a long flush window and a 2-sample admission bound:
        # the first two single-sample requests are admitted and sit in the
        # flush window, the third must fast-fail
        service = ShardedInferenceService(workers=1, max_batch=8,
                                          max_latency_s=0.25,
                                          max_queue_samples=2)
        try:
            model = tiny_fcnn()
            service.deploy("fcnn", model, "SI", image_shape=IMAGE_SHAPE)
            sample = np.zeros((1, *IMAGE_SHAPE))
            admitted = [service.submit("fcnn", sample), service.submit("fcnn", sample)]
            with pytest.raises(ServiceOverloadedError, match="overloaded"):
                service.submit("fcnn", sample)
            for future in admitted:
                future.result(timeout=60)
            # the bound frees as futures resolve
            service.submit("fcnn", sample).result(timeout=60)
            assert service.stats()["fcnn"]["rejected"] == 1
            names = service.slab_names("fcnn")
            assert all(segment_exists(name) for name in names)
        finally:
            assert service.close() is True
        # shutdown must unlink every shared-memory slab (no /dev/shm leaks)
        assert all(not segment_exists(name) for name in names)

    def test_redeploy_is_drain_then_swap(self):
        model = tiny_fcnn()
        images = np.random.default_rng(11).normal(size=(2, *IMAGE_SHAPE))
        with ShardedInferenceService(workers=1, max_batch=8,
                                     max_latency_s=0.1) as service:
            service.deploy("fcnn", model, "SI", image_shape=IMAGE_SHAPE)
            old_slabs = service.slab_names("fcnn")
            old_pids = [stats["pid"] for stats
                        in service.stats()["fcnn"]["replicas"].values()]
            # a request sitting in the old lane's flush window when the
            # redeploy lands must still resolve (drain before teardown)
            in_flight = service.submit("fcnn", images)
            service.deploy("fcnn", model, "SI", image_shape=IMAGE_SHAPE)
            assert in_flight.result(timeout=60) is not None
            # old workers and slabs are gone, new lane serves traffic
            assert all(not segment_exists(name) for name in old_slabs)
            new_pids = [stats["pid"] for stats
                        in service.stats()["fcnn"]["replicas"].values()]
            assert set(new_pids).isdisjoint(old_pids)
            expected = repro.compile(model).predict_logits(images, get_scheme("SI"))
            assert np.abs(service.logits("fcnn", images) - expected).max() <= 1e-10

    def test_submit_holding_the_pre_swap_lane_reaches_the_new_lane(self, monkeypatch):
        """A request that looked its lane up just before a redeploy retired
        it is handed to the lane now registered under the key."""
        model = tiny_fcnn()
        images = np.random.default_rng(23).normal(size=(3, *IMAGE_SHAPE))
        with ShardedInferenceService(workers=1, max_batch=8,
                                     max_latency_s=0.001) as service:
            service.deploy("fcnn", model, "SI", image_shape=IMAGE_SHAPE)
            stale = service.lane("fcnn")
            service.redeploy("fcnn")        # closes `stale` and its batchers
            current = service.lane("fcnn")
            assert current is not stale
            # the next lookup returns the lane as it was before the swap,
            # exactly what a submit racing the redeploy would have seen
            lookups = [stale]
            lookup = service.lane
            monkeypatch.setattr(service, "lane", lambda key: lookups.pop()
                                if lookups else lookup(key))
            got = service.logits("fcnn", images)
            assert not lookups
            assert np.abs(got - oracle_logits(model, images)).max() <= 1e-10
            assert stale.stats()["pending_samples"] == 0
            assert current.stats()["pending_samples"] == 0
            assert sum(replica["requests"] for replica
                       in current.stats()["replicas"].values()) == 1
            # once the service closes, the same stale lookup fails the way
            # every other call on a closed service does
            lookups.append(current)
            service.close()
            with pytest.raises(RuntimeError, match="service is closed"):
                service.submit("fcnn", images)

    def test_clients_racing_redeploys_all_resolve(self):
        """More client threads than cores submit through two redeploys with
        a tiny switch interval; every request resolves to oracle logits."""
        import sys

        model = tiny_fcnn()
        images = np.random.default_rng(31).normal(size=(2, *IMAGE_SHAPE))
        expected = oracle_logits(model, images)
        results, errors = [], []
        swaps_done = threading.Event()
        interval = sys.getswitchinterval()
        with ShardedInferenceService(workers=1, max_batch=8,
                                     max_latency_s=0.001) as service:
            service.deploy("fcnn", model, "SI", image_shape=IMAGE_SHAPE)

            def client():
                try:
                    while not swaps_done.is_set():
                        results.append(service.submit("fcnn", images)
                                       .result(timeout=60))
                except Exception as error:  # noqa: BLE001 -- asserted below
                    errors.append(error)

            clients = [threading.Thread(target=client) for _ in range(6)]
            sys.setswitchinterval(1e-6)
            try:
                for thread in clients:
                    thread.start()
                for _ in range(2):
                    service.redeploy("fcnn")
            finally:
                swaps_done.set()
                sys.setswitchinterval(interval)
                for thread in clients:
                    thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in clients)
            assert service.stats()["fcnn"]["pending_samples"] == 0
        assert errors == []
        assert len(results) >= len(clients)
        for logits in results:
            assert np.abs(logits - expected).max() <= 1e-10


class TestWorkerAutoRestart:
    def _kill_replica(self, service, key="fcnn"):
        """SIGKILL the lane's only worker process; returns its pid."""
        import os
        import signal
        import time

        lane = service.lane(key)
        [replica] = lane.replicas
        pid = replica.process.pid
        os.kill(pid, signal.SIGKILL)
        replica.process.join(timeout=10)
        assert not replica.process.is_alive()
        return pid

    def test_crashed_replica_respawns_and_serves(self):
        model = tiny_fcnn()
        images = np.random.default_rng(13).normal(size=(2, *IMAGE_SHAPE))
        expected = repro.compile(model).predict_logits(images, get_scheme("SI"))
        with ShardedInferenceService(workers=1, max_batch=8,
                                     max_latency_s=0.001,
                                     max_worker_restarts=2) as service:
            service.deploy("fcnn", model, "SI", image_shape=IMAGE_SHAPE)
            old_pid = self._kill_replica(service)
            # the request in flight when the crash surfaces still fails
            # loudly, with the worker's death in the message
            with pytest.raises(WorkerError, match="died mid-request"):
                service.logits("fcnn", images)
            # ...but the lane respawned the slot: new pid, served traffic
            assert np.abs(service.logits("fcnn", images) - expected).max() <= 1e-10
            stats = service.stats()["fcnn"]
            assert stats["restarts_used"] == 1
            [replica_stats] = stats["replicas"].values()
            assert replica_stats["alive"] and replica_stats["restarts"] == 1
            assert replica_stats["pid"] != old_pid

    def test_restart_budget_is_bounded(self):
        model = tiny_fcnn()
        sample = np.random.default_rng(17).normal(size=IMAGE_SHAPE)
        with ShardedInferenceService(workers=1, max_batch=8,
                                     max_latency_s=0.001,
                                     max_worker_restarts=0) as service:
            service.deploy("fcnn", model, "SI", image_shape=IMAGE_SHAPE)
            self._kill_replica(service)
            # no budget: the slot stays dead and every request fails fast
            for _ in range(2):
                with pytest.raises(WorkerError, match="died mid-request"):
                    service.logits("fcnn", sample)
            stats = service.stats()["fcnn"]
            assert stats["restarts_used"] == 0
            [replica_stats] = stats["replicas"].values()
            assert not replica_stats["alive"] and replica_stats["restarts"] == 0

    def test_worker_batch_error_does_not_restart(self):
        """A live worker failing one batch keeps its process (no respawn)."""
        model = tiny_fcnn()
        images = np.random.default_rng(19).normal(size=(2, *IMAGE_SHAPE))
        with ShardedInferenceService(workers=1, max_batch=8,
                                     max_latency_s=0.001,
                                     max_worker_restarts=2) as service:
            service.deploy("fcnn", model, "SI", image_shape=IMAGE_SHAPE)
            lane = service.lane("fcnn")
            [replica] = lane.replicas
            pid = replica.process.pid
            # an oversized shape the worker-side predict will choke on
            # crosses admission (sample count is fine) but errors in-process
            bad = np.zeros((1, 2, *IMAGE_SHAPE[1:]))    # wrong channel count
            with pytest.raises(WorkerError, match="failed a batch"):
                service.logits("fcnn", bad)
            stats = service.stats()["fcnn"]
            assert stats["restarts_used"] == 0
            [replica_stats] = stats["replicas"].values()
            assert replica_stats["alive"] and replica_stats["pid"] == pid
            expected = repro.compile(model).predict_logits(images, get_scheme("SI"))
            assert np.abs(service.logits("fcnn", images) - expected).max() <= 1e-10

    def test_respawn_serves_deploy_time_weights(self):
        """A respawned replica rebuilds from the spec pickled at deploy, not
        from the live model, so it serves the same weights as its siblings."""
        model = tiny_fcnn()
        images = np.random.default_rng(29).normal(size=(2, *IMAGE_SHAPE))
        expected = oracle_logits(model, images)
        with ShardedInferenceService(workers=1, max_batch=8,
                                     max_latency_s=0.001,
                                     max_worker_restarts=1) as service:
            service.deploy("fcnn", model, "SI", image_shape=IMAGE_SHAPE)
            for parameter in model.parameters():
                parameter.data += 0.5
            assert np.abs(oracle_logits(model, images) - expected).max() > 1e-3
            self._kill_replica(service)
            with pytest.raises(WorkerError, match="died mid-request"):
                service.logits("fcnn", images)
            assert service.stats()["fcnn"]["restarts_used"] == 1
            assert np.abs(service.logits("fcnn", images) - expected).max() <= 1e-12


def _rule_threads(replicas: int) -> int:
    """The thread rule, restated: the CPU affinity split across the lane's
    replicas, capped by a lower inherited OPENBLAS/OMP thread count."""
    count = max(1, len(os.sched_getaffinity(0)) // replicas)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "")
        if value.isdigit() and int(value) >= 1:
            count = min(count, int(value))
    return count


# A replica SIGKILLed right after start(), before it has read its spec: the
# spec (a 128x128 complex layer, several pipe buffers) leaves the requests
# queue's feeder thread blocked in a pipe write that no one will ever drain.
KILLED_BEFORE_SPEC = """
import os, signal
import numpy as np
from repro.models import ComplexFCNN
from repro.serve import ShardedInferenceService, WorkerError, shard

start = shard._Replica.start

def start_then_kill(replica):
    start(replica)
    os.kill(replica.process.pid, signal.SIGKILL)

shard._Replica.start = start_then_kill
model = ComplexFCNN(128, (128,), 10, rng=np.random.default_rng(0))
service = ShardedInferenceService(workers=1, max_worker_restarts=0)
try:
    service.deploy("fcnn", model, "SI", image_shape=(1, 16, 16))
except WorkerError as error:
    print("WorkerError:", error)
service.close()
"""


class TestStartup:
    def test_replicas_report_thread_rule_and_startup_time(self, shard_service):
        service = shard_service[0]
        replicas = service.stats()["fcnn"]["replicas"]
        assert len(replicas) == 2
        for stats in replicas.values():
            assert stats["blas_threads"] == _rule_threads(2)
            assert stats["startup_s"] > 0

    def test_thread_rule_only_lowers_to_an_inherited_count(self, monkeypatch):
        from repro.serve.worker import blas_threads

        cores = len(os.sched_getaffinity(0))
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        assert blas_threads(1) == cores
        assert blas_threads(cores + 1) == 1
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(cores + 4))   # higher: ignored
        monkeypatch.setenv("OMP_NUM_THREADS", "0")                   # invalid: ignored
        assert blas_threads(1) == cores
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        assert blas_threads(1) == 1

    def test_replica_killed_before_reading_its_spec_exits_cleanly(self):
        """deploy() raises a typed error and the interpreter then exits:
        the failure mode is a hang at exit, so it runs in a subprocess."""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        started = time.monotonic()
        result = subprocess.run([sys.executable, "-c", KILLED_BEFORE_SPEC],
                                env=env, capture_output=True, text=True,
                                timeout=30)
        elapsed = time.monotonic() - started
        assert result.returncode == 0, result.stderr
        assert "WorkerError: worker fcnn:r0 died during startup" in result.stdout
        assert elapsed < 10.0

    def test_unpicklable_model_fails_deploy_without_a_child(self):
        import multiprocessing

        model = tiny_fcnn()
        model.lock = threading.Lock()           # has no pickle form
        before = set(multiprocessing.active_children())
        with ShardedInferenceService(workers=2, start_timeout_s=30.0) as service:
            started = time.monotonic()
            with pytest.raises(TypeError, match="pickle"):
                service.deploy("fcnn", model, "SI", image_shape=IMAGE_SHAPE)
            assert time.monotonic() - started < 5.0
            assert set(multiprocessing.active_children()) == before
