"""Tests of the serving subsystem (:mod:`repro.serve`).

Covers the dynamic micro-batcher (scatter correctness under concurrency,
flush policy, single-sample convenience, error relay, lifecycle), the LRU
program cache and the serving measurement harnesses of
:mod:`repro.experiments.serving`.  In-process serving is a compiled program
behind a :class:`DynamicBatcher`; the multi-process frontend is tested in
``tests/test_serve_shard.py``.
"""

import threading

import numpy as np
import pytest

import repro
from repro.assignment import get_scheme
from repro.core.compile import HardwareTarget
from repro.experiments.serving import measure_plan_speedup, run_serving_benchmark
from repro.models import ComplexFCNN
from repro.photonics.noise import PhaseNoiseModel
from repro.serve import DynamicBatcher, ProgramCache, cache_key
from tests.test_compile import tiny_lenet


@pytest.fixture
def lenet_program(rng):
    return repro.compile(tiny_lenet(rng)), get_scheme("CL")


class TestDynamicBatcher:
    def test_batched_results_match_direct_calls(self, lenet_program, rng):
        program, scheme = lenet_program
        requests = [rng.normal(size=(2, 3, 12, 12)) for _ in range(7)]
        expected = [program.predict_logits(images, scheme) for images in requests]
        with DynamicBatcher(program, scheme, max_batch=6, max_latency_s=0.05) as batcher:
            futures = [batcher.submit(images) for images in requests]
            for future, want in zip(futures, expected):
                assert np.allclose(future.result(timeout=30), want, atol=1e-10)

    def test_concurrent_clients_get_their_own_rows(self, lenet_program, rng):
        program, scheme = lenet_program
        pool = rng.normal(size=(24, 1, 3, 12, 12))
        expected = program.predict_logits(pool.reshape(24, 3, 12, 12), scheme)
        results = [None] * 24
        with DynamicBatcher(program, scheme, max_batch=16,
                            max_latency_s=0.005) as batcher:
            def client(worker):
                for index in range(worker, 24, 4):
                    results[index] = batcher.submit(pool[index]).result(timeout=30)

            threads = [threading.Thread(target=client, args=(w,)) for w in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        for index in range(24):
            assert np.allclose(results[index], expected[index:index + 1],
                               atol=1e-10), index

    def test_requests_coalesce_into_batches(self, lenet_program, rng):
        program, scheme = lenet_program
        with DynamicBatcher(program, scheme, max_batch=8,
                            max_latency_s=0.25) as batcher:
            futures = [batcher.submit(rng.normal(size=(1, 3, 12, 12)))
                       for _ in range(8)]
            for future in futures:
                future.result(timeout=30)
            stats = batcher.stats
        assert stats.requests == 8
        assert stats.samples == 8
        # eight one-sample requests under a generous latency budget must not
        # have run as eight separate forwards
        assert stats.batches < 8
        assert stats.max_batch_samples > 1

    def test_single_sample_results_are_squeezed(self, lenet_program, rng):
        program, scheme = lenet_program
        sample = rng.normal(size=(3, 12, 12))
        with DynamicBatcher(program, scheme, max_batch=4,
                            max_latency_s=0.001) as batcher:
            logits = batcher.logits(sample)
            label = batcher.classify(sample)
        expected = program.predict_logits(sample[None], scheme)[0]
        assert logits.shape == expected.shape
        assert np.allclose(logits, expected, atol=1e-10)
        assert label == int(expected.argmax())

    def test_classify_and_logits_mix_in_one_flush(self, lenet_program, rng):
        program, scheme = lenet_program
        images = rng.normal(size=(2, 3, 12, 12))
        with DynamicBatcher(program, scheme, max_batch=16,
                            max_latency_s=0.1) as batcher:
            logits_future = batcher.submit(images, kind="logits")
            classify_future = batcher.submit(images, kind="classify")
            logits = logits_future.result(timeout=30)
            labels = classify_future.result(timeout=30)
        assert np.array_equal(labels, logits.argmax(axis=-1))

    def test_invalid_submissions_rejected(self, lenet_program, rng):
        program, scheme = lenet_program
        with DynamicBatcher(program, scheme) as batcher:
            with pytest.raises(ValueError, match="kind"):
                batcher.submit(rng.normal(size=(1, 3, 12, 12)), kind="bogus")
            with pytest.raises(ValueError, match="batch"):
                batcher.submit(rng.normal(size=(12, 12)))

    def test_execution_errors_reach_the_caller(self, lenet_program, rng):
        program, scheme = lenet_program
        with DynamicBatcher(program, scheme, max_latency_s=0.001) as batcher:
            future = batcher.submit(rng.normal(size=(1, 5, 12, 12)))  # wrong channels
            with pytest.raises(Exception):
                future.result(timeout=30)
            # the executor thread must survive a failed flush
            good = batcher.submit(rng.normal(size=(1, 3, 12, 12)))
            good.result(timeout=30)

    def test_mismatched_shapes_fail_their_futures_not_the_worker(self, lenet_program, rng):
        # two co-batched requests whose images cannot concatenate must fail
        # with an exception on their futures, and the worker must live on
        program, scheme = lenet_program
        with DynamicBatcher(program, scheme, max_batch=8,
                            max_latency_s=0.5) as batcher:
            first = batcher.submit(rng.normal(size=(1, 3, 12, 12)))
            second = batcher.submit(rng.normal(size=(1, 3, 9, 9)))
            with pytest.raises(Exception):
                second.result(timeout=30)            # the 9x9 request must fail
            try:
                first.result(timeout=30)             # fails only if co-batched
            except Exception:
                pass
            good = batcher.submit(rng.normal(size=(1, 3, 12, 12)))
            good.result(timeout=30)

    def test_cancelled_requests_are_skipped(self, lenet_program, rng):
        program, scheme = lenet_program
        with DynamicBatcher(program, scheme, max_batch=8,
                            max_latency_s=0.2) as batcher:
            doomed = batcher.submit(rng.normal(size=(1, 3, 12, 12)))
            kept = batcher.submit(rng.normal(size=(1, 3, 12, 12)))
            cancelled = doomed.cancel()
            kept.result(timeout=30)                  # worker survived the cancel
            if cancelled:
                assert doomed.cancelled()
            assert batcher.stats.requests >= 1

    def test_closed_batcher_rejects_submissions(self, lenet_program, rng):
        program, scheme = lenet_program
        batcher = DynamicBatcher(program, scheme)
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(rng.normal(size=(1, 3, 12, 12)))

    def test_invalid_policy_rejected(self, lenet_program):
        program, scheme = lenet_program
        with pytest.raises(ValueError):
            DynamicBatcher(program, scheme, max_batch=0)
        with pytest.raises(ValueError):
            DynamicBatcher(program, scheme, max_latency_s=-1.0)

    def test_noisy_program_scatter_keeps_trials_axes(self, lenet_program, rng):
        program, scheme = lenet_program
        noisy = program.with_noise(noise=PhaseNoiseModel.seeded(0.02, seed=3),
                                   trials=3)
        images = rng.normal(size=(2, 3, 12, 12))
        expected = noisy.predict_logits(images, scheme)
        with DynamicBatcher(noisy, scheme, max_batch=2,
                            max_latency_s=0.001) as batcher:
            got = batcher.submit(images).result(timeout=30)
        assert got.shape == expected.shape           # (trials, batch, classes)
        assert np.allclose(got, expected, atol=1e-10)


class _StubProgram:
    """Predictable in-test stand-in for a compiled program."""

    def __init__(self, fn):
        self._fn = fn

    def predict_logits(self, images, scheme):
        return self._fn(np.asarray(images))


def _identity_logits(images):
    return images.reshape(images.shape[0], -1)


class TestBatcherEdgeCases:
    """Edge semantics the sharded frontend builds on."""

    def test_zero_sample_request_rejected(self):
        with DynamicBatcher(_StubProgram(_identity_logits), None) as batcher:
            with pytest.raises(ValueError, match="zero-sample"):
                batcher.submit(np.zeros((0, 1, 2, 2)))

    def test_oversized_request_runs_alone(self):
        with DynamicBatcher(_StubProgram(_identity_logits), None, max_batch=4,
                            max_latency_s=0.2) as batcher:
            big = batcher.submit(np.ones((10, 1, 2, 2)))
            small = batcher.submit(np.ones((1, 1, 2, 2)))
            big.result(timeout=30)
            small.result(timeout=30)
            stats = batcher.stats
        # the 10-sample request must not have been co-batched with anything
        assert stats.max_batch_samples == 10
        assert stats.batches == 2

    def test_exception_fans_out_to_every_cobatched_future(self):
        def explode(images):
            raise RuntimeError("mesh on fire")

        with DynamicBatcher(_StubProgram(explode), None, max_batch=8,
                            max_latency_s=0.2) as batcher:
            futures = [batcher.submit(np.ones((1, 1, 2, 2))) for _ in range(3)]
            for future in futures:
                with pytest.raises(RuntimeError, match="mesh on fire"):
                    future.result(timeout=30)

    def test_cancelled_future_is_skipped(self):
        release, entered = threading.Event(), threading.Event()

        def blocked(images):
            entered.set()
            release.wait(10)
            return _identity_logits(images)

        with DynamicBatcher(_StubProgram(blocked), None, max_batch=1) as batcher:
            first = batcher.submit(np.ones((1, 1, 2, 2)))
            assert entered.wait(10)              # worker is executing the first
            doomed = batcher.submit(np.ones((1, 1, 2, 2)))
            kept = batcher.submit(np.ones((1, 1, 2, 2)))
            assert doomed.cancel()               # still queued, so cancellable
            release.set()
            first.result(timeout=30)
            kept.result(timeout=30)
            assert doomed.cancelled()
            stats = batcher.stats
        # the cancelled request never reached the program
        assert stats.requests == 2

    def test_close_drains_queued_requests(self):
        release, entered = threading.Event(), threading.Event()

        def blocked(images):
            entered.set()
            release.wait(10)
            return _identity_logits(images)

        batcher = DynamicBatcher(_StubProgram(blocked), None, max_batch=1)
        first = batcher.submit(np.ones((1, 1, 2, 2)))
        assert entered.wait(10)
        queued = [batcher.submit(np.ones((1, 1, 2, 2))) for _ in range(3)]
        # close with the worker still blocked: it must report a failed join,
        # then drain the queue and join once the program unblocks
        assert batcher.close(timeout=0.05) is False
        release.set()
        assert batcher.close() is True
        for future in [first, *queued]:
            assert future.result(timeout=1) is not None

    def test_stats_snapshot_is_decoupled(self):
        with DynamicBatcher(_StubProgram(_identity_logits), None,
                            max_latency_s=0.001) as batcher:
            batcher.submit(np.ones((2, 1, 2, 2))).result(timeout=30)
            snapshot = batcher.stats
            snapshot.requests = 10_000           # mutating the copy is harmless
            assert batcher.stats.requests == 1
            assert batcher.stats.as_dict()["samples"] == 2


class TestProgramCache:
    def test_hit_returns_same_program(self, rng):
        model = tiny_lenet(rng)
        cache = ProgramCache(capacity=4)
        first = cache.get_or_compile("lenet", model)
        second = cache.get_or_compile("lenet", model)
        assert first is second
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_distinct_policies_get_distinct_entries(self, rng):
        model = tiny_lenet(rng)
        cache = ProgramCache(capacity=4)
        clean = cache.get_or_compile("lenet", model)
        noisy = cache.get_or_compile("lenet", model, target=HardwareTarget(
            noise=PhaseNoiseModel.seeded(0.01, seed=3), trials=1))
        reck = cache.get_or_compile("lenet", model,
                                    target=HardwareTarget(method="reck"))
        assert clean is not noisy and clean is not reck
        assert len(cache) == 3

    def test_lru_eviction(self, rng):
        cache = ProgramCache(capacity=2)
        models = {key: ComplexFCNN(8, (6,), 3, decoder="merge", rng=rng)
                  for key in ("a", "b", "c")}
        cache.get_or_compile("a", models["a"])
        cache.get_or_compile("b", models["b"])
        cache.get_or_compile("a", models["a"])       # refresh "a"
        cache.get_or_compile("c", models["c"])       # evicts "b"
        assert cache.stats.evictions == 1
        assert cache.get("b") is None
        assert cache.get("a") is not None

    def test_factory_only_called_on_miss(self, rng):
        calls = []

        def factory():
            calls.append(1)
            return ComplexFCNN(8, (6,), 3, decoder="merge", rng=rng)

        cache = ProgramCache(capacity=2)
        cache.get_or_compile("fcnn", factory)
        cache.get_or_compile("fcnn", factory)
        assert len(calls) == 1

    def test_concurrent_misses_compile_once(self, rng):
        import time

        calls = []

        def slow_factory():
            calls.append(1)
            time.sleep(0.05)
            return ComplexFCNN(8, (6,), 3, decoder="merge", rng=rng)

        cache = ProgramCache(capacity=2)
        programs = [None] * 4

        def deploy(worker):
            programs[worker] = cache.get_or_compile("fcnn", slow_factory)

        threads = [threading.Thread(target=deploy, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(calls) == 1                      # single-flight compile
        assert all(program is programs[0] for program in programs)

    def test_failed_compile_releases_the_key(self, rng):
        cache = ProgramCache(capacity=2)

        def broken_factory():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            cache.get_or_compile("fcnn", broken_factory)
        # the in-flight marker must be gone so a later deploy can succeed
        program = cache.get_or_compile(
            "fcnn", ComplexFCNN(8, (6,), 3, decoder="merge", rng=rng))
        assert program is not None

    def test_miss_without_model_raises(self):
        with pytest.raises(KeyError):
            ProgramCache().get_or_compile("ghost")

    def test_noise_targets_key_by_identity(self):
        noise = PhaseNoiseModel.seeded(0.01, seed=0)
        with_noise = HardwareTarget(noise=noise, trials=2)
        assert cache_key("m", with_noise) == cache_key("m", with_noise)
        other = HardwareTarget(noise=PhaseNoiseModel.seeded(0.01, seed=0), trials=2)
        assert cache_key("m", with_noise) != cache_key("m", other)

    def test_cached_program_plan_is_warm(self, rng):
        cache = ProgramCache()
        program = cache.get_or_compile("lenet", tiny_lenet(rng))
        assert program.graph._plan is not None

    def test_invalidate_drops_one_entry(self, rng):
        cache = ProgramCache(capacity=4)
        stale = cache.get_or_compile("lenet", tiny_lenet(rng))
        assert cache.invalidate("lenet") is True
        assert cache.invalidate("lenet") is False      # already gone
        fresh = cache.get_or_compile("lenet", tiny_lenet(rng))
        assert fresh is not stale


class TestServingBenchmarkHarness:
    def test_benchmark_reports_consistent_counts(self, rng):
        program = repro.compile(ComplexFCNN(18, (10,), 4, decoder="merge", rng=rng))
        row = run_serving_benchmark(program, get_scheme("SI"),
                                    image_shape=(1, 6, 6), requests=12,
                                    clients=3, max_batch=8, max_latency_s=0.005)
        assert row.batcher["requests"] == 12
        assert row.batcher["samples"] == 12
        assert row.sequential_requests_per_s > 0
        assert row.batched_requests_per_s > 0

    def test_repeated_waves_all_reach_the_batcher(self, rng):
        program = repro.compile(ComplexFCNN(18, (10,), 4, decoder="merge", rng=rng))
        row = run_serving_benchmark(program, get_scheme("SI"),
                                    image_shape=(1, 6, 6), requests=12,
                                    clients=3, max_batch=8, max_latency_s=0.005,
                                    repeats=3)
        # the stats cover every wave; the timings are each side's best wave
        assert row.batcher["requests"] == 36
        assert row.batcher["samples"] == 36
        assert row.throughput_gain == pytest.approx(
            row.sequential_seconds / row.batched_seconds)

    def test_plan_speedup_reports_parity_and_plan_shape(self, lenet_program, rng):
        program, scheme = lenet_program
        row = measure_plan_speedup(program, rng.normal(size=(4, 3, 12, 12)),
                                   scheme, repeats=1)
        assert row["batch"] == 4
        assert row["max_deviation"] <= 1e-12
        assert row["instructions"] == program.plan().instruction_count
        assert row["walk_seconds"] > 0 and row["plan_seconds"] > 0


class TestOneServingFrontend:
    def test_serve_exports_one_frontend_and_no_harnesses(self):
        import importlib

        import repro.serve as serve

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.serve.service")
        frontends = [name for name in serve.__all__ if name.endswith("Service")]
        assert frontends == ["ShardedInferenceService"]
        assert not [name for name in serve.__all__
                    if name.startswith(("run_", "measure_")) or name.endswith("Row")]
