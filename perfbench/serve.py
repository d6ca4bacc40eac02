"""The two serving workloads: ``serve-conv`` and ``serve-sharded``.

Both run an open loop at a fixed mean rate (Poisson arrivals drawn from the
seed) and then a closed saturation loop, and both check sampled responses
against a reference computed another way.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

import repro
from repro.assignment import get_scheme
from repro.serve import DynamicBatcher, ShardedInferenceService

from perfbench import hygiene, loadgen, models
from perfbench.harness import Measured, Metric
from perfbench.probes import StagedPredictor
from perfbench.stats import median, percentile, summarize

PARITY = 1e-10
MAX_BATCH = 64
MAX_LATENCY_S = 0.002
OPEN_SHARE = 0.4            # of the measured seconds; the rest is saturation
WARMUP_S = 0.25
CHECKED_REQUESTS = 48       # sampled open-loop responses checked per run
POOL = 512                  # distinct images a run draws its requests from
#: largest share of flush time the stage spans may leave uncovered
FLUSH_TOLERANCE = 0.10


def _ms(values: List[float]) -> float:
    return percentile(values, 50) * 1e3


def _serve_report(measures: List[Measured]) -> Dict[str, Metric]:
    latency = summarize([value for measured in measures
                         for value in measured.latencies], scale=1e3)
    lag = summarize([value for measured in measures
                     for value in measured.samples["lag"]], scale=1e3)
    rates = [rate for measured in measures for rate in measured.throughputs]
    report = {
        "latency_p50_ms": Metric(latency["p50"], "ms", latency["n"],
                                 "open loop, from due time"),
        "throughput_samples_per_s": Metric(
            median(rates), "1/s", len(rates),
            f"closed saturation loop, median over {loadgen.WINDOW_S:g}-s windows"),
        "loadgen.lag_ms_p50": Metric(lag["p50"], "ms", lag["n"]),
    }
    if "tail" in latency:
        report[f"latency_p{latency['tail_q']:g}_ms"] = Metric(
            latency["tail"], "ms", latency["n"], "highest percentile with "
            "at least 10 samples beyond it")
    if "tail" in lag:
        report[f"loadgen.lag_ms_p{lag['tail_q']:g}"] = Metric(lag["tail"], "ms",
                                                               lag["n"])
    return report


def _count(bench: Any, *outcomes: loadgen.Outcome) -> None:
    for outcome in outcomes:
        bench.operations(outcome.attempted, outcome.failed, outcome.errors)


def _mismatches(results: Dict[int, np.ndarray], expected: Dict[int, np.ndarray]) -> List[str]:
    problems = []
    for index, logits in results.items():
        error = float(np.max(np.abs(logits - expected[index])))
        if not error <= PARITY:
            problems.append(f"request {index}: response differs from the "
                            f"reference by {error:.3g}")
    return problems


class ServeConv:
    """In-process request path: one DynamicBatcher lane in front of a ResNet."""

    name = "serve-conv"
    rounds = 5
    # requests per second.  Saturation is ~1.2k samples/s, but only in
    # batch-64 flushes; the 2 ms window forms batches of a few images, which
    # cost several ms each, so at 600 req/s the lane sits near its small-batch
    # capacity and its p50 swung 6.6-9.8 ms between seeds
    rate = 300.0
    outstanding = 128           # requests in flight in the saturation loop
    latency_note = f"request latency, open loop at {rate:g} req/s, from due time"
    throughput_note = f"samples/s, closed loop with {outstanding} requests in flight"
    owns = ("assignment.assign_ms_p50", "encoders.encode_ms_p50", "readout.ms_p50",
            "runtime.execute_ms_p50", "runtime.execute_share",
            "runtime.instructions", "runtime.fused_matmuls", "runtime.chain_stages",
            "batcher.queue_wait_ms_p50", "batcher.queue_wait_ms_p99",
            "batcher.submit_us_p50", "batcher.flush_samples_mean",
            "batcher.timeout_flush_frac", "loadgen.lag_ms_p99",
            "trace.flush_unaccounted_frac")

    def pool(self, bench: Any) -> np.ndarray:
        return bench.rng("serve-conv.images").normal(size=(POOL, 3, 12, 12))

    def setup(self, bench: Any) -> Dict[str, Any]:
        model = models.serve_resnet(bench.rng("serve-conv.model"))
        program = repro.compile(model)
        scheme = get_scheme("CL")
        batcher = DynamicBatcher(program, scheme, max_batch=MAX_BATCH,
                                 max_latency_s=MAX_LATENCY_S)
        warm = [batcher.submit(image) for image in self.pool(bench)[:MAX_BATCH]]
        for future in warm:
            future.result()
        return {"program": program, "scheme": scheme, "batcher": batcher}

    def teardown(self, bench: Any, state: Dict[str, Any]) -> None:
        state["batcher"].close()

    def measure(self, bench: Any, state: Dict[str, Any], tracer: Any,
                seconds: float, part: str) -> Measured:
        program, scheme = state["program"], state["scheme"]
        pool = self.pool(bench)
        batcher, staged = state["batcher"], None
        if tracer.enabled:
            staged = StagedPredictor(program, tracer)
            batcher = DynamicBatcher(staged, scheme, max_batch=MAX_BATCH,
                                     max_latency_s=MAX_LATENCY_S)
        rng = bench.rng(f"serve-conv.traffic.{part}")
        count = max(int(self.rate * seconds * OPEN_SHARE), 1)
        picks = rng.integers(0, POOL, size=count)
        gaps = rng.exponential(1.0 / self.rate, size=count)
        keep = np.zeros(count, dtype=bool)
        keep[rng.choice(count, size=min(CHECKED_REQUESTS, count), replace=False)] = True

        def submit_image(image: np.ndarray):
            if staged is not None:
                staged.pending.append((1, time.perf_counter()))
            with tracer.span("batcher.submit"):
                return batcher.submit(image)

        try:
            warm = loadgen.closed_loop(lambda i: submit_image(pool[i]), [1] * POOL,
                                       self.outstanding, WARMUP_S)
            waits_before = len(staged.queue_waits) if staged else 0
            stats_before = batcher.stats
            open_ = loadgen.open_loop(lambda i: submit_image(pool[picks[i]]),
                                      [1] * count, gaps, keep)
            stats_after = batcher.stats
            open_waits = staged.queue_waits[waits_before:] if staged else []
            closed = loadgen.closed_loop(lambda i: submit_image(pool[i]), [1] * POOL,
                                         self.outstanding,
                                         seconds * (1.0 - OPEN_SHARE))
        finally:
            if staged is not None:
                batcher.close()
        _count(bench, warm, open_, closed)
        checked = sorted(open_.results)
        if checked:
            images = pool[picks[checked]]
            reference = program.readout(program.graph.forward_reference(
                program.encode_images(images, scheme)))
            problems = _mismatches(open_.results, dict(zip(checked, reference)))
            bench.operations(0, len(problems), problems)
        flushes = stats_after.batches - stats_before.batches
        return Measured(
            latencies=open_.latencies,
            throughputs=closed.rates,
            samples={"lag": open_.lags},
            state={"open": open_, "open_waits": open_waits, "flushes": flushes,
                   "flush_samples": stats_after.samples - stats_before.samples,
                   "timeout_flushes": (stats_after.timeout_flushes
                                       - stats_before.timeout_flushes)})

    def report(self, measures: List[Measured]) -> Dict[str, Metric]:
        return _serve_report(measures)

    def layers(self, bench: Any, state: Dict[str, Any], tracer: Any,
               measured: Measured) -> Dict[str, Metric]:
        plan = state["program"].plan()
        flush = tracer.durations("flush")
        unaccounted = sum(tracer.self_times("flush")) / sum(flush)
        # the four stage spans must account for the flush: what is left is
        # the probe's own bookkeeping between them
        if unaccounted > FLUSH_TOLERANCE:
            bench.check([f"stage spans leave {unaccounted:.1%} of flush time "
                         f"unaccounted (tolerance {FLUSH_TOLERANCE:.0%})"])
        waits = measured.state["open_waits"]
        open_ = measured.state["open"]
        flushes = max(measured.state["flushes"], 1)

        def p50_ms(name: str) -> Metric:
            values = tracer.durations(name)
            return Metric(_ms(values), "ms", len(values))

        return {
            "assignment.assign_ms_p50": p50_ms("assignment.assign"),
            "encoders.encode_ms_p50": p50_ms("encoders.encode"),
            "readout.ms_p50": p50_ms("readout"),
            "runtime.execute_ms_p50": p50_ms("runtime.execute"),
            "runtime.execute_share": Metric(
                sum(tracer.durations("runtime.execute")) / sum(flush), "frac",
                len(flush), "plan execution over flush time"),
            "runtime.instructions": Metric(plan.instruction_count, "count"),
            "runtime.fused_matmuls": Metric(plan.fused_matmuls, "count"),
            "runtime.chain_stages": Metric(plan.chain_stages, "count"),
            "batcher.queue_wait_ms_p50": Metric(percentile(waits, 50) * 1e3, "ms",
                                                len(waits), "submit to flush start"),
            "batcher.queue_wait_ms_p99": Metric(percentile(waits, 99) * 1e3, "ms",
                                                len(waits)),
            "batcher.submit_us_p50": Metric(
                percentile(tracer.durations("batcher.submit"), 50) * 1e6, "us",
                len(tracer.durations("batcher.submit"))),
            "batcher.flush_samples_mean": Metric(
                measured.state["flush_samples"] / flushes, "count", flushes),
            "batcher.timeout_flush_frac": Metric(
                measured.state["timeout_flushes"] / flushes, "frac", flushes),
            "loadgen.lag_ms_p99": Metric(percentile(open_.lags, 99) * 1e3, "ms",
                                         len(open_.lags)),
            "trace.flush_unaccounted_frac": Metric(
                unaccounted, "frac", len(flush),
                "flush self time over flush time"),
        }


def _rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024.0
    return float("nan")


class ServeSharded:
    """Multi-process path: two worker processes behind the shm slab transport."""

    name = "serve-sharded"
    rounds = 3
    # far below saturation (~13k req/s), which one generator thread cannot
    # hold to a schedule; with 128 requests in flight every flush is full,
    # which kept saturation runs from splitting into a slow and a fast mode
    rate = 600.0
    outstanding = 128
    image_shape = (1, 12, 12)
    latency_note = (f"request latency (1-8 images), open loop at {rate:g} req/s, "
                    "from due time")
    throughput_note = f"samples/s, closed loop with {outstanding} requests in flight"
    owns = ("shard.submit_us_p50", "shard.overhead_ms_p50", "shard.route_imbalance",
            "shard.rejected", "shard.restarts_used", "shard.deploy_s",
            "shard.worker_rss_mb")

    def pool(self, bench: Any) -> np.ndarray:
        return bench.rng("serve-sharded.images").normal(size=(POOL, *self.image_shape))

    def setup(self, bench: Any) -> Dict[str, Any]:
        model = models.serve_fcnn(bench.rng("serve-sharded.model"))
        service = ShardedInferenceService(workers=2, max_batch=MAX_BATCH,
                                          max_latency_s=MAX_LATENCY_S)
        try:
            start = time.perf_counter()
            service.deploy("fcnn", model, "SI", self.image_shape)
            deploy_s = time.perf_counter() - start
            pool = self.pool(bench)
            warm = [service.submit("fcnn", pool[index:index + 8])
                    for index in range(0, 16 * 8, 8)]
            for future in warm:
                future.result()
        except BaseException:
            service.close()
            raise
        return {"model": model, "service": service, "deploy_s": deploy_s}

    def teardown(self, bench: Any, state: Dict[str, Any]) -> None:
        state["service"].close()
        reference = state.get("reference")
        if reference is not None:
            reference.close()
        bench.check(hygiene.check_processes())

    def _reference(self, state: Dict[str, Any]) -> DynamicBatcher:
        if "reference" not in state:
            state["reference"] = DynamicBatcher(
                repro.compile(state["model"]), get_scheme("SI"),
                max_batch=MAX_BATCH, max_latency_s=MAX_LATENCY_S)
        return state["reference"]

    def measure(self, bench: Any, state: Dict[str, Any], tracer: Any,
                seconds: float, part: str) -> Measured:
        service = state["service"]
        pool = self.pool(bench)
        rng = bench.rng(f"serve-sharded.traffic.{part}")
        count = max(int(self.rate * seconds * OPEN_SHARE), 1)
        sizes = rng.integers(1, 9, size=count)
        starts = rng.integers(0, POOL - 8, size=count)
        gaps = rng.exponential(1.0 / self.rate, size=count)
        keep = np.zeros(count, dtype=bool)
        keep[rng.choice(count, size=min(CHECKED_REQUESTS, count), replace=False)] = True
        saturation_sizes = [int(size) for size in sizes[:POOL]]

        def request(index: int) -> np.ndarray:
            return pool[starts[index]:starts[index] + sizes[index]]

        def submit(index: int):
            with tracer.span("shard.submit"):
                return service.submit("fcnn", request(index))

        warm = loadgen.closed_loop(submit, saturation_sizes, self.outstanding, WARMUP_S)
        before = service.stats()["fcnn"]
        open_ = loadgen.open_loop(submit, sizes, gaps, keep)
        after = service.stats()["fcnn"]
        closed = loadgen.closed_loop(submit, saturation_sizes, self.outstanding,
                                     seconds * (1.0 - OPEN_SHARE))
        _count(bench, warm, open_, closed)
        reference = self._reference(state)
        checked = sorted(open_.results)
        expected = {index: reference.submit(request(index)) for index in checked}
        problems = _mismatches(open_.results, {index: future.result(timeout=60)
                                               for index, future in expected.items()})
        bench.operations(0, len(problems), problems)
        return Measured(
            latencies=open_.latencies,
            throughputs=closed.rates,
            samples={"lag": open_.lags},
            state={"open": open_, "before": before, "after": after})

    def report(self, measures: List[Measured]) -> Dict[str, Metric]:
        return _serve_report(measures)

    def _overhead_ms(self, state: Dict[str, Any], rounds: int = 40) -> float:
        """Idle single-request round trip, sharded minus in-process."""
        service, reference = state["service"], self._reference(state)
        image = np.zeros(self.image_shape)
        times: Dict[str, List[float]] = {"sharded": [], "local": []}
        for _ in range(rounds):
            for key, call in (("sharded", lambda: service.logits("fcnn", image)),
                              ("local", lambda: reference.logits(image))):
                start = time.perf_counter()
                call()
                times[key].append(time.perf_counter() - start)
        return _ms(times["sharded"]) - _ms(times["local"])

    def layers(self, bench: Any, state: Dict[str, Any], tracer: Any,
               measured: Measured) -> Dict[str, Metric]:
        # lane and replica counters over the open loop
        before, after = measured.state["before"], measured.state["after"]
        replicas = sorted(after["replicas"])
        samples = [after["replicas"][name]["samples"] - before["replicas"][name]["samples"]
                   for name in replicas]
        batches = sum(after["replicas"][name]["batches"]
                      - before["replicas"][name]["batches"] for name in replicas)
        timeouts = sum(after["replicas"][name]["timeout_flushes"]
                       - before["replicas"][name]["timeout_flushes"]
                       for name in replicas)
        pids = [after["replicas"][name]["pid"] for name in replicas]
        submits = tracer.durations("shard.submit")
        open_ = measured.state["open"]
        plan = self._reference(state).program.plan()
        return {
            "shard.submit_us_p50": Metric(percentile(submits, 50) * 1e6, "us",
                                          len(submits)),
            "shard.overhead_ms_p50": Metric(self._overhead_ms(state), "ms", 40,
                                            "idle round trip, sharded minus in-process"),
            "shard.route_imbalance": Metric(
                (max(samples) - min(samples)) / max(np.mean(samples), 1e-9), "frac",
                len(samples), "(max - min) / mean samples per replica"),
            "shard.rejected": Metric(after["rejected"] - before["rejected"], "count"),
            "shard.restarts_used": Metric(after["restarts_used"], "count"),
            "shard.deploy_s": Metric(state["deploy_s"], "s"),
            "shard.worker_rss_mb": Metric(float(np.mean([_rss_mb(pid) for pid in pids])),
                                          "MB", len(pids), "mean over workers"),
            "batcher.flush_samples_mean": Metric(
                sum(samples) / max(batches, 1), "count", batches),
            "batcher.timeout_flush_frac": Metric(timeouts / max(batches, 1), "frac",
                                                 batches),
            "loadgen.lag_ms_p99": Metric(percentile(open_.lags, 99) * 1e3, "ms",
                                         len(open_.lags)),
            "runtime.instructions": Metric(plan.instruction_count, "count"),
            "runtime.fused_matmuls": Metric(plan.fused_matmuls, "count"),
            "runtime.chain_stages": Metric(plan.chain_stages, "count"),
        }
