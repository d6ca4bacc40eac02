"""Run one workload and report its metrics.

An untraced run (``--trace 0``) sets the workload up, measures it with
tracing off and tears it down in several rounds, and reports the
end-to-end metrics over all rounds.  A traced run (``--trace 1``) measures the workload
twice, untraced and then traced, each for half the time; the per-layer
metrics come from the traced half and ``trace.overhead_frac`` compares the
two.  Layers the workload does not drive are measured by a short traced
pass of the workload that owns them (see ``README.md``), so every traced
run reports every layer.

Everything but the final line of standard output is a human-readable
report; the final line is the JSON result.  The exit code is non-zero when
any operation failed, an output check failed or a hygiene check found a
leak.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from perfbench import hygiene, provenance, stats
from perfbench.spans import NullTracer, Tracer

#: seconds each workload that is not the one under test runs in a traced run
CENSUS_SECONDS = 1.0


@dataclass
class Metric:
    value: float
    unit: str
    n: Optional[int] = None
    note: str = ""


@dataclass
class Measured:
    """What one measurement of a workload produced."""

    latencies: List[float]              # seconds per operation of the latency phase
    throughputs: List[float]            # operations per second of the throughput phase
    samples: Dict[str, List[float]] = field(default_factory=dict)  # other raw samples
    state: Dict[str, Any] = field(default_factory=dict)            # for layer metrics


class Bench:
    """The run's seed, operation counters and result sink."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float):
        self.build_dir = root / ".bench_build"
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def rng(self, stream: str) -> np.random.Generator:
        """An independent generator per named input stream of this seed."""
        return np.random.default_rng([self.seed, zlib.crc32(stream.encode())])

    def operations(self, attempted: int, failed: int = 0,
                   problems: Optional[List[str]] = None) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems or [])

    def check(self, violations: List[str]) -> None:
        """One check operation; it fails when there is any violation."""
        self.operations(1, 1 if violations else 0, violations)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(bench: Bench, workload: Any):
    """Set up, measure and tear down the workload ``workload.rounds`` times.

    Spreading the set-ups and the measured time over several rounds samples
    several phases of a noisy host instead of one.
    """
    chunk = bench.seconds / workload.rounds
    setup_times: List[float] = []
    measures: List[Measured] = []
    for round_ in range(workload.rounds):
        start = time.perf_counter()
        state = workload.setup(bench)
        setup_times.append(time.perf_counter() - start)
        try:
            measures.append(workload.measure(bench, state, NullTracer(), chunk,
                                             f"round{round_}"))
        finally:
            workload.teardown(bench, state)
            state = None
            gc.collect()
    latencies = [value for measured in measures for value in measured.latencies]
    throughputs = [value for measured in measures for value in measured.throughputs]
    print("rounds: " + json.dumps({
        "setup_s": setup_times,
        "throughput_per_s": [stats.median(measured.throughputs) for measured in measures],
        "latency_p50_ms": [stats.percentile(measured.latencies, 50) * 1e3
                           for measured in measures]}))
    metrics = {
        "setup_s": Metric(stats.median(setup_times), "s", len(setup_times),
                          "median over rounds"),
        "latency_p50_ms": Metric(stats.percentile(latencies, 50) * 1e3, "ms",
                                 len(latencies), workload.latency_note),
        "throughput_per_s": Metric(stats.median(throughputs), "1/s", len(throughputs),
                                   workload.throughput_note),
        "peak_rss_mb": Metric(peak_rss_mb(), "MB", None, "benchmark process"),
    }
    return metrics, workload.report(measures)


def traced(bench: Bench, workload: Any, census: List[Any]) -> Dict[str, Metric]:
    layers: Dict[str, Metric] = {}
    for other in census:
        tracer = Tracer()
        state = other.setup(bench)
        try:
            measured = other.measure(bench, state, tracer, CENSUS_SECONDS, "census")
            layers.update({name: metric for name, metric
                           in other.layers(bench, state, tracer, measured).items()
                           if name in other.owns})
        finally:
            other.teardown(bench, state)
    tracer = Tracer()
    state = workload.setup(bench)
    try:
        half = bench.seconds / 2.0
        plain = workload.measure(bench, state, NullTracer(), half, "plain")
        measured = workload.measure(bench, state, tracer, half, "traced")
        layers.update(workload.layers(bench, state, tracer, measured))
    finally:
        workload.teardown(bench, state)
    overhead = (stats.percentile(measured.latencies, 50)
                / stats.percentile(plain.latencies, 50)) - 1.0
    layers["trace.overhead_frac"] = Metric(
        overhead, "frac", len(measured.latencies),
        "traced over untraced latency_p50 of this workload, minus 1")
    spans_path = bench.build_dir / f"spans-{bench.workload}-{bench.seed}.jsonl"
    tracer.dump(spans_path)
    return layers


def print_metrics(title: str, metrics: Dict[str, Metric]) -> None:
    print(f"== {title}")
    for name, metric in metrics.items():
        n = "" if metric.n is None else f"  n={metric.n}"
        note = f"  ({metric.note})" if metric.note else ""
        print(f"  {name:34s} {metric.value:14.6g} {metric.unit:6s}{n}{note}")


def run(root: Path, workload_name: str, seed: int, seconds: float,
        trace: bool) -> int:
    from perfbench.workloads import WORKLOADS

    bench = Bench(root, workload_name, seed, seconds)
    workload = WORKLOADS[workload_name]
    info = provenance.collect(root, workload_name, seed, seconds, trace)
    print("provenance: " + json.dumps(info, sort_keys=True))
    declared = json.loads((root / "BENCHMARK.json").read_text())
    expected = [entry["name"] for entry in declared["per_layer" if trace else "end_to_end"]]
    if trace:
        census = [other for name, other in WORKLOADS.items()
                  if name != workload_name]
        metrics = traced(bench, workload, census)
        print_metrics(f"{workload_name}: per-layer (traced)", metrics)
    else:
        metrics, report = end_to_end(bench, workload)
        report["error_rate"] = Metric(
            bench.failed / max(bench.attempted, 1), "frac", bench.attempted,
            "failed, refused or wrong-output operations over operations attempted")
        print_metrics(f"{workload_name}: end to end", metrics)
        print_metrics(f"{workload_name}: detail", report)
    missing = [name for name in expected if name not in metrics]
    bench.check([f"metric {name} was not measured" for name in missing])
    hygiene.stop_helpers()
    for problem in bench.problems[:20]:
        print(f"problem: {problem}")
    correct = bench.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": {name: {"value": metric.value, "unit": metric.unit}
                    for name, metric in metrics.items() if name in expected},
    }))
    sys.stdout.flush()
    return 0 if correct else 1
