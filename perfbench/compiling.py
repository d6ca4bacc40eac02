"""The ``compile`` workload: cold and warm builds of three model families.

Each round compiles every family cold (``repro.compile`` plus ``plan()``,
no store) and then warm from a fresh ``ArtifactStore`` instance on a store
the set-up published.  Warm logits must equal cold logits exactly and a
warm build must decompose nothing.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

import repro
from repro.assignment import get_scheme
from repro.photonics.svd_mapping import decompositions_performed
from repro.store import ArtifactStore

from perfbench import hygiene, models
from perfbench.harness import Measured, Metric
from perfbench.probes import TracedStore
from perfbench.stats import median, percentile

CHECK_IMAGES = 4


class Compile:
    name = "compile"
    rounds = 5
    latency_note = "one cold repro.compile + plan(), FCNN / LeNet-5 / ResNet-14"
    throughput_note = "warm compiles + plan() per second from a published store"
    owns = ("compile.lower_ms_p50.fcnn", "compile.lower_ms_p50.lenet5",
            "compile.lower_ms_p50.resnet", "runtime.plan_build_ms",
            "svd_mapping.decompositions", "store.key_ms_p50", "store.load_ms_p50",
            "store.save_ms", "store.hits", "store.misses", "store.quarantined")

    def setup(self, bench: Any) -> Dict[str, Any]:
        families = {}
        root = Path(tempfile.mkdtemp(prefix="store-", dir=bench.build_dir / "tmp"))
        store = ArtifactStore(root)
        for name, (image_shape, scheme_name) in models.COMPILE_FAMILIES.items():
            model = models.compile_model(name, bench.rng(f"compile.{name}"))
            repro.compile(model, store=store).plan()
            images = bench.rng(f"compile.images.{name}").normal(
                size=(CHECK_IMAGES, *image_shape))
            families[name] = (model, get_scheme(scheme_name), images)
        return {"families": families, "root": root, "roots": [root]}

    def teardown(self, bench: Any, state: Dict[str, Any]) -> None:
        for root in state["roots"]:
            bench.check(hygiene.store_leftovers(root))
            shutil.rmtree(root, ignore_errors=True)
        bench.check(hygiene.check_processes())

    def _publish(self, bench: Any, state: Dict[str, Any], tracer: Any) -> Path:
        """A store published through ``tracer``'s spans (for ``store.save``)."""
        root = Path(tempfile.mkdtemp(prefix="store-", dir=bench.build_dir / "tmp"))
        state["roots"].append(root)
        store = TracedStore(root, tracer)
        for model, _scheme, _images in state["families"].values():
            repro.compile(model, store=store).plan()
        state["stores"].append(store)
        return root

    def measure(self, bench: Any, state: Dict[str, Any], tracer: Any,
                seconds: float, part: str) -> Measured:
        state["stores"] = []
        state["warm_decompositions"] = 0
        root = self._publish(bench, state, tracer) if tracer.enabled else state["root"]
        cold: Dict[str, List[float]] = {name: [] for name in state["families"]}
        warm: Dict[str, List[float]] = {name: [] for name in state["families"]}
        problems: List[str] = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            for name, (model, scheme, images) in state["families"].items():
                with tracer.span(f"compile.cold.{name}"):
                    start = time.perf_counter()
                    with tracer.span(f"compile.lower.{name}"):
                        live = repro.compile(model)
                    with tracer.span("runtime.plan_build"):
                        live.plan()
                    cold[name].append(time.perf_counter() - start)
                store = TracedStore(root, tracer) if tracer.enabled else ArtifactStore(root)
                state["stores"].append(store)
                before = decompositions_performed()
                with tracer.span(f"compile.warm.{name}"):
                    start = time.perf_counter()
                    stored = repro.compile(model, store=store)
                    stored.plan()
                    warm[name].append(time.perf_counter() - start)
                decompositions = decompositions_performed() - before
                state["warm_decompositions"] += decompositions
                if not stored.store_hit or decompositions:
                    problems.append(f"{name}: warm compile missed the store "
                                    f"({decompositions} decompositions)")
                if not np.array_equal(stored.predict_logits(images, scheme),
                                      live.predict_logits(images, scheme)):
                    problems.append(f"{name}: warm logits differ from cold logits")
        rounds = len(cold[next(iter(cold))])
        bench.operations(2 * rounds * len(cold), len(problems), problems)
        cold_all = [value for values in cold.values() for value in values]
        warm_all = [value for values in warm.values() for value in values]
        samples = {f"cold.{name}": values for name, values in cold.items()}
        samples.update({f"warm.{name}": values for name, values in warm.items()})
        return Measured(latencies=cold_all, throughputs=[len(warm_all) / sum(warm_all)],
                        samples=samples)

    def report(self, measures: List[Measured]) -> Dict[str, Metric]:
        def pooled(key: str) -> List[float]:
            return [value for measured in measures for value in measured.samples[key]]

        report = {}
        for kind in ("cold", "warm"):
            per_model = {name: pooled(f"{kind}.{name}") for name in models.COMPILE_FAMILIES}
            report[f"compile_{kind}_ms"] = Metric(
                median([median(values) for values in per_model.values()]) * 1e3, "ms",
                sum(len(values) for values in per_model.values()),
                "median over the three models of each one's median")
            for name, values in per_model.items():
                report[f"compile_{kind}_ms.{name}"] = Metric(median(values) * 1e3, "ms",
                                                             len(values))
        return report

    def layers(self, bench: Any, state: Dict[str, Any], tracer: Any,
               measured: Measured) -> Dict[str, Metric]:
        def p50_ms(name: str) -> Metric:
            values = tracer.durations(name)
            return Metric(percentile(values, 50) * 1e3, "ms", len(values))

        stores = state["stores"]
        quarantined = sum(store.stats.corrupt for store in stores)
        quarantined += sum(len(hygiene.store_leftovers(root)) for root in state["roots"])
        layers = {f"compile.lower_ms_p50.{name}": p50_ms(f"compile.lower.{name}")
                  for name in state["families"]}
        layers.update({
            "runtime.plan_build_ms": p50_ms("runtime.plan_build"),
            "svd_mapping.decompositions": Metric(state["warm_decompositions"], "count",
                                                 None, "during warm compiles"),
            "store.key_ms_p50": p50_ms("store.key"),
            "store.load_ms_p50": p50_ms("store.load"),
            "store.save_ms": p50_ms("store.save"),
            "store.hits": Metric(sum(store.stats.hits for store in stores), "count"),
            "store.misses": Metric(sum(store.stats.misses for store in stores), "count"),
            "store.quarantined": Metric(quarantined, "count"),
        })
        return layers
