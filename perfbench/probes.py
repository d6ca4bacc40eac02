"""Benchmark-side stand-ins that put spans around public calls.

Each probe calls the same public entry points the system would call itself,
in the same order, so a traced run executes the same work as an untraced
one plus the spans.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from typing import Any, Deque, Iterator, List, Optional, Tuple

import numpy as np

from repro.store import ArtifactStore


class StagedPredictor:
    """``predict_logits`` of a compiled program, one span per layer.

    :class:`~repro.serve.DynamicBatcher` accepts any object with
    ``predict_logits(images, scheme)``; this one runs the four steps of
    :meth:`CompiledProgram.predict_logits` -- ``scheme.assign``,
    ``encoder.encode``, ``ExecutionPlan.execute`` and the readout -- each in
    its own span under one ``flush`` span.

    ``pending`` holds the submit times of queued requests in submit order
    (``(samples, submit_time)``); the batcher drains whole requests in that
    order, so a flush of ``n`` samples starts the queue wait of the first
    requests covering ``n`` samples; a request's sequence number in that
    order is the trace id of its queue-wait span.
    """

    def __init__(self, program: Any, tracer: Any):
        self.program = program
        self.tracer = tracer
        self.execution_plan = program.plan()
        self.pending: Deque[Tuple[int, float]] = deque()
        self.queue_waits: List[float] = []
        self._request_ids = itertools.count()

    def predict_logits(self, images: np.ndarray, scheme: Any) -> np.ndarray:
        tracer = self.tracer
        with tracer.span("flush") as flush_id:
            start = time.perf_counter()
            samples = images.shape[0]
            while samples > 0 and self.pending:
                count, submitted = self.pending.popleft()
                samples -= count
                self.queue_waits.append(start - submitted)
                tracer.record("batcher.queue_wait", submitted, start, parent=flush_id,
                              trace=next(self._request_ids))
            program = self.program
            with tracer.span("assignment.assign"):
                assignment = scheme.assign(images)
            with tracer.span("encoders.encode"):
                real, imag = assignment.real, assignment.imag
                if program.input_kind != "image":
                    real = real.reshape(real.shape[0], -1)
                    imag = imag.reshape(imag.shape[0], -1)
                signal = program.encoder.encode(real, imag)
            with tracer.span("runtime.execute"):
                output = self.execution_plan.execute(signal)
            with tracer.span("readout"):
                return program.readout(output)


class TracedStore(ArtifactStore):
    """An :class:`ArtifactStore` whose key, load and save calls are spans."""

    def __init__(self, root, tracer: Any):
        super().__init__(root)
        self.tracer = tracer

    def try_key_for(self, *args, **kwargs) -> Optional[str]:
        with self.tracer.span("store.key"):
            return super().try_key_for(*args, **kwargs)

    def load(self, *args, **kwargs):
        with self.tracer.span("store.load"):
            return super().load(*args, **kwargs)

    def save(self, *args, **kwargs):
        with self.tracer.span("store.save"):
            return super().save(*args, **kwargs)


class TimedBatches:
    """Cycle a ``DataLoader`` until a deadline, timing the loader and the step.

    Trainers iterate ``for images, labels in loader``; the time between
    handing out a batch and being asked for the next is the trainer's step.
    """

    def __init__(self, loader: Any, seconds: float, tracer: Any, name: str):
        self.loader = loader
        self.seconds = seconds
        self.tracer = tracer
        self.name = name
        self.loader_times: List[float] = []
        self.step_times: List[float] = []
        self.samples = 0
        self.elapsed = 0.0

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        begin = time.perf_counter()
        deadline = begin + self.seconds
        handed_out: Optional[float] = None
        batches = iter(self.loader)
        while True:
            asked = time.perf_counter()
            if handed_out is not None:
                self.step_times.append(asked - handed_out)
                self.tracer.record(self.name, handed_out, asked)
            if asked >= deadline:
                self.elapsed = asked - begin
                return
            try:
                images, labels = next(batches)
            except StopIteration:
                batches = iter(self.loader)
                images, labels = next(batches)
            handed_out = time.perf_counter()
            self.loader_times.append(handed_out - asked)
            self.tracer.record("train.loader", asked, handed_out)
            self.samples += labels.shape[0]
            yield images, labels
