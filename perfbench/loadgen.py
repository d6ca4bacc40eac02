"""Request generators: an open loop on an arrival schedule and a closed loop.

Both run on the calling thread; completions are recorded by future
callbacks on whichever thread resolves the future.  ``submit(index)``
sends request ``index`` and returns its future.

* The open loop sends request ``i`` at its due time whatever the system is
  doing (independent users), and times each request from when it was due,
  so a stall also charges the requests it delays.  How late the generator
  itself ran is reported as lag.
* The closed loop keeps ``outstanding`` requests in flight (callers that
  each wait for their reply) and reports completed samples per second.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

import numpy as np

WAIT_TIMEOUT_S = 60.0
WINDOW_S = 0.5              # the closed loop reports one rate per window


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    samples: int = 0                                 # completed samples
    elapsed: float = 0.0
    latencies: List[float] = field(default_factory=list)   # seconds, from due time
    lags: List[float] = field(default_factory=list)         # seconds late at send
    results: Dict[int, np.ndarray] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    rates: List[float] = field(default_factory=list)       # samples/s per window
    _windows: Dict[int, int] = field(default_factory=dict)  # samples per window
    _start: float = 0.0
    # completed futures are not kept, so memory does not grow with throughput
    _pending: int = 0
    _changed: threading.Condition = field(default_factory=threading.Condition)

    def _error(self, error: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(repr(error))

    def _done(self, future: Future, index: int, due: float, samples: int,
              keep: bool) -> None:
        finished = time.perf_counter()
        error = future.exception()
        with self._changed:
            self._pending -= 1
            self._changed.notify_all()
            if error is not None:
                self._error(error)
                return
            self.latencies.append(finished - due)
            self.samples += samples
            window = int((finished - self._start) / WINDOW_S)
            self._windows[window] = self._windows.get(window, 0) + samples
            self.elapsed = max(self.elapsed, finished)
            if keep:
                self.results[index] = future.result()

    def _send(self, submit: Callable[[int], Future], index: int, due: float,
              samples: int, keep: bool = False) -> None:
        with self._changed:
            self.attempted += 1
            self._pending += 1
        try:
            future = submit(index)
        except Exception as error:  # noqa: BLE001 -- refused: counted, not raised
            with self._changed:
                self._pending -= 1
                self._error(error)
            return
        future.add_done_callback(
            lambda f: self._done(f, index, due, samples, keep))

    def _finish(self, start: float) -> None:
        with self._changed:
            if not self._changed.wait_for(lambda: self._pending == 0,
                                          timeout=WAIT_TIMEOUT_S):
                self.failed += self._pending
                self.errors.append(f"{self._pending} requests unresolved after "
                                   f"{WAIT_TIMEOUT_S}s")
            self.elapsed = max(self.elapsed - start, 0.0)


def open_loop(submit: Callable[[int], Future], sizes: Sequence[int],
              gaps: Sequence[float], keep: Sequence[bool]) -> Outcome:
    """Send request ``i`` ``sum(gaps[:i + 1])`` seconds after the start."""
    outcome = Outcome()
    start = time.perf_counter()
    due = start
    for index, gap in enumerate(gaps):
        due += gap
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        outcome.lags.append(time.perf_counter() - due)
        outcome._send(submit, index, due, sizes[index], keep[index])
    outcome._finish(start)
    return outcome


def closed_loop(submit: Callable[[int], Future], sizes: Sequence[int],
                outstanding: int, seconds: float) -> Outcome:
    """Keep ``outstanding`` requests in flight for ``seconds``.

    ``rates`` holds the completion rate of every whole window before the
    deadline (the drain after it is not saturated), or of the whole loop
    when it is shorter than one window.
    """
    outcome = Outcome()
    start = outcome._start = time.perf_counter()
    deadline = start + seconds
    index = 0
    while time.perf_counter() < deadline:
        with outcome._changed:
            if not outcome._changed.wait_for(lambda: outcome._pending < outstanding,
                                             timeout=WAIT_TIMEOUT_S):
                break
        request = index % len(sizes)
        outcome._send(submit, request, time.perf_counter(), sizes[request])
        index += 1
    outcome._finish(start)
    outcome.rates = ([outcome._windows.get(window, 0) / WINDOW_S
                      for window in range(int(seconds / WINDOW_S))]
                     or [outcome.samples / outcome.elapsed])
    return outcome
