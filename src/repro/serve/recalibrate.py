"""Online drift detection and zero-downtime recalibration.

Closes the loop the scenario suite opens: a deployed mesh that drifts
(injected via :class:`~repro.serve.drift.DriftInjector` in tests, thermal
reality in the field) degrades every logit it returns, and nothing in the
crash-handling stack notices -- the workers are alive and answering, just
wrong.  :class:`RecalibrationManager` watches the only signal a production
service actually has, the logits it is already returning, and heals the
lane without taking it offline:

1. **Reference.**  At attach time the manager compiles the lane's model
   clean (store-aware, so warm hosts pay milliseconds) and records the
   per-class mean logit over a calibration batch, plus the logit scale.
2. **Monitor.**  It installs itself as the lane's ``logit_monitor``: every
   successfully served logits batch folds into an exponentially weighted
   moving average of the per-class mean.  No extra traffic, no probe
   requests on the hot path.
3. **Detect.**  The drift score is the worst per-class deviation of that
   EWMA from the clean reference, in units of the reference logit scale.
   Past ``threshold`` (after ``min_batches`` observations) the lane is
   declared drifted.
4. **Heal.**  Recalibration is re-nulling the mesh: the manager calls
   ``service.redeploy(model_key)``, which rebuilds the lane from its own
   recorded deploy arguments -- fresh workers re-derive the clean phases
   through the store-aware compile path (scenario clocks return to zero,
   the model of a re-nulled device) and traffic drain-then-swaps onto
   them.  Requests keep flowing the whole time: the old lane serves until
   the new one is ready, then drains.  The manager re-attaches to the new
   lane and the EWMA starts over.

``start()`` runs detect-and-heal on a background thread;  ``check()`` and
``recalibrate()`` expose the same steps synchronously for tests and CLIs.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Optional

import numpy as np

from repro.serve.shard import ShardedInferenceService, _scheme_name


class RecalibrationManager:
    """Detect logit-statistics drift on a lane and redeploy it in place.

    Parameters
    ----------
    service, model_key:
        The sharded service and the deployed lane to guard.
    calibration_images:
        A batch representative of live traffic; the clean reference
        statistics are computed over it.
    ewma_alpha:
        Weight of each new batch in the moving average (smaller = smoother,
        slower to detect).
    threshold:
        Drift score that triggers recalibration, in units of the clean
        logit scale (standard deviations of the reference logits).
    min_batches:
        Observations required before the score is trusted -- also the
        post-recalibration cooldown, since re-attaching resets the EWMA.
    check_interval_s:
        Poll period of the background loop started by :meth:`start`.
    """

    def __init__(self, service: ShardedInferenceService, model_key: str,
                 calibration_images: np.ndarray, ewma_alpha: float = 0.2,
                 threshold: float = 0.25, min_batches: int = 3,
                 check_interval_s: float = 0.25):
        if not 0 < ewma_alpha <= 1:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self.service = service
        self.model_key = model_key
        self.ewma_alpha = float(ewma_alpha)
        self.threshold = float(threshold)
        self.min_batches = int(min_batches)
        self.check_interval_s = float(check_interval_s)
        self._lock = threading.Lock()
        self._ewma: Optional[np.ndarray] = None
        self._batches = 0
        self.recalibrations = 0
        self.last_latency_s: Optional[float] = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self.reference_mean, self.reference_scale = self._clean_reference(
            np.asarray(calibration_images))
        self.attach()

    # ------------------------------------------------------------------ #
    # reference statistics (clean compile, store-aware)
    # ------------------------------------------------------------------ #
    def _clean_reference(self, images: np.ndarray):
        import repro
        from repro.assignment import get_scheme

        args = self.service.lane(self.model_key).deploy_args
        if args is None:
            raise RuntimeError(f"lane {self.model_key!r} has no recorded "
                               "deploy arguments to compile a reference from")
        store = None
        if self.service.store_path is not None:
            from repro.store import ArtifactStore

            store = ArtifactStore(self.service.store_path)
        from repro.nn.module import Module

        model = args["model"]
        # modules are callable, so only non-module callables are factories
        if callable(model) and not isinstance(model, Module):
            model = model()
        program = repro.compile(model, target=args["target"],
                                options=args["options"], store=store)
        logits = program.predict_logits(images, get_scheme(_scheme_name(
            args["scheme"])))
        logits = logits.reshape(-1, logits.shape[-1])
        scale = float(logits.std())
        return logits.mean(axis=0), scale if scale > 0 else 1.0

    # ------------------------------------------------------------------ #
    # observation path (runs on the lane's batcher threads)
    # ------------------------------------------------------------------ #
    def attach(self) -> None:
        """Install the monitor on the lane's current incarnation."""
        lane = self.service.lane(self.model_key)
        with self._lock:
            self._ewma = None
            self._batches = 0
        lane.logit_monitor = self._observe
        lane.drift_status = self.status()

    def _observe(self, logits: np.ndarray) -> None:
        batch = np.asarray(logits)
        mean = batch.reshape(-1, batch.shape[-1]).mean(axis=0)
        with self._lock:
            if self._ewma is None:
                self._ewma = mean
            else:
                self._ewma = ((1.0 - self.ewma_alpha) * self._ewma
                              + self.ewma_alpha * mean)
            self._batches += 1

    # ------------------------------------------------------------------ #
    # detection
    # ------------------------------------------------------------------ #
    def drift_score(self) -> float:
        """Worst per-class EWMA deviation, in clean logit-scale units."""
        with self._lock:
            ewma = self._ewma
        if ewma is None:
            return 0.0
        return float(np.abs(ewma - self.reference_mean).max()
                     / self.reference_scale)

    def drifted(self) -> bool:
        with self._lock:
            batches = self._batches
        return batches >= self.min_batches and self.drift_score() > self.threshold

    def check(self) -> Dict[str, Any]:
        """One detect-and-heal step; returns the post-step status."""
        if self.drifted():
            self.recalibrate()
        status = self.status()
        try:
            self.service.lane(self.model_key).drift_status = status
        except (KeyError, RuntimeError):  # pragma: no cover -- lane undeployed,
            pass                          # or service closed, mid-check
        return status

    # ------------------------------------------------------------------ #
    # healing
    # ------------------------------------------------------------------ #
    def recalibrate(self) -> Dict[str, Any]:
        """Redeploy the lane from clean phases and re-attach the monitor.

        Blocks until the swap completes (new workers ready, traffic
        switched, old lane drained), but the *service* never blocks:
        requests submitted at any moment complete on whichever lane they
        entered.  Returns ``{"latency_s", "score_at_detection", ...}``.
        """
        score = self.drift_score()
        started = time.perf_counter()
        summary = self.service.redeploy(self.model_key)
        latency = time.perf_counter() - started
        self.attach()
        with self._lock:
            self.recalibrations += 1
            self.last_latency_s = latency
        lane = self.service.lane(self.model_key)
        lane.drift_status = self.status()
        return {"latency_s": latency, "score_at_detection": score,
                "deploy": summary}

    # ------------------------------------------------------------------ #
    # background loop / introspection
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Run :meth:`check` every ``check_interval_s`` on a daemon thread."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name=f"recalibrate:{self.model_key}")
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self.check_interval_s):
            try:
                self.check()
            except Exception:  # noqa: BLE001 -- keep guarding; surface in status
                import logging

                logging.getLogger("repro.serve.recalibrate").exception(
                    "recalibration check of lane %r failed", self.model_key)

    def stop(self, timeout: float = 10.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def status(self) -> Dict[str, Any]:
        with self._lock:
            batches, recals = self._batches, self.recalibrations
            latency = self.last_latency_s
        return {"score": round(self.drift_score(), 6),
                "threshold": self.threshold, "batches": batches,
                "drifted": self.drifted(), "recalibrations": recals,
                "last_latency_s": latency,
                "running": self._thread is not None and self._thread.is_alive()}
