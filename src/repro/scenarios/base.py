"""Base machinery of hardware-degradation scenarios.

A *scenario* models how a real MZI mesh deviates from its compiled phases --
beyond the i.i.d. Gaussian of :class:`~repro.photonics.noise.PhaseNoiseModel`
-- as an additive offset on every tunable phase shifter.  Scenarios plug
into the exact seam the noise model uses: they expose
``perturb(mesh, trials=None)`` and apply themselves through
:meth:`~repro.photonics.mzi_mesh.MeshDecomposition.with_phases`, so the
vectorized engine and the plan runtime execute scenario-degraded programs
unchanged (``program.with_noise(noise=scenario)`` works verbatim).

What the base class adds over the noise model:

* **A clock.**  ``advance(dt)`` moves the scenario's time forward;
  ``perturb`` evaluates the degradation *at the current clock*, so a serving
  worker can replay slow hardware drift by alternating advances and
  requests.  Evaluating twice at the same clock is deterministic (the same
  degraded phases come back), which is what lets a worker rebuild its
  degraded program idempotently.
* **A time axis.**  ``at_times(mesh, times)`` returns one mesh whose phase
  arrays carry a leading time axis -- a whole degradation trajectory
  propagates as a single batched ensemble through the engine, composing
  with the Monte-Carlo ``trials`` axis exactly like sigma sweeps do.
* **Stable device identity.**  Offsets attach to the *device* (the clean
  mesh content), not the mesh object, so frozen fabrication offsets and
  in-progress drift walks survive program rebuilds, and a recalibrated
  (re-nulled) mesh maps back to the same physical device.

Phase offsets are additive (output phases multiply by ``exp(1j * offset)``,
i.e. their angles add), so :class:`CompositeScenario` layers scenarios by
summing their offset fields -- static fabrication error underneath a thermal
drift walk underneath fast correlated crosstalk.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.photonics.mzi_mesh import MeshDecomposition


@dataclass(frozen=True)
class MeshDevice:
    """Identity and topology of one physical mesh, derived from a clean mesh.

    ``key`` is a content digest of the clean phases and topology: the same
    decomposition (same weights, same method) always maps to the same
    device, across processes and across program rebuilds.  ``columns`` holds
    the optical column of each MZI from the engine's schedule -- the spatial
    coordinate (column, mode) scenarios use for thermal adjacency.
    """

    key: int
    dimension: int
    mzi_count: int
    modes: np.ndarray       # upper mode of each MZI
    columns: np.ndarray     # optical column of each MZI
    depth: int

    @property
    def shifter_count(self) -> int:
        """Flat offset-vector length: thetas, phis, then output phases."""
        return 2 * self.mzi_count + self.dimension


def device_of(mesh: MeshDecomposition) -> MeshDevice:
    """The :class:`MeshDevice` a (clean, unbatched) mesh realizes."""
    digest = hashlib.blake2b(digest_size=8)
    digest.update(mesh.method.encode())
    digest.update(np.int64(mesh.dimension).tobytes())
    digest.update(np.ascontiguousarray(mesh.modes).tobytes())
    digest.update(np.ascontiguousarray(mesh.thetas).tobytes())
    digest.update(np.ascontiguousarray(mesh.phis).tobytes())
    digest.update(np.ascontiguousarray(mesh.output_phases).tobytes())
    schedule = mesh.compiled()
    columns = np.zeros(mesh.mzi_count, dtype=np.intp)
    for column, (indices, _tops, _bottoms) in enumerate(schedule.columns):
        columns[indices] = column
    columns.flags.writeable = False
    return MeshDevice(key=int.from_bytes(digest.digest(), "little"),
                      dimension=mesh.dimension, mzi_count=mesh.mzi_count,
                      modes=mesh.modes, columns=columns,
                      depth=schedule.depth)


class HardwareScenario:
    """Base class of registered hardware-degradation scenarios.

    Subclasses implement :meth:`_offsets_for`, producing the flat phase
    offset field (thetas, phis, output-phase angles concatenated) for a
    device at the requested times.  Everything else -- the clock, the
    trials/time batching, the ``with_phases`` application -- is shared.
    """

    #: registry name, set by ``@register_scenario``
    name = "scenario"

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._clock = 0.0

    # ------------------------------------------------------------------ #
    # clock
    # ------------------------------------------------------------------ #
    @property
    def clock(self) -> float:
        """Scenario time in seconds since the last (re)calibration."""
        return self._clock

    def advance(self, dt: float) -> float:
        """Move the scenario clock forward by ``dt`` seconds."""
        dt = float(dt)
        if dt < 0:
            raise ValueError("scenario time only moves forward (dt >= 0)")
        self._clock += dt
        return self._clock

    def reset(self) -> None:
        """Back to a freshly calibrated state: clock zero, state cleared."""
        self._clock = 0.0
        self._reset_state()

    def _reset_state(self) -> None:  # pragma: no cover -- default is stateless
        pass

    # ------------------------------------------------------------------ #
    # config round-trip
    # ------------------------------------------------------------------ #
    def params(self) -> Dict[str, Any]:
        """Constructor keyword arguments (subclasses extend)."""
        return {"seed": self.seed}

    def as_config(self) -> Dict[str, Any]:
        """A picklable config dict :func:`build_scenario` reconstructs from."""
        return {"name": self.name, "params": self.params()}

    # ------------------------------------------------------------------ #
    # the PhaseNoiseModel-compatible seam
    # ------------------------------------------------------------------ #
    def perturb(self, mesh: MeshDecomposition, trials: Optional[int] = None,
                device: Optional[MeshDevice] = None) -> MeshDecomposition:
        """A degraded copy of ``mesh`` evaluated at the current clock.

        Drop-in compatible with
        :meth:`~repro.photonics.noise.PhaseNoiseModel.perturb`: with
        ``trials=T`` the returned mesh is trials-batched over ``T``
        independent degradation realizations.  ``device`` overrides the
        device identity (used by :class:`CompositeScenario` so every layer
        keys its state off the clean mesh, not an upstream layer's output).
        """
        lead = self._lead(mesh, trials)
        if device is None:
            device = device_of(mesh)
        offsets = self._offsets_for(device, np.asarray(self._clock, dtype=float),
                                    lead)
        return self._apply(mesh, device, offsets)

    def at_times(self, mesh: MeshDecomposition, times: Sequence[float],
                 trials: Optional[int] = None,
                 device: Optional[MeshDevice] = None) -> MeshDecomposition:
        """A mesh carrying the whole degradation trajectory at once.

        ``times`` (non-decreasing, seconds) becomes the leading axis of the
        returned mesh's trial shape; with ``trials=T`` the axes are
        ``(len(times), T)``.  Propagating the result evaluates every time
        step of the trajectory in one vectorized ensemble pass -- the time
        analogue of a sigma sweep.  Stateful scenarios (the drift walk)
        advance their clock to ``times[-1]``.
        """
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("times must be a non-empty 1-D array of seconds")
        if np.any(np.diff(times) < 0) or times[0] < 0:
            raise ValueError("times must be non-negative and non-decreasing")
        lead = self._lead(mesh, trials)
        if device is None:
            device = device_of(mesh)
        offsets = self._offsets_for(device, times, lead)
        self._clock = max(self._clock, float(times[-1]))
        return self._apply(mesh, device, offsets)

    # ------------------------------------------------------------------ #
    # shared plumbing
    # ------------------------------------------------------------------ #
    @staticmethod
    def _lead(mesh: MeshDecomposition, trials: Optional[int]) -> Tuple[int, ...]:
        if trials is not None and trials <= 0:
            raise ValueError("trials must be positive")
        if trials is not None and mesh.is_batched:
            raise ValueError("mesh already carries a trials axis")
        return () if trials is None else (int(trials),)

    def _apply(self, mesh: MeshDecomposition, device: MeshDevice,
               offsets: np.ndarray) -> MeshDecomposition:
        """Apply a flat offset field through the ``with_phases`` seam."""
        n = device.mzi_count
        theta_off = offsets[..., :n]
        phi_off = offsets[..., n:2 * n]
        output_off = offsets[..., 2 * n:]
        return mesh.with_phases(
            thetas=mesh.thetas + theta_off,
            phis=mesh.phis + phi_off,
            output_phases=mesh.output_phases * np.exp(1j * output_off),
        )

    def _offsets_for(self, device: MeshDevice, times: np.ndarray,
                     lead: Tuple[int, ...]) -> np.ndarray:
        """Flat phase offsets of ``device`` at ``times``.

        ``times`` is 0-D (evaluate at one instant) or 1-D (trajectory).
        Returns ``times.shape + <scenario axes> + lead + (shifter_count,)``
        where ``<scenario axes>`` are any extra sweep axes the scenario
        introduces (e.g. a sigma axis).
        """
        raise NotImplementedError


class ScenarioTrajectory:
    """Adapter putting a whole degradation trajectory on the noise seam.

    Wraps a scenario and a fixed time grid; ``perturb(mesh, trials)``
    delegates to :meth:`HardwareScenario.at_times`, so anything that accepts
    a noise model (``CompiledProgram.with_noise``, the robustness harnesses)
    can evaluate every time step of the trajectory in one batched ensemble.
    """

    def __init__(self, scenario: HardwareScenario, times: Sequence[float]):
        self.scenario = scenario
        self.times = np.asarray(times, dtype=float)

    def perturb(self, mesh: MeshDecomposition,
                trials: Optional[int] = None) -> MeshDecomposition:
        return self.scenario.at_times(mesh, self.times, trials=trials)


class CompositeScenario(HardwareScenario):
    """Several degradation mechanisms applied to the same device at once.

    Phase offsets are additive, so composition sums the members' offset
    fields; every member sees the *clean* device identity, and the composite
    clock drives every member clock.
    """

    name = "composite"

    def __init__(self, scenarios: Sequence[HardwareScenario]):
        super().__init__(seed=0)
        self.scenarios: List[HardwareScenario] = list(scenarios)
        if not self.scenarios:
            raise ValueError("CompositeScenario needs at least one member")

    def advance(self, dt: float) -> float:
        for scenario in self.scenarios:
            scenario.advance(dt)
        return super().advance(dt)

    def reset(self) -> None:
        for scenario in self.scenarios:
            scenario.reset()
        super().reset()

    def params(self) -> Dict[str, Any]:
        return {"scenarios": [scenario.as_config() for scenario in self.scenarios]}

    def as_config(self) -> List[Dict[str, Any]]:
        return [scenario.as_config() for scenario in self.scenarios]

    def _offsets_for(self, device: MeshDevice, times: np.ndarray,
                     lead: Tuple[int, ...]) -> np.ndarray:
        total: Optional[np.ndarray] = None
        for scenario in self.scenarios:
            offsets = scenario._offsets_for(device, times, lead)
            total = offsets if total is None else total + offsets
        return total
