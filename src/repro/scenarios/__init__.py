"""Hardware-degradation scenarios: realistic mesh error models over time.

The package extends the i.i.d. Gaussian of ``photonics/noise.py`` with the
ways real MZI meshes actually fail -- correlated thermal crosstalk, slow
phase drift, frozen fabrication offsets -- behind a config-driven registry,
all applied through the same ``perturb``/``with_phases`` seam the noise
model uses, so the engine and the plan runtime run degraded programs unchanged.

>>> from repro.scenarios import build_scenario
>>> scenario = build_scenario({"name": "thermal_drift",
...                            "params": {"sigma": 0.05, "tau_s": 30.0}})
>>> scenario.advance(10.0)
>>> degraded = program.with_noise(noise=scenario)      # doctest: +SKIP
"""

from repro.scenarios.base import (CompositeScenario, HardwareScenario,
                                  MeshDevice, ScenarioTrajectory, device_of)
from repro.scenarios.crosstalk import CorrelatedCrosstalkScenario
from repro.scenarios.drift import ThermalDriftScenario
from repro.scenarios.fabrication import FabricationOffsetScenario
from repro.scenarios.registry import (build_scenario, list_scenarios,
                                      register_scenario, scenario_class,
                                      scenario_descriptions)

__all__ = [
    "CompositeScenario",
    "CorrelatedCrosstalkScenario",
    "FabricationOffsetScenario",
    "HardwareScenario",
    "MeshDevice",
    "ScenarioTrajectory",
    "ThermalDriftScenario",
    "build_scenario",
    "device_of",
    "list_scenarios",
    "register_scenario",
    "scenario_class",
    "scenario_descriptions",
]
