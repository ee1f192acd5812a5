"""repro.scenario — discrete-event mobility and power-cycling scenarios.

The paper's whole case for state-free tags is that "tags can be moved
around between operations" (Sec. II); this subsystem is the execution
layer that actually exercises it.  A scenario is a timeline of CCM
operations on a shared wall clock (slot counts × Gen2-derived
:class:`~repro.net.timing.SlotTiming`), with:

* a deterministic event scheduler and byte-reproducible journal
  (:mod:`repro.scenario.events`, ``repro-scenario-rng-v1`` contract);
* a reader trajectory family — static, aisle drive-by, UAV lawnmower
  sweep, waypoints (:mod:`repro.scenario.trajectory`);
* link-budget tag power-cycling (:mod:`repro.scenario.power`);
* :class:`~repro.scenario.engine.ScenarioSessionEngine` — the
  vectorized kernel (one slot-major layout, its bitset propagation
  step on a perfect channel, its CSR step on a lossy one) with a
  per-round motion/power hook,
  bit-identical to the ``"packed"`` and ``"bigint"`` engines when the
  hooks are off (:mod:`repro.scenario.engine`);
* :func:`~repro.scenario.run.run_scenario`, the top-level entry the
  ``repro scenario`` CLI, the motion experiment and the benchmarks use,
  and the one place that builds the scenario engine.
"""

from repro.scenario.engine import ScenarioConfig, ScenarioSessionEngine
from repro.scenario.events import (
    SCENARIO_RNG_CONTRACT,
    Event,
    EventJournal,
    EventScheduler,
)
from repro.scenario.power import ALWAYS_POWERED, LinkBudget
from repro.scenario.run import OperationRecord, ScenarioResult, run_scenario
from repro.scenario.trajectory import (
    TRAJECTORY_NAMES,
    AisleTrajectory,
    LawnmowerTrajectory,
    ReaderTrajectory,
    StaticTrajectory,
    WaypointTrajectory,
    make_trajectory,
)

__all__ = [
    "SCENARIO_RNG_CONTRACT",
    "Event",
    "EventJournal",
    "EventScheduler",
    "ScenarioConfig",
    "ScenarioSessionEngine",
    "LinkBudget",
    "ALWAYS_POWERED",
    "OperationRecord",
    "ScenarioResult",
    "run_scenario",
    "ReaderTrajectory",
    "StaticTrajectory",
    "AisleTrajectory",
    "LawnmowerTrajectory",
    "WaypointTrajectory",
    "TRAJECTORY_NAMES",
    "make_trajectory",
]
