"""Dynamic workload scenarios: event-driven load for the cluster simulator.

The paper's experiments replay *static* job mixes; this package makes
the simulator's input a first-class, reproducible *timeline*:

* :mod:`repro.scenarios.events` — the timed-event vocabulary (tenant
  arrival/departure, job bursts, device failure/repair);
* :mod:`repro.scenarios.scenario` — the :class:`Scenario` recipe and the
  :class:`ScenarioScript` it materialises into;
* :mod:`repro.scenarios.library` — named, seeded scenario builders
  (``steady``, ``bursty``, ``diurnal``, ``tenant-churn``,
  ``philly-replay``) behind :func:`make_scenario`;
* :mod:`repro.scenarios.runner` — :class:`ScenarioRunner`, the one
  description of a replay, and :class:`ScenarioResult`, plus
  :func:`scenario_sweep`, which fans a runner's settings out over seeds
  through :mod:`repro.parallel` backends.

Quick start::

    from repro.scenarios import ScenarioRunner, make_scenario

    scenario = make_scenario("bursty", seed=7, rounds=12)
    result = ScenarioRunner(scenario, scheduler="oef-coop").run()
    print(result.summary_row())

or from the command line: ``repro simulate --scenario bursty --rounds 12``.
"""

from repro.scenarios.events import (
    DeviceFailure,
    DeviceRepair,
    JobArrival,
    ScenarioEvent,
    TenantArrival,
    TenantDeparture,
)
from repro.scenarios.library import (
    ScenarioInfo,
    make_scenario,
    register_scenario,
    scenario_names,
    scenario_rows,
)
from repro.scenarios.runner import (
    ScenarioResult,
    ScenarioRoundRecord,
    ScenarioRunner,
    scenario_sweep,
    sweep_summary,
)
from repro.scenarios.scenario import Scenario, ScenarioScript

__all__ = [
    "DeviceFailure",
    "DeviceRepair",
    "JobArrival",
    "Scenario",
    "ScenarioEvent",
    "ScenarioInfo",
    "ScenarioResult",
    "ScenarioRoundRecord",
    "ScenarioRunner",
    "ScenarioScript",
    "TenantArrival",
    "TenantDeparture",
    "make_scenario",
    "register_scenario",
    "scenario_names",
    "scenario_rows",
    "scenario_sweep",
    "sweep_summary",
]
