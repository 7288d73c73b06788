"""Fleet-scale simulation: N regional clusters under one global fair share.

The package composes four layers, each usable on its own:

- :mod:`repro.fleet.scenario` — frozen multi-region recipes
  (:class:`FleetScenario`, a scenario recipe with a region count) whose
  builders produce one ordinary region timeline at a time, plus the
  :class:`QuotaUpdate` event regions consume.
- :mod:`repro.fleet.rebalance` — the global quota layer: a fluid
  pre-pass that solves the fleet-wide allocation per rebalance window
  with any registered scheduler and audits PE / sharing incentive at
  fleet granularity.
- :mod:`repro.fleet.metrics` — the streaming ``repro/fleetmetrics-v1``
  sink and its incremental window aggregator (memory O(regions ×
  rounds) scalars, not O(rounds × tenants) records).
- :mod:`repro.fleet.simulator` — :class:`FleetSimulator`: fans regions
  out across the execution backends (each worker builds only its own
  region) and folds the streamed results into one backend-independent
  :class:`FleetResult`.

Entry points: ``repro fleet-sim`` on the CLI and
``FleetSimulator(resolve_fleet_scenario(name, ...)).run()`` in code; a
fleet recipe name, a cluster scenario name or ``trace:<name>`` all
resolve to one :class:`FleetScenario`.
"""

from repro.fleet.library import (
    fleet_scenario_names,
    make_fleet_scenario,
    resolve_fleet_scenario,
    shard_of,
    sharded_fleet,
)
from repro.fleet.metrics import (
    FleetMetricsWriter,
    WindowAggregator,
    aggregate_stream,
    read_fleet_metrics,
)
from repro.fleet.rebalance import (
    DEFAULT_PROPERTY_CHECK_MAX_TENANTS,
    QUOTA_WEIGHT_DENOMINATOR,
    QuotaSchedule,
    QuotaWindow,
    compute_quota_schedule,
    quantize_weight,
)
from repro.fleet.scenario import (
    FleetScenario,
    FleetScript,
    QuotaUpdate,
    RegionScript,
    build_fleet_region,
    region_scenario,
)
from repro.fleet.schema import (
    FLEETMETRICS_SCHEMA,
    validate_fleet_record,
)
from repro.fleet.simulator import (
    FleetResult,
    FleetSimulator,
    RegionSummary,
)

__all__ = [
    "DEFAULT_PROPERTY_CHECK_MAX_TENANTS",
    "FLEETMETRICS_SCHEMA",
    "FleetMetricsWriter",
    "FleetResult",
    "FleetScenario",
    "FleetScript",
    "FleetSimulator",
    "QUOTA_WEIGHT_DENOMINATOR",
    "QuotaSchedule",
    "QuotaUpdate",
    "QuotaWindow",
    "RegionScript",
    "RegionSummary",
    "WindowAggregator",
    "aggregate_stream",
    "build_fleet_region",
    "compute_quota_schedule",
    "fleet_scenario_names",
    "make_fleet_scenario",
    "quantize_weight",
    "read_fleet_metrics",
    "region_scenario",
    "resolve_fleet_scenario",
    "shard_of",
    "sharded_fleet",
    "validate_fleet_record",
]
