"""The ``repro/fleetmetrics-v1`` record: one streamed fleet-round line.

Every region worker appends one of these per scheduling round to the
shared metrics sink (:mod:`repro.fleet.metrics`).  The shape mirrors
the distilled :class:`~repro.scenarios.runner.ScenarioRoundRecord`
plus the routing facts a reader needs to regroup an interleaved stream
(fleet scenario, region, seed, scheduler)::

    {"schema": "repro/fleetmetrics-v1", "fleet": "multiregion-failover",
     "region": "region0", "seed": 0, "scheduler": "oef-coop",
     "round": 3, "time": 900.0, "active_tenants": 4,
     "total_throughput": 21.7, "utilization": 0.92, "jain": 0.98,
     "envy": 0.05, "starved_jobs": 0}
"""

from __future__ import annotations

from repro.fieldspec import integer, number, register, text

#: Schema tag carried by every streamed fleet-round record.
FLEETMETRICS_SCHEMA = "repro/fleetmetrics-v1"

_COUNT = integer(ge=0)
_AMOUNT = number(ge=0)
_UNIT_INTERVAL = number(ge=0, le=1)

#: Reject anything that is not a well-formed fleet-round record.
validate_fleet_record = register(
    FLEETMETRICS_SCHEMA,
    {
        "fleet": text,
        "region": text,
        "seed": integer(),
        "scheduler": text,
        "round": _COUNT,
        "time": _AMOUNT,
        "active_tenants": _COUNT,
        "total_throughput": _AMOUNT,
        "utilization": _AMOUNT,
        "jain": _UNIT_INTERVAL,
        "envy": _UNIT_INTERVAL,
        "starved_jobs": _COUNT,
    },
)


__all__ = ["FLEETMETRICS_SCHEMA", "validate_fleet_record"]
