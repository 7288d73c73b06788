"""The round chain's test-side shapes, built on its one production shape.

The live rounder takes a prepared question and the live placer a
``JobTable``; many tests pose a round as a share dict or as a grant
mapping over tenants instead.  :func:`round_dict` prepares and rounds a
dict; :func:`place_grants` places a grant mapping on a table and returns
the round as per-job views (``reference_round``'s ``JobPlacement`` and
``RoundPlacement``, the shapes the parent's placer returns).
"""

from itertools import repeat

import numpy as np

from reference_round import JobPlacement, RoundPlacement
from repro.cluster.placement import JobTable, TableRound
from repro.cluster.rounding import RoundingResult
from repro.cluster.tenant import submit_order


def round_dict(rounder, ideal, capacities, min_demands=None) -> RoundingResult:
    """``prepare`` then ``round_shares``, as the simulator rounds a question."""
    return rounder.round_shares(rounder.prepare(ideal, capacities, min_demands))


def rounding_of(grants) -> RoundingResult:
    """A rounder's result holding ``grants`` (tenant -> per-type ints)."""
    names = list(grants)
    return RoundingResult(names, np.array([grants[name] for name in names], dtype=int), [])


def grants_table(placer, grants, tenants, now) -> JobTable:
    """A table of each granted tenant's active jobs at ``now``."""
    return JobTable(
        placer, {name: submit_order(tenants[name].active_jobs(now)) for name in grants}
    )


def round_view(table: JobTable, placed: TableRound) -> RoundPlacement:
    """A table round as one ``JobPlacement`` per placed job, in binding
    order, and the starved jobs."""
    jobs = table.jobs
    return RoundPlacement(
        [
            JobPlacement(jobs[index], list(devices), dict(counts), hosts, rate,
                         stragglers, factor)
            for index, devices, counts, hosts, rate, stragglers, factor in zip(
                placed.jobs, placed.devices, placed.type_counts, placed.hosts,
                placed.per_worker_rate, placed.stragglers,
                placed.network_factors or repeat(1.0),
            )
        ],
        [jobs[index] for index in np.asarray(placed.starved, dtype=int).tolist()],
    )


def place_grants(placer, grants, tenants, now, table=None) -> RoundPlacement:
    """Place ``grants`` on ``table`` (by default a table of the granted
    tenants' active jobs at ``now``) and view the round job by job."""
    if table is None:
        table = grants_table(placer, grants, tenants, now)
    return round_view(table, placer.place_round(rounding_of(grants), table))
