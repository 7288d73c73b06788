"""The straggler effect for cross-GPU-type data-parallel training (§4.4).

Synchronous data parallelism paces every worker to the slowest one: when a
job's workers span GPU types, each iteration waits for the workers on the
slowest assigned type, so fast-GPU workers idle during the periodic
gradient synchronisations.  OEF mitigates this structurally: its placer
keeps the types a job mixes *adjacent*, and Theorem 5.2 makes every
``oef-noncoop`` grant adjacent, while baselines may scatter a tenant
across the full range.  The theorem does not cover ``oef-coop``: on
log-linear speedups a cooperative grant can skip a type (4×4, capacity 4
per type, seeds 124, 134 and 183), and a job that no contiguous window of
its grant covers is filled greedily across the gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.cluster.job import Job
from repro.exceptions import SimulationError

STRAGGLER_RATE_ATOL = 1e-12  #: a rate must beat the slowest by more to straggle


@dataclass(frozen=True)
class StragglerOutcome:
    """Effective execution profile of one job for one round."""

    per_worker_rate: float  # iterations/sec each worker contributes
    straggler_workers: int  # workers pinned below their GPU's native rate


class StragglerModel:
    """Computes effective rates for jobs whose workers span GPU types.

    ``sync_fraction`` is the fraction of an iteration spent in gradient
    synchronisation; only that part is gated by the slowest worker.  The
    paper's qualitative model corresponds to ``sync_fraction = 1.0``
    (every worker fully paced by the slowest type), which is the default.
    """

    def __init__(self, sync_fraction: float = 1.0):
        if not 0.0 <= sync_fraction <= 1.0:
            raise SimulationError("sync_fraction must lie in [0, 1]")
        self.sync_fraction = sync_fraction

    def evaluate(self, job: Job, type_counts: Dict[int, int]) -> StragglerOutcome:
        """Effective per-worker rate given workers per GPU-type rank.

        ``type_counts`` maps GPU-type rank -> number of the job's workers
        placed on that type.  Raises if no workers were assigned.
        """
        if len(type_counts) == 1:
            # no worker waits for a slower type: each runs at its type's
            # native rate and none straggles, whatever the sync share
            ((rank, count),) = type_counts.items()
            if count:
                return StragglerOutcome(job.rates[rank], 0)
        if not type_counts or sum(type_counts.values()) == 0:
            raise SimulationError(f"job {job.job_id}: no workers assigned")
        rates = {
            rank: float(job.true_throughput[rank]) for rank in type_counts
        }
        slowest = min(rates.values())
        # blended rate: the synchronous part runs at the slowest type's
        # speed, the remainder at each worker's native speed; report the
        # average per-worker rate so job progress = rate * workers
        total_workers = sum(type_counts.values())
        native_average = (
            sum(rates[rank] * count for rank, count in type_counts.items())
            / total_workers
        )
        effective = (
            self.sync_fraction * slowest + (1.0 - self.sync_fraction) * native_average
        )
        stragglers = sum(
            count for rank, count in type_counts.items()
            if rates[rank] > slowest + STRAGGLER_RATE_ATOL
        )
        return StragglerOutcome(per_worker_rate=effective, straggler_workers=stragglers)
