"""Tenants: job owners with weights and per-job-type speedup profiles.

A tenant owns a bag of jobs, possibly of several model families
("job types", §4.2.4).  Within a tenant, jobs are dispatched round-robin
with priority to the longest-starved job — the paper's §6.1.3 policy,
applied uniformly to OEF and all baselines for a fair comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cluster.job import Job, JobState
from repro.exceptions import ValidationError

_SUBMIT_ORDER = attrgetter("submit_time", "job_id")
_STARVATION = attrgetter("starvation_rounds")


def submit_order(jobs: Sequence[Job]) -> List[Job]:
    """``jobs`` by submit time, then id: the tie order of the run queue."""
    return sorted(jobs, key=_SUBMIT_ORDER)


def check_weight(name: str, weight: float) -> None:
    """A tenant's weight is positive (which NaN is not) and finite, as
    :func:`repro.core.virtual.check_weight` has it."""
    if not 0 < weight < math.inf:
        raise ValidationError(
            f"tenant {name!r}: weight must be {'finite' if weight > 0 else 'positive'}"
        )


@dataclass
class Tenant:
    """A cluster user with a weight and a set of jobs."""

    name: str
    weight: float = 1.0
    jobs: List[Job] = field(default_factory=list)
    arrival_time: float = 0.0
    departure_time: Optional[float] = None

    def __post_init__(self) -> None:
        check_weight(self.name, self.weight)
        for job in self.jobs:
            if job.tenant != self.name:
                raise ValidationError(
                    f"job {job.job_id} belongs to {job.tenant!r}, not {self.name!r}"
                )

    # -- job management ----------------------------------------------------------
    def add_job(self, job: Job) -> None:
        if job.tenant != self.name:
            raise ValidationError(
                f"job {job.job_id} belongs to {job.tenant!r}, not {self.name!r}"
            )
        self.jobs.append(job)

    def active_jobs(self, now: Optional[float] = None) -> List[Job]:
        """Unfinished jobs that have been submitted by ``now``."""
        finished = JobState.FINISHED
        return [
            job
            for job in self.jobs
            if job.state is not finished and (now is None or job.submit_time <= now)
        ]

    def runnable_queue(
        self, now: Optional[float] = None, active: Optional[List[Job]] = None
    ) -> List[Job]:
        """Active jobs ordered by the paper's intra-tenant policy.

        Longest starvation first; ties broken by submit time then id so the
        order is deterministic.  A caller that already has the active jobs
        in that tie order (:func:`submit_order`; the simulator sorts once
        per epoch) passes them in, and only the stable starvation sort runs.
        Below, ``active`` is plain ``active_jobs(now)``.
        """
        if active is None:
            active = submit_order(self.active_jobs(now))
        # stable: equal starvation keeps the submit order, reverse=True too
        return sorted(active, key=_STARVATION, reverse=True)

    # -- profiles -------------------------------------------------------------
    def job_types(self, now: Optional[float] = None) -> Dict[str, List[Job]]:
        """Active jobs grouped by model family (one speedup vector each)."""
        groups: Dict[str, List[Job]] = {}
        for job in self.active_jobs(now):
            groups.setdefault(job.model_name, []).append(job)
        return groups

    def true_speedup_profile(
        self, now: Optional[float] = None, active: Optional[List[Job]] = None
    ) -> Dict[str, np.ndarray]:
        """Representative ground-truth speedup vector per job type.

        The paper's profiling agent runs one representative task per job
        type (§4.1); jobs of the same model family share the profile, which
        is the first active job's read-only ``speedups`` (one array for all
        generator-built jobs of a model, so which job is first is moot).
        """
        profiles: Dict[str, np.ndarray] = {}
        for job in self.active_jobs(now) if active is None else active:
            if job.model_name not in profiles:
                profiles[job.model_name] = job.speedup_vector
        return profiles

    def completed_jobs(self) -> List[Job]:
        return [job for job in self.jobs if job.is_finished]

    def all_done(self, now: Optional[float] = None) -> bool:
        """True when every submitted job has finished (tenant may exit)."""
        submitted = [
            job for job in self.jobs if now is None or job.submit_time <= now
        ]
        pending_future = any(
            now is not None and job.submit_time > now for job in self.jobs
        )
        return not pending_future and all(job.is_finished for job in submitted)

    def min_worker_demand(
        self, now: Optional[float] = None, active: Optional[List[Job]] = None
    ) -> int:
        """``min_k demand_k`` used by the placer's rounding refinement (§4.3).

        Elastic jobs count with their minimum worker count — they can run
        on any grant of at least ``min_workers`` devices.
        """
        if active is None:
            active = self.active_jobs(now)
        if not active:
            return 0
        return min(
            [job.min_workers if job.elastic else job.num_workers for job in active]
        )
