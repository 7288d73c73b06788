"""The parent's round code, kept verbatim as a differential oracle.

PR 18 rewrote how a replay round binds devices (per-host free lists built
once per round, integer budgets) and how the deviation rounder updates its
state (one matrix operation); 5.10 rewrote the rounder's min-demand step
and the simulator's advance pass.  Each must choose *exactly* what the
code before it chose, and a scenario fingerprint cannot tell which
devices a job received.  So the bodies below are the pre-change
``Placer.place_round`` / ``_select_types`` / ``_best_adjacent_window`` /
``_bind_devices`` / ``_bind_type``, ``DeviationRounder.round_shares`` /
``_redistribute`` and the advance pass of ``ClusterSimulator._run_round``
(everything after placement), copied without edits onto subclasses and
into :func:`reference_advance`; ``test_property_based_round.py`` runs them
beside the live code.  ``_largest_remainder`` did not change and is
inherited; the rounder's dict-held state, which the live class replaced
with a matrix, is copied too.

The result containers those bodies build are gone from ``src/`` (the live
rounder returns a tenants-and-matrix ``RoundingResult``, the live placer a
``TableRound``), so this file keeps its own copies of them:
:class:`JobPlacement`, :class:`RoundPlacement` (placements and starved
jobs as lists) and :class:`RoundingResult` (a grant dict).  ``round_views``
builds the same per-job views of a live round to compare against.

Do not "tidy" this file: it is only worth anything while it stays the old
code.
"""

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.gpu import GPUDevice
from repro.cluster.job import Job, JobState
from repro.cluster.metrics import CompletionRecord, RoundMetrics
from repro.cluster.placement import Placer
from repro.cluster.rounding import DEFICIT_ATOL, TARGET_ATOL, DeviationRounder
from repro.cluster.tenant import Tenant
from repro.exceptions import PlacementError, ValidationError


@dataclass(slots=True)
class JobPlacement:
    """One job's devices and effective execution rate for a round."""

    job: Job
    devices: List[GPUDevice]
    type_counts: Dict[int, int]
    hosts_spanned: int
    per_worker_rate: float  # iterations/sec, straggler-adjusted
    straggler_workers: int
    network_factor: float = 1.0

    @property
    def iterations_per_second(self) -> float:
        return (
            self.per_worker_rate * len(self.devices) * self.network_factor
        )


@dataclass
class RoundPlacement:
    """Everything the simulator needs to advance one round."""

    placements: List[JobPlacement]
    starved_jobs: List[Job]


@dataclass
class RoundingResult:
    """Integral grants plus bookkeeping for tests and metrics."""

    grants: Dict[str, np.ndarray]
    zeroed_tenants: List[str] = field(default_factory=list)


class ReferencePlacer(Placer):
    """``Placer`` with the parent commit's selection and binding code."""

    # -- public entry point ---------------------------------------------------
    def place_round(
        self,
        grants: Dict[str, np.ndarray],
        tenants: Dict[str, Tenant],
        now: float,
    ) -> RoundPlacement:
        """Select runnable jobs per tenant and bind them to devices."""
        self.topology.release_all()
        selections: List[Tuple[Job, Dict[int, int]]] = []
        starved: List[Job] = []

        for tenant_name, grant in grants.items():
            tenant = tenants.get(tenant_name)
            if tenant is None:
                raise PlacementError(f"grant for unknown tenant {tenant_name!r}")
            budget = np.asarray(grant, dtype=int).copy()
            # pass 1 — decide who runs, in starvation order.  Feasibility
            # depends only on the remaining device total, never on which
            # types earlier jobs took, so this fixes the starved set
            # before any type is chosen.
            budget_total = int(budget.sum())
            placed: List[Tuple[Job, int]] = []
            for job in tenant.runnable_queue(now):
                workers = job.num_workers
                if job.elastic:
                    # elastic jobs (§8) shrink to whatever remains, down to
                    # their minimum worker count
                    workers = min(job.num_workers, budget_total)
                    if workers < job.min_workers:
                        starved.append(job)
                        continue
                elif budget_total < workers:
                    starved.append(job)
                    continue
                budget_total -= workers
                placed.append((job, workers))
            # pass 2 — assign GPU types; under the OEF policy large jobs
            # pick first so a small job cannot fragment the contiguous
            # fast window a larger job needs (§4.3 adjacency)
            if self.oef:
                placed.sort(key=lambda pair: (-pair[1], pair[0].job_id))
            for job, workers in placed:
                type_counts = self._select_types(workers, budget)
                if type_counts is None:  # cannot happen: totals checked above
                    raise PlacementError(
                        f"internal accounting error placing job {job.job_id}"
                    )
                for rank, count in type_counts.items():
                    budget[rank] -= count
                selections.append((job, type_counts))

        if self.oef:
            selections.sort(key=lambda pair: (-pair[0].num_workers, pair[0].job_id))
        else:
            selections.sort(key=lambda pair: pair[0].job_id)

        placements: List[JobPlacement] = []
        for job, type_counts in selections:
            devices = self._bind_devices(type_counts)
            outcome = self.straggler_model.evaluate(job, type_counts)
            hosts = len({device.host_id for device in devices})
            for device in devices:
                device.assigned_job = job.job_id
            placements.append(
                JobPlacement(
                    job=job,
                    devices=devices,
                    type_counts=type_counts,
                    hosts_spanned=hosts,
                    per_worker_rate=outcome.per_worker_rate,
                    straggler_workers=outcome.straggler_workers,
                )
            )

        factors = self.network_model.round_factors(
            [placement.hosts_spanned for placement in placements]
        )
        for placement, factor in zip(placements, factors):
            placement.network_factor = factor
        return RoundPlacement(placements=placements, starved_jobs=starved)

    # -- type selection ---------------------------------------------------------
    def _select_types(
        self, workers: int, budget: np.ndarray
    ) -> Optional[Dict[int, int]]:
        """Pick GPU-type counts for one job from the tenant's budget."""
        if budget.sum() < workers:
            return None
        num_types = budget.shape[0]
        if self.oef:
            window = self._best_adjacent_window(workers, budget)
            if window is not None:
                return window
            # no contiguous window covers the job (grant has holes after
            # redistribution); fall through to greedy rather than starve
        order = (
            range(num_types - 1, -1, -1)
            if self.oef
            else range(num_types)
        )
        remaining = workers
        counts: Dict[int, int] = {}
        for rank in order:
            if remaining == 0:
                break
            take = min(int(budget[rank]), remaining)
            if take > 0:
                counts[rank] = take
                remaining -= take
        if remaining > 0:
            return None
        return counts

    def _best_adjacent_window(
        self, workers: int, budget: np.ndarray
    ) -> Optional[Dict[int, int]]:
        """The fastest contiguous run of types that covers the job.

        Among windows with enough budget, prefer the one whose fastest
        type is highest, then the narrowest (fewest types mixed).
        """
        num_types = budget.shape[0]
        best: Optional[Tuple[Tuple[int, int], Dict[int, int]]] = None
        for high in range(num_types - 1, -1, -1):
            if budget[high] <= 0:
                continue
            total = 0
            for low in range(high, -1, -1):
                if budget[low] <= 0 and low != high:
                    break  # window must stay contiguous over granted types
                total += int(budget[low])
                if total >= workers:
                    counts: Dict[int, int] = {}
                    remaining = workers
                    for rank in range(high, low - 1, -1):
                        take = min(int(budget[rank]), remaining)
                        if take > 0:
                            counts[rank] = take
                            remaining -= take
                    score = (high, -(high - low))
                    if best is None or score > best[0]:
                        best = (score, counts)
                    break
        return best[1] if best else None

    # -- physical binding ---------------------------------------------------------
    def _bind_devices(self, type_counts: Dict[int, int]) -> List[GPUDevice]:
        devices: List[GPUDevice] = []
        for rank, count in sorted(type_counts.items()):
            devices.extend(self._bind_type(rank, count))
        return devices

    def _bind_type(self, rank: int, count: int) -> List[GPUDevice]:
        hosts = self.topology.hosts_of_type(rank)
        free_total = sum(host.num_free for host in hosts)
        if free_total < count:
            raise PlacementError(
                f"grants exceed free devices of type rank {rank} "
                f"({count} requested, {free_total} free)"
            )
        if not self.oef:
            chosen: List[GPUDevice] = []
            for host in hosts:
                for device in host.free_devices():
                    chosen.append(device)
                    if len(chosen) == count:
                        return chosen
            return chosen
        # best-fit: the smallest single host that fits the whole request
        fitting = [host for host in hosts if host.num_free >= count]
        if fitting:
            host = min(fitting, key=lambda h: (h.num_free, h.host_id))
            return host.free_devices()[:count]
        # otherwise spread across as few hosts as possible, fullest first
        chosen = []
        for host in sorted(hosts, key=lambda h: (-h.num_free, h.host_id)):
            for device in host.free_devices():
                chosen.append(device)
                if len(chosen) == count:
                    return chosen
        return chosen


class ReferenceDeviationRounder(DeviationRounder):
    """``DeviationRounder`` with the parent commit's ``round_shares``.

    The live rounder keeps its deviations in a matrix since 5.1; the
    per-tenant dict state below (``__init__`` / ``deviation`` / ``forget``)
    is the 5.0 code, copied without edits, because ``round_shares`` reads it.
    """

    def __init__(self) -> None:
        self._deviation: Dict[str, np.ndarray] = {}

    def deviation(self, tenant: str) -> np.ndarray:
        return self._deviation.get(tenant, np.zeros(0)).copy()

    def forget(self, tenant: str) -> None:
        """Drop state for a departed tenant."""
        self._deviation.pop(tenant, None)

    def round_shares(
        self,
        ideal: Dict[str, np.ndarray],
        capacities: Sequence[float] | np.ndarray,
        min_demands: Dict[str, int] | None = None,
        redistribute: bool = True,
    ) -> RoundingResult:
        """Convert fractional shares into per-type integer grants.

        Parameters
        ----------
        ideal:
            tenant -> fractional share vector (one entry per GPU type).
        capacities:
            device count per GPU type; granted totals never exceed it.
        min_demands:
            tenant -> smallest worker count among its jobs; grants smaller
            than this are zeroed (the tenant cannot run anything with them)
            and the deviation absorbs the difference.
        redistribute:
            hand GPUs freed by the zeroing rule to other tenants (work
            conservation), largest accumulated deviation first.
        """
        capacities = np.asarray(capacities, dtype=float)
        num_types = capacities.shape[0]
        tenants = list(ideal.keys())
        for tenant in tenants:
            vector = np.asarray(ideal[tenant], dtype=float)
            if vector.shape != (num_types,):
                raise ValidationError(
                    f"tenant {tenant!r}: share vector shape {vector.shape} "
                    f"does not match {num_types} GPU types"
                )
            if tenant not in self._deviation or self._deviation[tenant].shape != (
                num_types,
            ):
                self._deviation[tenant] = np.zeros(num_types)

        if not tenants:
            return RoundingResult(grants={})

        ideal_matrix = np.vstack([np.asarray(ideal[t], dtype=float) for t in tenants])
        deviation_matrix = np.vstack([self._deviation[t] for t in tenants])
        target = np.clip(ideal_matrix + deviation_matrix, 0.0, None)

        real = np.zeros_like(target, dtype=int)
        for type_index in range(num_types):
            real[:, type_index] = self._largest_remainder(
                target[:, type_index], int(round(capacities[type_index]))
            )

        zeroed: List[str] = []
        if min_demands:
            for row, tenant in enumerate(tenants):
                demand = int(min_demands.get(tenant, 0))
                if demand > 0 and 0 < real[row].sum() < demand:
                    real[row] = 0
                    zeroed.append(tenant)
            if redistribute and zeroed:
                self._redistribute(real, target, capacities, tenants, min_demands)

        # update deviations and package the result
        grants: Dict[str, np.ndarray] = {}
        for row, tenant in enumerate(tenants):
            grant = real[row]
            self._deviation[tenant] = (
                self._deviation[tenant] + ideal_matrix[row] - grant
            )
            grants[tenant] = grant.astype(int)
        return RoundingResult(grants=grants, zeroed_tenants=zeroed)

    def _redistribute(
        self,
        real: np.ndarray,
        target: np.ndarray,
        capacities: np.ndarray,
        tenants: List[str],
        min_demands: Dict[str, int],
    ) -> None:
        """Give devices freed by the zeroing rule to runnable tenants."""
        free = np.asarray(capacities, dtype=int) - real.sum(axis=0)
        # candidates: tenants already holding a runnable grant
        runnable_rows = [
            row
            for row, tenant in enumerate(tenants)
            if real[row].sum() >= max(1, int(min_demands.get(tenant, 0)))
        ]
        if not runnable_rows:
            return
        for type_index in range(real.shape[1]):
            while free[type_index] > 0:
                # most under-served runnable tenant on this type; when no
                # tenant is below target, still hand the device to the
                # largest-target tenant (work conservation — the deviation
                # update claws the excess back in later rounds)
                deficits = [
                    (target[row, type_index] - real[row, type_index], row)
                    for row in runnable_rows
                ]
                deficit, row = max(deficits)
                if deficit <= DEFICIT_ATOL:
                    candidates = [
                        (target[r, type_index], r)
                        for r in runnable_rows
                        if target[r, type_index] > TARGET_ATOL
                    ]
                    if not candidates:
                        break
                    _, row = max(candidates)
                real[row, type_index] += 1
                free[type_index] -= 1


def reference_advance(self, round_index, now, placement, decision):
    """``ClusterSimulator._run_round`` after placement, dedented one level;
    ``self`` is a simulator."""
    # the RoundMetrics counts and the delivered speed per tenant and per
    # (tenant, model family) come from this same pass; a job delivers
    # its rate in speedup units, i.e. over its slowest type's rate
    duration = self.config.round_duration
    recorded = self._recorded_completions
    actual: Dict[str, float] = {}
    actual_by_model: Dict[Tuple[str, str], float] = {}
    stragglers = cross_host = cross_type = devices_used = 0
    for job_placement in placement.placements:
        stragglers += job_placement.straggler_workers
        cross_host += job_placement.hosts_spanned > 1
        cross_type += len(job_placement.type_counts) > 1
        devices_used += len(job_placement.devices)
        job = job_placement.job
        rate = job_placement.iterations_per_second
        delivered = rate / float(job.true_throughput[0])
        tenant = job.tenant
        actual[tenant] = actual.get(tenant, 0.0) + delivered
        key = (tenant, job.model_name)
        actual_by_model[key] = actual_by_model.get(key, 0.0) + delivered
        job.advance(now, rate, duration)
        if job.state is JobState.FINISHED and job.job_id not in recorded:
            recorded.add(job.job_id)
            self._epoch_until = -math.inf
            self.metrics.record_completion(
                CompletionRecord(
                    job_id=job.job_id,
                    tenant=job.tenant,
                    model_name=job.model_name,
                    submit_time=job.submit_time,
                    finish_time=float(job.finish_time),
                )
            )
    # every runnable job is either placed or on the placer's starved list
    for job in placement.starved_jobs:
        job.starve()

    self.metrics.record_round(
        RoundMetrics(
            round_index=round_index,
            time=now,
            estimated=decision.estimated,
            actual=actual,
            actual_by_model=actual_by_model,
            straggler_workers=stragglers,
            cross_host_jobs=cross_host,
            cross_type_jobs=cross_type,
            starved_jobs=len(placement.starved_jobs),
            devices_used=devices_used,
            solver_seconds=decision.solver_seconds,
        )
    )
