"""The placer: integral grants -> physical devices -> effective job rates.

Implements §4.3's placement optimisation as a configurable policy so the
evaluation can compare OEF's placer against the naive placement the
baselines use:

* **job selection** — within a tenant, jobs are served in starvation order
  (the paper's uniform intra-tenant round-robin);
* **type choice** — OEF fills a job from the fastest granted type downward
  and keeps the types it mixes *adjacent* (Theorem 5.2 guarantees the
  grant itself is adjacent); the naive policy consumes types in index
  order with no adjacency care;
* **host packing** — OEF places large jobs first and keeps each job on as
  few hosts as possible (network-contention alleviation); the naive
  policy takes free devices in id order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.gpu import GPUDevice
from repro.cluster.job import Job
from repro.cluster.network import NetworkModel
from repro.cluster.straggler import StragglerModel
from repro.cluster.tenant import Tenant
from repro.cluster.topology import ClusterTopology
from repro.exceptions import PlacementError


@dataclass(frozen=True)
class PlacementPolicy:
    """Knobs separating OEF's placer from the naive baseline placer."""

    pack_large_jobs_first: bool = True
    prefer_single_host: bool = True
    adjacent_types_only: bool = True
    prefer_fast_types: bool = True

    @staticmethod
    def oef() -> "PlacementPolicy":
        return PlacementPolicy(True, True, True, True)

    @staticmethod
    def naive() -> "PlacementPolicy":
        return PlacementPolicy(False, False, False, False)


@dataclass
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

    def normalised_throughput(self) -> float:
        """Delivered speed in speedup units (relative to the slowest type)."""
        reference = float(self.job.true_throughput[0])
        return self.iterations_per_second / reference


@dataclass
class RoundPlacement:
    """Everything the simulator needs to advance one round."""

    placements: List[JobPlacement] = field(default_factory=list)
    starved_jobs: List[Job] = field(default_factory=list)

    def straggler_workers(self) -> int:
        return sum(placement.straggler_workers for placement in self.placements)

    def cross_type_jobs(self) -> int:
        return sum(1 for placement in self.placements if len(placement.type_counts) > 1)

    def throughputs(self) -> Tuple[Dict[str, float], Dict[Tuple[str, str], float]]:
        """Delivered speedup units per tenant and per (tenant, model family)."""
        by_tenant: Dict[str, float] = {}
        by_model: Dict[Tuple[str, str], float] = {}
        for placement in self.placements:
            job = placement.job
            delivered = placement.normalised_throughput()
            by_tenant[job.tenant] = by_tenant.get(job.tenant, 0.0) + delivered
            key = (job.tenant, job.model_name)
            by_model[key] = by_model.get(key, 0.0) + delivered
        return by_tenant, by_model


class Placer:
    """Maps per-tenant integral grants to devices and effective rates."""

    def __init__(
        self,
        topology: ClusterTopology,
        policy: Optional[PlacementPolicy] = None,
        straggler_model: Optional[StragglerModel] = None,
        network_model: Optional[NetworkModel] = None,
    ):
        self.topology = topology
        self.policy = policy or PlacementPolicy.oef()
        self.straggler_model = straggler_model or StragglerModel()
        self.network_model = network_model or NetworkModel()

    # -- public entry point ---------------------------------------------------
    def place_round(
        self,
        grants: Dict[str, np.ndarray],
        tenants: Dict[str, Tenant],
        now: float,
        active_jobs: Optional[Dict[str, List[Job]]] = None,
    ) -> RoundPlacement:
        """Select runnable jobs per tenant and bind them to devices.

        ``active_jobs`` maps tenant names to their ``active_jobs(now)`` for
        a caller that already has them; tenants it lacks are scanned here.
        """
        self.topology.release_all()
        # the round's free devices, listed once: type rank -> one list per
        # host, in host-id order; binding removes the devices it assigns
        free = {
            rank: [host.free_devices() for host in self.topology.hosts_of_type(rank)]
            for rank in range(self.topology.num_gpu_types)
        }
        selections: List[Tuple[Job, Dict[int, int]]] = []
        starved: List[Job] = []

        for tenant_name, grant in grants.items():
            tenant = tenants.get(tenant_name)
            if tenant is None:
                raise PlacementError(f"grant for unknown tenant {tenant_name!r}")
            budget: List[int] = np.asarray(grant, dtype=int).tolist()
            # pass 1 — decide who runs, in starvation order.  Feasibility
            # depends only on the remaining device total, never on which
            # types earlier jobs took, so this fixes the starved set
            # before any type is chosen.
            budget_total = sum(budget)
            placed: List[Tuple[Job, int]] = []
            active = active_jobs.get(tenant_name) if active_jobs else None
            queue = tenant.runnable_queue(now, active)
            for index, job in enumerate(queue):
                if budget_total <= 0:
                    # nothing left: every job from here on starves
                    starved.extend(queue[index:])
                    break
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
            if self.policy.pack_large_jobs_first and len(placed) > 1:
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

        if self.policy.pack_large_jobs_first:
            selections.sort(key=lambda pair: (-pair[0].num_workers, pair[0].job_id))
        else:
            selections.sort(key=lambda pair: pair[0].job_id)

        placements: List[JobPlacement] = []
        for job, type_counts in selections:
            devices, hosts = self._bind_devices(type_counts, free)
            outcome = self.straggler_model.evaluate(job, type_counts)
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
        self, workers: int, budget: List[int]
    ) -> Optional[Dict[int, int]]:
        """Pick GPU-type counts for one job from the tenant's budget."""
        num_types = len(budget)
        if self.policy.adjacent_types_only:
            window = self._best_adjacent_window(workers, budget)
            if window is not None:
                return window
            # no contiguous window covers the job (grant has holes after
            # redistribution); fall through to greedy rather than starve
        order = (
            range(num_types - 1, -1, -1)
            if self.policy.prefer_fast_types
            else range(num_types)
        )
        remaining = workers
        counts: Dict[int, int] = {}
        for rank in order:
            if remaining == 0:
                break
            take = min(budget[rank], remaining)
            if take > 0:
                counts[rank] = take
                remaining -= take
        if remaining > 0:
            return None
        return counts

    def _best_adjacent_window(
        self, workers: int, budget: List[int]
    ) -> Optional[Dict[int, int]]:
        """The fastest contiguous run of types that covers the job.

        Among windows with enough budget, prefer the one whose fastest
        type is highest, then the narrowest (fewest types mixed).  Types
        are tried fastest first and each grows its window only until it
        covers the job, so the first window found is that one.
        """
        for high in range(len(budget) - 1, -1, -1):
            if budget[high] <= 0:
                continue
            total = 0
            for low in range(high, -1, -1):
                if budget[low] <= 0 and low != high:
                    break  # window must stay contiguous over granted types
                total += budget[low]
                if total >= workers:
                    counts: Dict[int, int] = {}
                    remaining = workers
                    for rank in range(high, low - 1, -1):
                        take = min(budget[rank], remaining)
                        if take > 0:
                            counts[rank] = take
                            remaining -= take
                    return counts
        return None

    # -- physical binding ---------------------------------------------------------
    def _bind_devices(
        self, type_counts: Dict[int, int], free: Dict[int, List[List[GPUDevice]]]
    ) -> Tuple[List[GPUDevice], int]:
        """The job's devices, slowest type first, and how many hosts they span."""
        devices: List[GPUDevice] = []
        hosts = 0
        items = type_counts.items()
        for rank, count in sorted(items) if len(items) > 1 else items:
            chosen, used = self._bind_type(rank, count, free.get(rank, []))
            devices += chosen
            hosts += used
        return devices, hosts

    def _bind_type(
        self, rank: int, count: int, pools: List[List[GPUDevice]]
    ) -> Tuple[List[GPUDevice], int]:
        """Take ``count`` devices out of one type's per-host free lists."""
        # one scan: the free total and the best fit (smallest host that fits
        # the whole request, the first in host-id order on ties)
        free_total = 0
        best: Optional[List[GPUDevice]] = None
        for pool in pools:
            free_total += len(pool)
            if len(pool) >= count and (best is None or len(pool) < len(best)):
                best = pool
        if free_total < count:
            raise PlacementError(
                f"grants exceed free devices of type rank {rank} "
                f"({count} requested, {free_total} free)"
            )
        if self.policy.prefer_single_host:
            # else as few hosts as possible, fullest first (stable: id order)
            pools = [best] if best is not None else sorted(pools, key=len, reverse=True)
        chosen: List[GPUDevice] = []
        hosts = 0
        for pool in pools:
            take = count - len(chosen)
            if not take:
                break
            hosts += bool(pool)
            chosen.extend(pool[:take])
            del pool[:take]
        return chosen, hosts
