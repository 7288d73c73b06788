"""The placer: integral grants -> physical devices -> effective job rates.

Implements §4.3's placement optimisation behind one flag, ``oef``, so the
evaluation can compare OEF's placer against the naive placement the
baselines use:

* **job selection** — within a tenant, jobs are served in starvation order
  (the paper's uniform intra-tenant round-robin);
* **type choice** — OEF fills a job from the fastest granted type downward
  and keeps the types it mixes *adjacent*; the naive placer consumes types
  in index order with no adjacency care.  Theorem 5.2 makes an
  ``oef-noncoop`` grant itself adjacent, but an ``oef-coop`` grant can
  skip a type (see :mod:`repro.cluster.straggler`), and so can a grant
  after redistribution: when no contiguous window covers a job, OEF falls
  back to the greedy fastest-first fill;
* **host packing** — OEF places large jobs first and keeps each job on as
  few hosts as possible (network-contention alleviation); the naive
  placer takes free devices in id order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.gpu import GPUDevice
from repro.cluster.job import Job
from repro.cluster.network import NetworkModel
from repro.cluster.straggler import StragglerModel, single_type_rate
from repro.cluster.tenant import Tenant
from repro.cluster.topology import ClusterTopology
from repro.exceptions import PlacementError

#: Bound on a placer's memo of type choices; a full memo is cleared.
TYPE_CHOICE_MEMO_MAX = 4096


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

    placements: List[JobPlacement] = field(default_factory=list)
    starved_jobs: List[Job] = field(default_factory=list)


class Placer:
    """Maps per-tenant integral grants to devices and effective rates.

    ``oef`` picks OEF's placer (large jobs first, adjacent fastest-first
    types, fewest hosts) over the naive one (job-id order, types in index
    order, free devices in id order).
    """

    def __init__(
        self,
        topology: ClusterTopology,
        oef: bool = True,
        straggler_model: Optional[StragglerModel] = None,
        network_model: Optional[NetworkModel] = None,
    ):
        self.topology = topology
        self.oef = bool(oef)
        self.straggler_model = straggler_model or StragglerModel()
        self.network_model = network_model or NetworkModel()
        # hosts per type rank, in host-id order: a topology never gains or
        # loses a host, only device states change
        self._hosts = [
            topology.hosts_of_type(rank) for rank in range(topology.num_gpu_types)
        ]
        # (workers, *budget) -> the type counts ``_select_types`` chose; a
        # pure function of the key under a fixed flag, and replay rounds
        # keep asking for the same few pairs
        self._type_choices: Dict[Tuple[int, ...], Dict[int, int]] = {}

    # -- public entry point ---------------------------------------------------
    def place_round(
        self,
        grants: Dict[str, np.ndarray],
        tenants: Dict[str, Tenant],
        now: float,
        active_jobs: Optional[Dict[str, List[Job]]] = None,
    ) -> RoundPlacement:
        """Select runnable jobs per tenant and bind them to devices.

        ``grants`` maps tenant names to per-type int grants: arrays, or
        lists of Python ints (a ``RoundingResult.grant_lists``), which are
        copied, not converted.

        ``active_jobs`` maps tenant names to their ``active_jobs(now)`` in
        :func:`~repro.cluster.tenant.submit_order`, for a caller that already
        has them; tenants it lacks are scanned here.
        """
        oef = self.oef
        select_types = self._select_types
        self.topology.release_all()
        # the round's free devices, listed once: type rank -> one list per
        # host, in host-id order; binding removes the devices it assigns
        free = {
            rank: [host.free_devices() for host in hosts]
            for rank, hosts in enumerate(self._hosts)
        }
        selections: List[Tuple[Job, Dict[int, int]]] = []
        starved: List[Job] = []

        for tenant_name, grant in grants.items():
            tenant = tenants.get(tenant_name)
            if tenant is None:
                raise PlacementError(f"grant for unknown tenant {tenant_name!r}")
            budget: List[int] = (
                grant.copy()
                if type(grant) is list
                else np.asarray(grant, dtype=int).tolist()
            )
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
            # pass 2 — assign GPU types; under the OEF placer large jobs
            # pick first so a small job cannot fragment the contiguous
            # fast window a larger job needs (§4.3 adjacency)
            if oef and len(placed) > 1:
                placed.sort(key=lambda pair: (-pair[1], pair[0].job_id))
            for job, workers in placed:
                type_counts = select_types(workers, budget)
                if type_counts is None:  # cannot happen: totals checked above
                    raise PlacementError(
                        f"internal accounting error placing job {job.job_id}"
                    )
                for rank, count in type_counts.items():
                    budget[rank] -= count
                selections.append((job, type_counts))

        if len(selections) > 1:
            if oef:
                selections.sort(
                    key=lambda pair: (-pair[0].num_workers, pair[0].job_id)
                )
            else:
                selections.sort(key=lambda pair: pair[0].job_id)

        bind_type = self._bind_type
        placements: List[JobPlacement] = []
        cross_host = False
        for job, type_counts in selections:
            if len(type_counts) == 1:
                ((rank, count),) = type_counts.items()
                devices, hosts = bind_type(rank, count, free.get(rank, []))
                rate, stragglers = single_type_rate(job, rank), 0
            else:
                # slowest type first
                devices, hosts = [], 0
                for rank, count in sorted(type_counts.items()):
                    chosen, used = bind_type(rank, count, free.get(rank, []))
                    devices += chosen
                    hosts += used
                outcome = self.straggler_model.evaluate(job, type_counts)
                rate, stragglers = outcome.per_worker_rate, outcome.straggler_workers
            job_id = job.job_id
            for device in devices:
                device.assigned_job = job_id
            cross_host = cross_host or hosts > 1
            placements.append(
                JobPlacement(job, devices, type_counts, hosts, rate, stragglers)
            )

        # a job on one host runs at network factor 1.0 (``NetworkModel``),
        # so only a round with a cross-host job has factors to set
        if cross_host:
            factors = self.network_model.round_factors(
                [placement.hosts_spanned for placement in placements]
            )
            for placement, factor in zip(placements, factors):
                placement.network_factor = factor
        return RoundPlacement(placements, starved)

    # -- type selection ---------------------------------------------------------
    def _select_types(
        self, workers: int, budget: List[int]
    ) -> Optional[Dict[int, int]]:
        """Pick GPU-type counts for one job from the tenant's budget.

        Memoised per placer; every caller gets a dict of its own.
        """
        key = (workers, *budget)
        counts = self._type_choices.get(key)
        if counts is None:
            counts = self._choose_types(workers, budget)
            if counts is None:
                return None
            if len(self._type_choices) >= TYPE_CHOICE_MEMO_MAX:
                self._type_choices.clear()
            self._type_choices[key] = counts
        return dict(counts)

    def _choose_types(
        self, workers: int, budget: List[int]
    ) -> Optional[Dict[int, int]]:
        num_types = len(budget)
        if self.oef:
            window = self._best_adjacent_window(workers, budget)
            if window is not None:
                return window
            # no contiguous window covers the job (grant has holes after
            # redistribution); fall through to greedy rather than starve
        order = range(num_types - 1, -1, -1) if self.oef else range(num_types)
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
    def _bind_type(
        self, rank: int, count: int, pools: List[List[GPUDevice]]
    ) -> Tuple[List[GPUDevice], int]:
        """Take ``count`` devices out of one type's per-host free lists."""
        # one scan: the free total and the best fit (smallest host that fits
        # the whole request, the first in host-id order on ties)
        free_total = 0
        best: Optional[List[GPUDevice]] = None
        for pool in pools:
            size = len(pool)
            free_total += size
            if size >= count and (best is None or size < len(best)):
                best = pool
        if free_total < count:
            raise PlacementError(
                f"grants exceed free devices of type rank {rank} "
                f"({count} requested, {free_total} free)"
            )
        if self.oef:
            if best is not None:
                chosen = best[:count]
                del best[:count]
                return chosen, 1
            # else as few hosts as possible, fullest first (stable: id order)
            pools = sorted(pools, key=len, reverse=True)
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
