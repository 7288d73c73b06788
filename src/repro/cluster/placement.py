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

A round is placed on a :class:`JobTable`: the jobs each tenant has active,
as per-job keys and lists, and each host's healthy devices.  The simulator
keeps one per run and, at each active-set epoch, swaps the blocks of the
tenants whose active jobs changed (:meth:`JobTable.update`); it places
every round on it (:meth:`Placer.place_round` takes the rounder's
:class:`RoundingResult` and the table) and runs the :class:`TableRound` it
gets back with :meth:`JobTable.advance`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.gpu import GPUDevice
from repro.cluster.job import Job, JobState
from repro.cluster.network import NetworkModel
from repro.cluster.rounding import RoundingResult
from repro.cluster.straggler import StragglerModel
from repro.cluster.topology import ClusterTopology
from repro.exceptions import PlacementError

#: Bound on each of a placer's memos (tenant plans, per-type bindings); a
#: full memo starts over.
PLAN_MEMO_MAX = 4096

#: A job's run-queue key is ``tenant rank << STARVATION_BITS`` minus its
#: starvation rounds.
STARVATION_BITS = 32

#: At most this many jobs, a table orders its run queues in Python: below
#: about 30 jobs a stable ``sorted`` costs less than numpy's fixed cost per
#: call (``argsort`` and the mask split), above it more.  Both paths stay:
#: on 10 alternating pairs (5.20, seeds 56101-56110, 2-vCPU x86) Python
#: queues at every size read ``replay-steady`` 0.946x (0 of 10 better),
#: ``replay-churn`` 1.011x (7/10), ``fleet-failover`` 0.994x (5/10);
#: numpy at every size 1.000x (5/10), 0.996x (4/10), 1.005x (5/10).
PYTHON_QUEUE_MAX = 32

#: An elastic job's demand code is ``-(num_workers << ELASTIC_SHIFT |
#: min_workers)``; a rigid job's is its worker count.
ELASTIC_SHIFT = 32


@dataclass(slots=True)
class TableRound:
    """One round placed on a :class:`JobTable`, job by job in binding order.

    ``jobs`` are table positions; ``devices`` holds each job's devices by
    ascending type rank.
    """

    jobs: List[int]
    workers: List[int]
    type_counts: List[Dict[int, int]]
    devices: List[Sequence[GPUDevice]]
    hosts: List[int]
    per_worker_rate: List[float]
    stragglers: List[int]
    network_factors: Optional[List[float]]  # None: every job on one host
    mixed: int  # jobs on more than one type
    starved: Union[List[int], np.ndarray]  # an array on a large table


class JobTable:
    """The jobs each tenant has active, as per-job keys and lists.

    ``queues`` maps tenant names to their active jobs in
    :func:`~repro.cluster.tenant.submit_order`, the tie order of the run
    queue; they are ranked in that order.  A tenant's block holds while
    nothing outside the table changes its jobs: :meth:`update` swaps the
    blocks of tenants whose jobs did change, and a device failure or
    repair needs the placer's :meth:`Placer.check_health`.  Each round
    :meth:`place` orders the jobs by starvation, decides who runs from the
    placer's memoised per-tenant plans and binds them to each host's
    healthy devices; :meth:`advance` runs and starves them and writes back
    only the :class:`Job` fields that changed, so jobs and tenants stay
    the live view after every round.
    """

    def __init__(self, placer: "Placer", queues: Mapping[str, Sequence[Job]]):
        self.placer = placer
        # per tenant: its name, rank and block (start, stop, its demand codes
        # if alike); per job: the job, its run-queue key, id, binding key,
        # demand code, rates, tenant and (tenant, model) group
        self.names: List[str] = []
        self._ranks: List[int] = []
        self._blocks: List[Tuple[int, int, Optional[tuple]]] = []
        self.jobs: List[Job] = []
        self._queue_key: Union[List[int], np.ndarray] = []
        (self._ids, self._bind_keys, self._codes, self._rates, self._tenants,
         self._groups) = ([] for _ in range(6))
        placer.topology.release_all()
        placer._bound = []
        placer.check_health()
        self.update(queues, dict(zip(queues, range(len(queues)))))

    def update(
        self, queues: Mapping[str, Optional[Sequence[Job]]], ranks: Mapping[str, int]
    ) -> None:
        """Give each tenant in ``queues`` its new active jobs (``None`` drops
        it); every other tenant keeps its block, starvation keys and all.

        ``ranks`` orders the tenants, lowest first.  Each changed block is
        one slice assignment per list, so an update costs what changed.
        """
        if not queues:
            return
        key = self._queue_key
        keys = key if type(key) is list else key.tolist()
        columns = (
            self.jobs, keys, self._ids, self._bind_keys, self._codes, self._rates,
            self._tenants, self._groups,
        )
        names, tenant_ranks, blocks = self.names, self._ranks, self._blocks
        oef = self.placer.oef
        # from the last rank down, so no edit moves a block still to edit
        for rank, name, queue in sorted(
            [(ranks[name], name, queue) for name, queue in queues.items()], reverse=True
        ):
            at = bisect_left(tenant_ranks, rank)
            held = at < len(tenant_ranks) and tenant_ranks[at] == rank
            if queue is None and not held:
                continue
            start = blocks[at][0] if at < len(blocks) else len(keys)
            # the run queues' order: by tenant, then longest starved first
            # (a stable sort keeps submit order on ties); the OEF placer
            # binds large jobs first
            block = (queue or [], [], [], [], [], [], [], [])
            _jobs, queue_keys, ids, bind_keys, codes, rates, tenants, groups = block
            high = rank << STARVATION_BITS
            for job in block[0]:
                workers = job.num_workers
                queue_keys.append(high - job.starvation_rounds)
                ids.append(job.job_id)
                bind_keys.append((-workers, job.job_id) if oef else job.job_id)
                codes.append(
                    -(workers << ELASTIC_SHIFT | job.min_workers) if job.elastic else workers
                )
                rates.append(job.rates)
                tenants.append(job.tenant)
                groups.append((job.tenant, job.model_name))
            stop = blocks[at][1] if held else start
            for column, values in zip(columns, block):
                column[start:stop] = values
            # the block's demand codes when they are all alike (so in any order)
            alike = not codes or codes.count(codes[0]) == len(codes)
            kept = [] if queue is None else [
                (start, start + len(codes), tuple(codes) if alike else None)
            ]
            blocks[at:at + held] = kept
            names[at:at + held] = [name] * len(kept)
            tenant_ranks[at:at + held] = [rank] * len(kept)
            shift = len(codes) - (stop - start)
            if shift:  # the blocks after it move
                after = at + len(kept)
                blocks[after:] = [(a + shift, b + shift, same) for a, b, same in blocks[after:]]
        self._queue_key = (
            keys if len(keys) <= PYTHON_QUEUE_MAX else np.array(keys, dtype=np.int64)
        )

    # -- one round ---------------------------------------------------------------
    def place(self, names: list, budgets: List[List[int]]) -> TableRound:
        """Place one round: ``budgets[i]`` is tenant ``names[i]``'s grant.

        Tenants are served in the table's order; the jobs of a tenant
        without a grant starve.
        """
        placer = self.placer
        if names != self.names:
            grants = dict(zip(names, budgets))
            budgets = [grants.pop(name, ()) for name in self.names]
            if grants:  # what is left has no jobs on the table
                placer.topology.release_all()
                unknown = next(iter(grants))
                raise PlacementError(f"grant for unknown tenant {unknown!r}")
        key = self._queue_key
        if type(key) is list:  # a small table (PYTHON_QUEUE_MAX)
            queue = order = sorted(range(len(key)), key=key.__getitem__)
        else:
            queue, order = np.argsort(key, kind="stable"), None
        codes = self._codes
        plans, plan = placer._plans, placer._plan
        runs = bytearray()  # per job in queue order: does it run?
        workers: List[int] = []
        choices: List[Tuple[Dict[int, int], tuple]] = []
        counts: List[int] = []  # jobs each tenant runs
        for (start, stop, alike), budget in zip(self._blocks, budgets):
            if alike is None:  # the codes in starvation order
                if order is None:
                    order = queue.tolist()
                alike = tuple([codes[index] for index in order[start:stop]])
            key = (tuple(budget), alike)
            run, chosen_workers, chosen = plans.get(key) or plan(key)
            runs += run
            if chosen_workers:
                workers += chosen_workers
                choices += chosen
                counts.append(len(chosen_workers))
        if type(queue) is list:
            placed = [job for job, run in zip(queue, runs) if run]
            starved = [job for job, run in zip(queue, runs) if not run]
        else:
            runs_mask = np.frombuffer(runs, dtype=bool)
            placed, starved = queue[runs_mask].tolist(), queue[~runs_mask]
        ids = self._ids
        if placer.oef and len(counts) < len(placed):
            # a tenant's jobs pick types largest first, ties by job id
            tenants = [number for number, count in enumerate(counts) for _ in range(count)]
            keys = [
                (tenant, -count, ids[job])
                for tenant, count, job in zip(tenants, workers, placed)
            ]
            pick = sorted(range(len(placed)), key=keys.__getitem__)
            placed = [placed[k] for k in pick]
            workers = [workers[k] for k in pick]
        # the OEF placer binds large jobs first (by their full worker
        # count), the naive one in job-id order
        bind_keys = self._bind_keys
        keys = [bind_keys[job] for job in placed]
        bind = sorted(range(len(placed)), key=keys.__getitem__)
        return self._bind(
            [placed[k] for k in bind],
            [workers[k] for k in bind],
            [choices[k] for k in bind],
            starved,
        )

    def _bind(
        self,
        jobs: List[int],
        workers: List[int],
        choices: List[Tuple[Dict[int, int], tuple]],
        starved: Union[List[int], np.ndarray],
    ) -> TableRound:
        """Bind each job, in order, to devices over per-host free counts.

        ``choices`` holds each job's type counts and their ``(rank, count)``
        items by ascending rank, the order a job binds its types in.
        """
        placer = self.placer
        num_types = len(placer._healthy)
        # per type rank: the requests in binding order, and whose they are;
        # a rank the topology lacks fails at once
        counts_of: List[List[int]] = [[] for _ in range(num_types)]
        owners_of: List[List[int]] = [[] for _ in range(num_types)]
        failure: Optional[tuple] = None
        mixed = 0
        for position, (_, items) in enumerate(choices):
            mixed += len(items) > 1
            for rank, count in items:
                if rank < num_types:
                    counts_of[rank].append(count)
                    owners_of[rank].append(position)
                elif failure is None:
                    failure = (position, rank, count, 0)

        num_jobs = len(choices)
        devices: List[Sequence[GPUDevice]] = [()] * num_jobs
        hosts = [0] * num_jobs
        taken = placer._taken
        for rank, counts in enumerate(counts_of):
            if not counts:
                continue
            key = (rank, tuple(counts))
            chosen, spans, failed = taken.get(key) or placer._take(key)
            owners = owners_of[rank]
            if failed is not None:
                index, free_total = failed
                at = (owners[index], rank, counts[index], free_total)
                if failure is None or at[:2] < failure[:2]:
                    failure = at
            for position, group, spanned in zip(owners, chosen, spans):
                devices[position] += group
                hosts[position] += spanned

        bound = placer._bound
        for device in bound:
            device.assigned_job = None
        bound.clear()
        ids = self._ids
        last = num_jobs if failure is None else failure[0]
        for job, group in zip(jobs[:last], devices):
            job_id = ids[job]
            for device in group:
                device.assigned_job = job_id
            bound += group
        if failure is not None:
            _, rank, count, free_total = failure
            raise PlacementError(
                f"grants exceed free devices of type rank {rank} "
                f"({count} requested, {free_total} free)"
            )

        # single-type jobs run at their type's native rate, mixed ones as
        # the straggler model says
        rates = self._rates
        per_worker = [
            rates[job][items[0][0]] for job, (_, items) in zip(jobs, choices)
        ]
        stragglers = [0] * num_jobs
        if mixed:
            for position, (counts, items) in enumerate(choices):
                if len(items) > 1:
                    outcome = placer.straggler_model.evaluate(
                        self.jobs[jobs[position]], counts
                    )
                    per_worker[position] = outcome.per_worker_rate
                    stragglers[position] = outcome.straggler_workers
        # a job on one host runs at network factor 1.0 (``NetworkModel``),
        # so only a round with a cross-host job has factors to set
        factors = None
        if max(hosts, default=0) > 1:
            factors = placer.network_model.round_factors(hosts)
        return TableRound(
            jobs, workers, [counts for counts, _ in choices], devices, hosts,
            per_worker, stragglers, factors, mixed, starved,
        )

    # -- running the round ------------------------------------------------------
    def advance(
        self, placed: TableRound, now: float, duration: float
    ) -> Tuple[Dict[str, float], Dict[Tuple[str, str], float], List[Job]]:
        """Run the placed jobs for ``duration`` seconds and starve the rest.

        Returns each tenant's and each (tenant, model family)'s delivered
        speed — a job delivers its rate over its slowest type's rate, summed
        in binding order — and the jobs that finished, in binding order.
        One pass over the placed jobs does it all: at a round's size (tens
        of jobs) a numpy call costs more than the Python it would replace.
        """
        jobs, tenants, groups, rates = self.jobs, self._tenants, self._groups, self._rates
        actual: Dict[str, float] = {}
        by_model: Dict[Tuple[str, str], float] = {}
        finished: List[Job] = []
        running = JobState.RUNNING
        factors = placed.network_factors or repeat(1.0)
        for index, per_worker, workers, factor in zip(
            placed.jobs, placed.per_worker_rate, placed.workers, factors
        ):
            # iterations/s, multiplied in this order: the bits depend on it
            rate = per_worker * workers * factor
            delivered = rate / rates[index][0]
            tenant = tenants[index]
            actual[tenant] = actual.get(tenant, 0.0) + delivered
            group = groups[index]
            by_model[group] = by_model.get(group, 0.0) + delivered
            # Job.advance's rule
            job = jobs[index]
            if job.start_time is None:
                job.start_time = now
            if job.state is not running:
                job.state = running
            job.rounds_scheduled += 1
            if not rate:
                continue
            remaining = job.total_iterations - job.done_iterations
            time_to_finish = (remaining if remaining > 0.0 else 0.0) / rate
            if time_to_finish <= duration:
                job.done_iterations = job.total_iterations
                job.state = JobState.FINISHED
                job.finish_time = now + time_to_finish
                finished.append(job)
            else:
                job.done_iterations += rate * duration

        starved, key = placed.starved, self._queue_key
        if type(key) is list:
            for index in starved:
                key[index] -= 1
        else:
            key[starved] -= 1
            starved = starved.tolist()
        pending = JobState.PENDING
        for index in starved:
            job = jobs[index]
            job.starvation_rounds += 1
            if job.state is not pending:
                job.state = pending
        return actual, by_model, finished


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
        # (grant, demand codes in starvation order) -> who runs and on
        # which types: a pure function of the key under a fixed flag
        self._plans: Dict[tuple, tuple] = {}
        # healthy devices per type rank, host by host in host-id order (a
        # round takes each host's devices from the front), as of the last
        # table; (rank, request counts) -> one type's binding on them
        self._failed: Optional[Tuple[int, ...]] = None
        self._healthy: List[List[List[GPUDevice]]] = []
        self._taken: Dict[tuple, tuple] = {}
        # the devices the last round bound
        self._bound: List[GPUDevice] = []

    # -- public entry point ---------------------------------------------------
    def place_round(self, rounding: RoundingResult, table: JobTable) -> TableRound:
        """Select runnable jobs per tenant and bind them to devices.

        ``table`` is the epoch's :class:`JobTable`, built on this placer;
        the round comes back as its :class:`TableRound`.
        """
        return table.place(*rounding.rows())

    # -- physical binding -----------------------------------------------------
    def check_health(self) -> None:
        """Re-list the healthy devices if any failed or came back (a walk
        of every device: a table calls it when built, the simulator after
        a failure or repair)."""
        failed = tuple(
            device.device_id for device in self.topology.devices if device.failed
        )
        if failed != self._failed:
            self._failed = failed
            self._healthy = [
                [[device for device in host.devices if not device.failed] for host in hosts]
                for hosts in self._hosts
            ]
            self._taken.clear()

    def _take(self, key: tuple) -> tuple:
        """Bind one type's requests, in order, to its hosts' free devices.

        ``key`` is the type rank and the requested counts.  Returns, per
        request, its devices and the hosts it spans, then ``None`` or the
        failing request's index and the free total it found.  Memoised
        while the healthy devices stay the same.
        """
        rank, counts = key
        oef = self.oef
        pools = [list(devices) for devices in self._healthy[rank]]
        chosen: List[Tuple[GPUDevice, ...]] = []
        spans: List[int] = []
        failed = None
        for index, count in enumerate(counts):
            # one scan: the free total and the best fit (smallest host that
            # fits the whole request, the first in host-id order on ties)
            free_total = 0
            best: Optional[List[GPUDevice]] = None
            for pool in pools:
                size = len(pool)
                free_total += size
                if size >= count and (best is None or size < len(best)):
                    best = pool
            if free_total < count:
                failed = (index, free_total)
                break
            if oef and best is not None:
                chosen.append(tuple(best[:count]))
                del best[:count]
                spans.append(1)
                continue
            # else as few hosts as possible, fullest first (stable: id
            # order); the naive placer takes hosts in id order
            group: List[GPUDevice] = []
            hosts = 0
            for pool in sorted(pools, key=len, reverse=True) if oef else pools:
                take = count - len(group)
                if not take:
                    break
                hosts += bool(pool)
                group += pool[:take]
                del pool[:take]
            chosen.append(tuple(group))
            spans.append(hosts)
        binding = (chosen, spans, failed)
        if len(self._taken) >= PLAN_MEMO_MAX:
            self._taken.clear()
        self._taken[key] = binding
        return binding

    # -- who runs -------------------------------------------------------------
    def _plan(self, key: tuple) -> tuple:
        """One tenant's round: ``key`` is its grant and its jobs' demand
        codes in starvation order.

        Returns whether each job runs, the worker count of each that does
        (queue order), and the type counts in the order jobs pick types:
        under the OEF placer large jobs pick first, so a small job cannot
        fragment the contiguous fast window a larger job needs (§4.3
        adjacency); ties pick in job-id order, which the table applies.
        """
        grant, codes = key
        budget = list(grant)
        # pass 1 — decide who runs.  Feasibility depends only on the
        # remaining device total, never on which types earlier jobs took,
        # so this fixes the starved set before any type is chosen.
        budget_total = sum(budget)
        runs: List[bool] = []
        workers: List[int] = []
        for code in codes:
            if budget_total <= 0:
                runs.append(False)  # nothing left: every job from here starves
                continue
            if code > 0:
                count = code
                fits = budget_total >= count
            else:
                # elastic jobs (§8) shrink to whatever remains, down to
                # their minimum worker count
                count = min(-code >> ELASTIC_SHIFT, budget_total)
                fits = count >= -code & ((1 << ELASTIC_SHIFT) - 1)
            runs.append(fits)
            if fits:
                budget_total -= count
                workers.append(count)
        # pass 2 — assign GPU types
        choices: List[Tuple[Dict[int, int], tuple]] = []
        for count in sorted(workers, reverse=True) if self.oef else workers:
            counts = self._choose_types(count, budget)
            if counts is None:  # cannot happen: totals checked above
                raise PlacementError("internal accounting error: grant too small")
            for rank, taken in counts.items():
                budget[rank] -= taken
            choices.append((counts, tuple(sorted(counts.items()))))
        plan = (bytes(runs), workers, choices)
        if len(self._plans) >= PLAN_MEMO_MAX:
            self._plans.clear()
        self._plans[key] = plan
        return plan

    # -- type selection ---------------------------------------------------------
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
