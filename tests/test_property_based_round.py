"""Differential oracle for the replay round: rounding, binding and advance.

The live ``Placer`` / ``DeviationRounder`` and the simulator's advance pass
run beside the parent commit's bodies (``reference_round.py``, verbatim)
on twin copies of one random cluster: random topologies with failed
devices, both placement policies, rigid and elastic jobs, several rounds
so starvation order and deviation state carry over.  The live side is
driven the way the simulator drives it: one prepared question and one
job table per epoch (while the active jobs and capacities hold), the
parent a fresh dict and a fresh scan every round.  Every round both
sides must agree on the grants, the zeroed tenants, the deviations, the
starved list, *which device ids* each job was bound to (no scenario
fingerprint covers that), each job's state and progress, and the
round's ``RoundMetrics``.  Two ``differential`` runs
repeat this on 300 ``replay-steady``-like shapes and on 300
``replay-churn``-like ones (arrivals, departures, finishing jobs, so
epochs of a round or two).
"""

import copy
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_round import (
    ReferenceDeviationRounder,
    ReferencePlacer,
    reference_advance,
)
from round_views import grants_table, place_grants, round_dict, round_view
from repro.cluster import (
    ClusterSimulator,
    ClusterTopology,
    DeviationRounder,
    HostGroupSpec,
    JobTable,
    Placer,
    Tenant,
    make_job,
)
from repro.cluster.tenant import submit_order
from repro.exceptions import PlacementError

#: hypothesis-heavy: deselect with `pytest -m 'not slow'`
pytestmark = pytest.mark.slow
_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def clusters(draw):
    """Host groups, failed device ids, tenants with jobs, the placer flag."""
    num_types = draw(st.integers(1, 3))
    groups = [
        HostGroupSpec(f"g{rank}", draw(st.integers(1, 3)), draw(st.integers(1, 4)))
        for rank in range(num_types)
    ]
    num_devices = sum(group.num_hosts * group.gpus_per_host for group in groups)
    failed = draw(st.sets(st.integers(0, num_devices - 1), max_size=3))
    throughput = [1.0, 1.5, 2.5][:num_types]
    tenants = {}
    job_id = 0
    for index in range(draw(st.integers(1, 4))):
        tenant = Tenant(name=f"t{index}", weight=draw(st.sampled_from([1.0, 2.0])))
        for _ in range(draw(st.integers(1, 4))):
            workers = draw(st.sampled_from([1, 1, 2, 3, 4]))
            tenant.add_job(
                make_job(
                    job_id=job_id,
                    tenant=tenant.name,
                    model_name=draw(st.sampled_from(["m", "n"])),
                    throughput=throughput,
                    num_workers=workers,
                    total_iterations=draw(st.sampled_from([500.0, 1e6])),
                    submit_time=draw(st.sampled_from([0.0, 0.0, 300.0])),
                    elastic=draw(st.booleans()),
                    min_workers=draw(st.integers(1, workers)),
                )
            )
            job_id += 1
        tenants[tenant.name] = tenant
    oef = draw(st.sampled_from([True, False]))
    return groups, sorted(failed), tenants, oef


@st.composite
def steady_clusters(draw):
    """``replay-steady``'s shape: 3 types x 2 hosts x 4 devices, none failed,
    8-24 tenants with rigid single-worker jobs."""
    groups = [HostGroupSpec(f"g{rank}", 2, 4) for rank in range(3)]
    throughputs = {"m": [1.0, 1.5, 2.5], "n": [1.0, 1.2, 1.4], "o": [2.0, 3.0, 7.0]}
    tenants = {}
    job_id = 0
    for index in range(draw(st.integers(8, 24))):
        tenant = Tenant(name=f"t{index}", weight=draw(st.sampled_from([1.0, 2.0])))
        for _ in range(draw(st.integers(1, 4))):
            model = draw(st.sampled_from(sorted(throughputs)))
            tenant.add_job(
                make_job(
                    job_id=job_id,
                    tenant=tenant.name,
                    model_name=model,
                    throughput=throughputs[model],
                    total_iterations=draw(st.sampled_from([1500.0, 1e6])),
                    submit_time=draw(st.sampled_from([0.0, 0.0, 0.0, 600.0])),
                )
            )
            job_id += 1
        tenants[tenant.name] = tenant
    return groups, [], tenants, draw(st.sampled_from([True, False]))


@st.composite
def churn_clusters(draw):
    """``replay-churn``'s shape: 3 types x 2 hosts x 4 devices, none failed,
    6-16 tenants arriving and leaving, rigid and elastic jobs of 1-4
    workers, short ones finishing within a few rounds: epochs last a
    round or two."""
    groups = [HostGroupSpec(f"g{rank}", 2, 4) for rank in range(3)]
    throughputs = {"m": [1.0, 1.5, 2.5], "n": [1.0, 1.2, 1.4], "o": [2.0, 3.0, 7.0]}
    tenants = {}
    job_id = 0
    for index in range(draw(st.integers(6, 16))):
        arrival = draw(st.sampled_from([0.0, 0.0, 300.0, 600.0, 900.0]))
        stay = draw(st.sampled_from([None, 600.0, 1200.0]))
        tenant = Tenant(
            name=f"t{index}",
            weight=draw(st.sampled_from([1.0, 2.0])),
            arrival_time=arrival,
            departure_time=None if stay is None else arrival + stay,
        )
        for _ in range(draw(st.integers(1, 2))):
            model = draw(st.sampled_from(sorted(throughputs)))
            workers = draw(st.sampled_from([1, 1, 2, 3, 4]))
            tenant.add_job(
                make_job(
                    job_id=job_id,
                    tenant=tenant.name,
                    model_name=model,
                    throughput=throughputs[model],
                    num_workers=workers,
                    total_iterations=draw(st.sampled_from([300.0, 900.0, 1e6])),
                    submit_time=arrival + draw(st.sampled_from([0.0, 0.0, 300.0])),
                    elastic=draw(st.booleans()),
                    min_workers=draw(st.integers(1, workers)),
                )
            )
            job_id += 1
        tenants[tenant.name] = tenant
    return groups, [], tenants, draw(st.sampled_from([True, False]))


def _twin(groups, failed, tenants):
    """An independent copy of the cluster: fresh devices, fresh job state."""
    topology = ClusterTopology(groups)
    topology.fail_devices(failed)
    return topology, copy.deepcopy(tenants)


def _outcome(placement):
    """Everything a round's placement decided, in comparable form."""
    return (
        [
            (
                p.job.job_id,
                [device.device_id for device in p.devices],
                p.type_counts,
                p.hosts_spanned,
                p.per_worker_rate,
                p.straggler_workers,
                p.network_factor,
            )
            for p in placement.placements
        ],
        [job.job_id for job in placement.starved_jobs],
    )


def _place(place, *args):
    try:
        return _outcome(place(*args))
    except PlacementError as error:
        return str(error)


def _job_states(tenants):
    return [
        (
            job.job_id,
            job.state,
            job.starvation_rounds,
            job.rounds_scheduled,
            job.done_iterations,
            job.start_time,
            job.finish_time,
        )
        for tenant in tenants.values()
        for job in tenant.jobs
    ]


def _replay_rounds(cluster, data, num_rounds, churn=True):
    """Round, place and advance both twins, comparing everything each round.

    The live side runs as the simulator does: one job table per epoch (while
    the active jobs and the healthy devices hold; a device failure, an
    arrival or a finished job ends it), placed and advanced every round.
    Some epochs instead place each round on a table of its own, of the
    granted tenants' active jobs.
    """
    groups, failed, tenants, oef = cluster
    topology, tenants = _twin(groups, failed, tenants)
    ref_topology, ref_tenants = _twin(groups, failed, tenants)
    placer, ref_placer = Placer(topology, oef), ReferencePlacer(ref_topology, oef)
    rounder, ref_rounder = DeviationRounder(), ReferenceDeviationRounder()
    # the advance pass runs on simulators holding each twin; nothing else
    # of them runs
    simulator = ClusterSimulator(
        topology, list(tenants.values()), "oef-noncoop", placer=placer
    )
    ref_simulator = ClusterSimulator(
        ref_topology, list(ref_tenants.values()), "oef-noncoop", placer=ref_placer
    )
    decision = SimpleNamespace(estimated={}, solver_seconds=0.0)
    use_min_demand = data.draw(st.booleans())
    epoch = table = None

    for round_index in range(num_rounds):
        now = 300.0 * round_index
        if churn and round_index and data.draw(st.booleans()):
            # topology churn between rounds
            victim = data.draw(st.integers(0, topology.num_devices - 1))
            for side in (topology, ref_topology):
                if side.devices[victim].failed:
                    side.repair_devices([victim])
                else:
                    side.fail_devices([victim])
        capacities = topology.capacities()
        active = {
            name: jobs
            for name, jobs in (
                (name, tenant.active_jobs(now))
                for name, tenant in tenants.items()
                if tenant.arrival_time <= now
                and (tenant.departure_time is None or now < tenant.departure_time)
            )
            if jobs
        }
        queues = {name: submit_order(jobs) for name, jobs in active.items()}
        # an epoch holds while the active jobs and capacities do
        key = (
            capacities.tobytes(),
            [(name, [job.job_id for job in jobs]) for name, jobs in active.items()],
        )
        new_epoch = key != epoch
        if new_epoch:
            epoch = key
            table = JobTable(placer, queues) if data.draw(st.booleans()) else None
        # a cold solve with new shares may change the question mid-epoch
        if new_epoch or data.draw(st.booleans()):
            # fluid shares: random fractions of each type's healthy devices
            weights = {
                name: np.array(
                    [data.draw(st.integers(0, 8)) for _ in capacities], dtype=float
                )
                for name in active
            }
            total = np.sum(list(weights.values()), axis=0) if weights else 0.0
            ideal = {
                name: capacities * weight / np.maximum(total, 1.0)
                for name, weight in weights.items()
            }
            min_demands = None
            if use_min_demand:
                min_demands = {
                    name: tenants[name].min_worker_demand(now) for name in active
                }
            question = rounder.prepare(ideal, capacities, min_demands)

        rounding = rounder.round_shares(question)
        ref_rounding = ref_rounder.round_shares(ideal, capacities, min_demands)
        assert rounding.rows() == (
            list(ref_rounding.grants),
            [grant.tolist() for grant in ref_rounding.grants.values()],
        )
        assert list(rounding.grants) == list(ref_rounding.grants)
        for name in ideal:
            np.testing.assert_array_equal(
                rounding.grants[name], ref_rounding.grants[name]
            )
            assert rounding.grants[name].dtype == ref_rounding.grants[name].dtype
            np.testing.assert_array_equal(
                rounder.deviation(name), ref_rounder.deviation(name)
            )
        assert rounding.zeroed_tenants == ref_rounding.zeroed_tenants

        # the epoch's table, or one of the round's own (from the queues or
        # from a scan)
        round_table = table
        if round_table is None:
            if data.draw(st.booleans()):
                round_table = JobTable(placer, queues)
            else:
                round_table = grants_table(placer, rounding.grants, tenants, now)
        placed = placer.place_round(rounding, round_table)
        ref_placement = ref_placer.place_round(ref_rounding.grants, ref_tenants, now)
        assert _outcome(round_view(round_table, placed)) == _outcome(ref_placement)
        assert [d.assigned_job for d in topology.devices] == [
            d.assigned_job for d in ref_topology.devices
        ]

        # advance both twins through their simulator's pass, so later
        # rounds see new starvation orders and finished jobs
        simulator._table = round_table
        simulator._advance(round_index, now, placed, decision)
        reference_advance(ref_simulator, round_index, now, ref_placement, decision)
        assert _job_states(tenants) == _job_states(ref_tenants)
        assert simulator.metrics.rounds == ref_simulator.metrics.rounds
        assert simulator.metrics.completions == ref_simulator.metrics.completions


class TestRoundMatchesParent:
    @_SETTINGS
    @given(clusters(), st.data())
    def test_rounding_and_binding_over_rounds(self, cluster, data):
        _replay_rounds(cluster, data, data.draw(st.integers(1, 4)))

    @pytest.mark.differential
    @settings(_SETTINGS, max_examples=300)
    @given(steady_clusters(), st.data())
    def test_steady_shapes_over_rounds(self, cluster, data):
        _replay_rounds(cluster, data, data.draw(st.integers(2, 8)), churn=False)

    @pytest.mark.differential
    @settings(_SETTINGS, max_examples=300)
    @given(churn_clusters(), st.data())
    def test_churn_shapes_over_rounds(self, cluster, data):
        _replay_rounds(cluster, data, data.draw(st.integers(3, 8)), churn=False)

    @_SETTINGS
    @given(clusters(), st.data())
    def test_arbitrary_grants_bind_or_fail_alike(self, cluster, data):
        # grants nobody rounded: holes, types nobody has, more than is free
        groups, failed, tenants, oef = cluster
        topology, tenants = _twin(groups, failed, tenants)
        ref_topology, ref_tenants = _twin(groups, failed, tenants)
        width = len(groups) + data.draw(st.integers(0, 1))
        grants = {
            name: np.array([data.draw(st.integers(0, 5)) for _ in range(width)])
            for name in tenants
        }
        placer = Placer(topology, oef)
        if data.draw(st.booleans()):
            # on an epoch's table, as the simulator places
            queues = {
                name: submit_order(tenant.active_jobs(0.0))
                for name, tenant in tenants.items()
            }
            table = JobTable(placer, queues)
            outcome = _place(place_grants, placer, grants, tenants, 0.0, table)
        else:
            outcome = _place(place_grants, placer, grants, tenants, 0.0)
        assert outcome == _place(
            ReferencePlacer(ref_topology, oef).place_round, grants, ref_tenants, 0.0
        )
        # also after a PlacementError part-way through the round
        assert [d.assigned_job for d in topology.devices] == [
            d.assigned_job for d in ref_topology.devices
        ]


class TestRounderRowReuse:
    @_SETTINGS
    @given(st.data())
    def test_departures_and_arrivals_match_parent(self, data):
        # the live rounder hands a forgotten tenant's matrix row to the next
        # newcomer; the parent kept a dict, so a reused row must start at
        # zero and every deviation must match round for round
        num_types = data.draw(st.integers(1, 3))
        capacities = np.array(
            [data.draw(st.integers(1, 6)) for _ in range(num_types)], dtype=float
        )
        rounder, ref_rounder = DeviationRounder(), ReferenceDeviationRounder()
        present = [f"t{index}" for index in range(data.draw(st.integers(1, 4)))]
        seen = list(present)
        for _ in range(data.draw(st.integers(2, 8))):
            leaving = st.sets(st.sampled_from(present)) if present else st.just(set())
            for name in data.draw(leaving):
                rounder.forget(name)
                ref_rounder.forget(name)
                present.remove(name)
            for _ in range(data.draw(st.integers(0, 2))):
                present.append(f"t{len(seen)}")
                seen.append(present[-1])
            if not present:
                continue
            # a random order and a random subset: idle tenants keep their rows
            order = data.draw(st.permutations(present))
            active = order[: data.draw(st.integers(1, len(order)))]
            weights = {
                name: np.array(
                    [data.draw(st.integers(0, 8)) for _ in range(num_types)],
                    dtype=float,
                )
                for name in active
            }
            total = np.sum(list(weights.values()), axis=0)
            ideal = {
                name: capacities * weight / np.maximum(total, 1.0)
                for name, weight in weights.items()
            }
            min_demands = None
            if data.draw(st.booleans()):
                min_demands = {name: data.draw(st.integers(0, 3)) for name in active}

            rounding = round_dict(rounder, ideal, capacities, min_demands)
            ref_rounding = ref_rounder.round_shares(ideal, capacities, min_demands)
            assert rounding.zeroed_tenants == ref_rounding.zeroed_tenants
            for name in active:
                np.testing.assert_array_equal(
                    rounding.grants[name], ref_rounding.grants[name]
                )
            for name in seen:
                np.testing.assert_array_equal(
                    rounder.deviation(name), ref_rounder.deviation(name)
                )
