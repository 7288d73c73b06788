"""Placer: type selection, adjacency, host packing, physical binding."""

import numpy as np
import pytest

from repro.cluster import (
    JobState,
    JobTable,
    Placer,
    Tenant,
    make_job,
    paper_cluster,
)
from repro.cluster import placement as placement_module
from repro.exceptions import PlacementError
from round_views import place_grants, round_view, rounding_of


def _tenant(name, jobs_spec):
    """jobs_spec: list of (workers, model) tuples."""
    tenant = Tenant(name=name)
    for index, (workers, model) in enumerate(jobs_spec):
        tenant.add_job(
            make_job(
                job_id=hash(name) % 1000 + index,
                tenant=name,
                model_name=model,
                throughput=[1.0, 1.5, 2.0],
                num_workers=workers,
                total_iterations=1e6,
            )
        )
    return tenant


class TestTypeSelection:
    def test_prefers_fast_types(self):
        topology = paper_cluster()
        placer = Placer(topology)
        tenants = {"t": _tenant("t", [(2, "m")])}
        result = place_grants(placer, {"t": np.array([2, 2, 2])}, tenants, 0.0)
        placement = result.placements[0]
        assert placement.type_counts == {2: 2}

    def test_naive_takes_slow_types_first(self):
        topology = paper_cluster()
        placer = Placer(topology, oef=False)
        tenants = {"t": _tenant("t", [(2, "m")])}
        result = place_grants(placer, {"t": np.array([2, 2, 2])}, tenants, 0.0)
        assert result.placements[0].type_counts == {0: 2}

    def test_adjacent_window_chosen(self):
        topology = paper_cluster()
        placer = Placer(topology)
        tenants = {"t": _tenant("t", [(4, "m")])}
        # grant has a hole-free window 3080+3090 covering 4 workers
        result = place_grants(placer, {"t": np.array([0, 2, 2])}, tenants, 0.0)
        assert result.placements[0].type_counts == {1: 2, 2: 2}

    def test_naive_spans_whole_range(self):
        topology = paper_cluster()
        placer = Placer(topology, oef=False)
        tenants = {"t": _tenant("t", [(3, "m")])}
        result = place_grants(placer, {"t": np.array([1, 1, 1])}, tenants, 0.0)
        assert result.placements[0].type_counts == {0: 1, 1: 1, 2: 1}

    def test_insufficient_grant_starves_job(self):
        topology = paper_cluster()
        placer = Placer(topology)
        tenants = {"t": _tenant("t", [(4, "m")])}
        result = place_grants(placer, {"t": np.array([1, 1, 1])}, tenants, 0.0)
        assert not result.placements
        assert len(result.starved_jobs) == 1

    def test_smaller_job_runs_when_big_one_starves(self):
        topology = paper_cluster()
        placer = Placer(topology)
        tenants = {"t": _tenant("t", [(8, "m"), (2, "m")])}
        result = place_grants(placer, {"t": np.array([0, 0, 3])}, tenants, 0.0)
        assert len(result.placements) == 1
        assert result.placements[0].job.num_workers == 2


class TestHostPacking:
    def test_single_host_preferred(self):
        topology = paper_cluster()
        placer = Placer(topology)
        tenants = {"t": _tenant("t", [(4, "m")])}
        result = place_grants(placer, {"t": np.array([0, 0, 4])}, tenants, 0.0)
        assert result.placements[0].hosts_spanned == 1

    def test_oversized_job_spreads_minimally(self):
        topology = paper_cluster()
        placer = Placer(topology)
        tenants = {"t": _tenant("t", [(6, "m")])}
        result = place_grants(placer, {"t": np.array([0, 0, 6])}, tenants, 0.0)
        assert result.placements[0].hosts_spanned == 2

    def test_large_jobs_placed_first_under_oef(self):
        topology = paper_cluster()
        placer = Placer(topology)
        tenants = {
            "a": _tenant("a", [(1, "m"), (1, "m")]),
            "b": _tenant("b", [(4, "m")]),
        }
        grants = {"a": np.array([0, 0, 2]), "b": np.array([0, 0, 4])}
        result = place_grants(placer, grants, tenants, 0.0)
        # the 4-worker job landed on a single host despite 'a' also using
        # the same type
        big = next(p for p in result.placements if p.job.num_workers == 4)
        assert big.hosts_spanned == 1

    def test_binding_error_when_grants_exceed_devices(self):
        topology = paper_cluster()
        placer = Placer(topology)
        tenants = {"t": _tenant("t", [(9, "m")])}
        with pytest.raises(PlacementError):
            place_grants(placer, {"t": np.array([0, 0, 9])}, tenants, 0.0)

    def test_unknown_tenant_rejected(self):
        # a grant for a tenant without jobs on the table is an error, not
        # devices nobody uses
        placer = Placer(paper_cluster())
        table = JobTable(placer, {"a": _tenant("a", [(2, "m")]).jobs})
        grants = rounding_of({"a": [0, 0, 2], "ghost": [0, 0, 4]})
        with pytest.raises(PlacementError, match="unknown tenant 'ghost'"):
            placer.place_round(grants, table)


    def test_a_rejected_round_binds_nothing(self):
        # a rejected round leaves no device bound from the round before
        topology = paper_cluster()
        placer = Placer(topology)
        table = JobTable(placer, {"a": _tenant("a", [(2, "m")]).jobs})
        placer.place_round(rounding_of({"a": [0, 0, 2]}), table)
        assert sum(not device.is_free for device in topology.devices) == 2
        with pytest.raises(PlacementError, match="unknown tenant 'ghost'"):
            placer.place_round(rounding_of({"ghost": [0, 0, 1]}), table)
        assert all(device.is_free for device in topology.devices)


class TestRoundOutcome:
    def test_devices_marked_assigned(self):
        topology = paper_cluster()
        placer = Placer(topology)
        tenants = {"t": _tenant("t", [(2, "m")])}
        result = place_grants(placer, {"t": np.array([0, 0, 2])}, tenants, 0.0)
        assert sum(1 for device in topology.devices if not device.is_free) == 2
        assert len(result.placements[0].devices) == 2

    def test_cross_type_job_counts_stragglers(self):
        topology = paper_cluster()
        placer = Placer(topology, oef=False)
        tenants = {"t": _tenant("t", [(2, "m")])}
        result = place_grants(placer, {"t": np.array([1, 1, 0])}, tenants, 0.0)
        (placement,) = result.placements
        assert placement.straggler_workers == 1
        assert len(placement.type_counts) == 2

    def test_network_factor_applied_to_cross_host(self):
        topology = paper_cluster()
        placer = Placer(topology, oef=False)
        tenants = {"t": _tenant("t", [(2, "m")])}
        result = place_grants(placer, {"t": np.array([1, 1, 0])}, tenants, 0.0)
        assert result.placements[0].network_factor < 1.0

    def test_single_host_job_no_penalty(self):
        topology = paper_cluster()
        placer = Placer(topology)
        tenants = {"t": _tenant("t", [(2, "m")])}
        result = place_grants(placer, {"t": np.array([0, 0, 2])}, tenants, 0.0)
        assert result.placements[0].network_factor == 1.0


class TestTypeChoiceMemo:
    """A tenant's plan (who runs, on which types) is memoised per placer by
    (grant, demand codes)."""

    @staticmethod
    def _tenants():
        return {
            name: Tenant(
                name=name,
                jobs=[make_job(job_id, name, "m", [1.0, 1.5, 2.0], num_workers=2)],
            )
            for job_id, name in enumerate(["a", "b"])
        }

    def test_each_job_gets_its_own_type_counts(self):
        placer = Placer(paper_cluster())
        tenants = self._tenants()
        grants = {"a": np.array([0, 1, 1]), "b": np.array([0, 1, 1])}
        first, second = place_grants(placer, grants, tenants, 0.0).placements
        assert first.type_counts == second.type_counts == {2: 1, 1: 1}
        assert first.type_counts is not second.type_counts
        first.type_counts[2] = 99
        assert second.type_counts == {2: 1, 1: 1}
        # the next round is answered from the memo, untouched by the write
        again = place_grants(placer, grants, tenants, 300.0).placements
        assert [p.type_counts for p in again] == [{2: 1, 1: 1}, {2: 1, 1: 1}]
        assert again[0].type_counts is not first.type_counts

    def test_a_full_memo_starts_over(self, monkeypatch):
        monkeypatch.setattr(placement_module, "PLAN_MEMO_MAX", 2)
        placer = Placer(paper_cluster())
        tenants = self._tenants()
        for grant in ([0, 0, 2], [0, 2, 0], [2, 0, 0], [1, 1, 0], [0, 0, 2]):
            grants = {"a": np.array(grant)}
            chosen = place_grants(placer, grants, tenants, 0.0).placements
            expected = place_grants(Placer(paper_cluster()), grants, tenants, 0.0)
            assert [p.type_counts for p in chosen] == [
                p.type_counts for p in expected.placements
            ]
            assert len(placer._plans) <= 2


class TestJobTable:
    """An epoch's rounds placed on one table, as the simulator does."""

    @staticmethod
    def _jobs(name, specs):
        """specs: (job id, workers) pairs, submitted at 0 in this order."""
        return [
            make_job(job_id, name, "m", [1.0, 1.5, 2.0], num_workers=workers,
                     total_iterations=1e9)
            for job_id, workers in specs
        ]

    def test_a_round_releases_what_the_last_one_bound(self):
        topology = paper_cluster()
        placer = Placer(topology)
        tenants = {"t": Tenant(name="t", jobs=self._jobs("t", [(0, 4), (1, 2)]))}
        table = JobTable(placer, {"t": tenants["t"].jobs})
        place_grants(placer, {"t": [0, 0, 6]}, tenants, 0.0, table=table)
        assert sum(d.assigned_job is not None for d in topology.devices) == 6
        place_grants(placer, {"t": [0, 0, 2]}, tenants, 300.0, table=table)
        assert [d.device_id for d in topology.devices if d.assigned_job == 1] == [
            16, 17
        ]
        assert sum(d.assigned_job is not None for d in topology.devices) == 2

    def test_equal_jobs_pick_types_in_job_id_order(self):
        # job 7 is longer starved, so it comes first in the run queue, but
        # among equal worker counts the lower job id picks the faster type
        jobs = self._jobs("t", [(7, 1), (3, 1)])
        jobs[0].starvation_rounds = 2
        tenants = {"t": Tenant(name="t", jobs=jobs)}
        placer = Placer(paper_cluster())
        table = JobTable(placer, {"t": jobs})
        result = place_grants(placer, {"t": [0, 1, 1]}, tenants, 0.0, table=table)
        assert {p.job.job_id: p.type_counts for p in result.placements} == {
            3: {2: 1}, 7: {1: 1}
        }

    def test_grants_in_another_order_place_as_in_the_tables(self):
        # a table serves its tenants in its own order, whatever order the
        # grant rows come in
        def placed(names):
            jobs = {name: self._jobs(name, [(row, 2)]) for row, name in enumerate("ab")}
            placer = Placer(paper_cluster())
            table = JobTable(placer, jobs)
            grants = {name: {"a": [0, 1, 1], "b": [0, 0, 2]}[name] for name in names}
            return round_view(table, placer.place_round(rounding_of(grants), table))

        in_order, reversed_order = placed("ab"), placed("ba")
        assert [(p.job.job_id, [d.device_id for d in p.devices], p.type_counts)
                for p in reversed_order.placements] == [
            (p.job.job_id, [d.device_id for d in p.devices], p.type_counts)
            for p in in_order.placements
        ]
        assert reversed_order.starved_jobs == in_order.starved_jobs == []

    def test_a_table_tenant_without_a_grant_starves(self):
        jobs = {name: self._jobs(name, [(row, 1)]) for row, name in enumerate("ab")}
        placer = Placer(paper_cluster())
        table = JobTable(placer, jobs)
        placed = placer.place_round(rounding_of({"b": [0, 0, 1]}), table)
        assert [table.jobs[index].job_id for index in placed.jobs] == [1]
        assert np.asarray(placed.starved).tolist() == [0]

    def test_jobs_stay_the_live_view_after_every_round(self):
        jobs = self._jobs("t", [(0, 2), (1, 2)])
        tenants = {"t": Tenant(name="t", jobs=jobs)}
        placer = Placer(paper_cluster())
        table = JobTable(placer, {"t": jobs})
        ran = []
        for round_index in range(4):
            now = 300.0 * round_index
            placed = placer.place_round(rounding_of({"t": [0, 0, 2]}), table)
            table.advance(placed, now, 300.0)
            ran.append([jobs[index].job_id for index in placed.jobs])
        # one grant for two jobs: the longer starved runs, round-robin
        assert ran == [[0], [1], [0], [1]]
        assert [job.starvation_rounds for job in jobs] == [2, 2]
        assert [job.rounds_scheduled for job in jobs] == [2, 2]
        assert [job.start_time for job in jobs] == [0.0, 300.0]
        assert [job.state.value for job in jobs] == ["pending", "running"]

    @staticmethod
    def _state(job):
        return (job.state, job.done_iterations, job.start_time, job.finish_time,
                job.rounds_scheduled, job.starvation_rounds)

    def test_advance_applies_the_job_rule_to_each_job(self):
        # the table's pass against Job.advance job by job: one job
        # finishes mid-round, one runs on, one runs at rate 0
        def jobs():
            return [
                make_job(job_id, "t", "m", [1.0, 1.5, 2.0], total_iterations=total)
                for job_id, total in ((1, 50.0), (2, 1e6), (3, 1e6))
            ]

        speeds = [1.0, 0.1, 0.0]
        one_by_one = jobs()
        used = [job.advance(300.0, speed, 300.0) for job, speed in zip(one_by_one, speeds)]
        together = jobs()
        table = JobTable(Placer(paper_cluster()), {"t": together})
        placed = placement_module.TableRound(
            [0, 1, 2], [1, 1, 1], [{0: 1}] * 3, [()] * 3, [1] * 3, speeds, [0] * 3,
            None, 0, np.zeros(0, dtype=int),
        )
        _, _, finished = table.advance(placed, 300.0, 300.0)
        assert finished == [together[0]]
        assert used == [50.0, 300.0, 300.0]
        assert [self._state(job) for job in together] == [
            self._state(job) for job in one_by_one
        ]

    def test_advance_starves_by_the_job_rule(self):
        def jobs():
            running, pending = (
                make_job(job_id, "t", "m", [1.0, 1.5, 2.0], total_iterations=1e6)
                for job_id in (0, 1)
            )
            running.advance(0.0, 0.1, 300.0)
            return [running, pending]

        one_by_one = jobs()
        for job in one_by_one:
            job.starve()
        together = jobs()
        table = JobTable(Placer(paper_cluster()), {"t": together})
        placed = placement_module.TableRound(
            [], [], [], [], [], [], [], None, 0, np.array([0, 1]),
        )
        table.advance(placed, 300.0, 300.0)
        assert [self._state(job) for job in together] == [
            self._state(job) for job in one_by_one
        ]
        assert [job.state for job in together] == [JobState.PENDING] * 2
