"""Gateway solves: caching, batch solves, registry audits.

Ported from the removed service facade's suite: the same contracts,
asserted on the one front door.
"""

import threading

import numpy as np
import pytest

from repro.core import (
    CooperativeOEF,
    ProblemInstance,
    SpeedupMatrix,
    audit_allocator,
    compare_allocators,
    efficiency_fairness_frontier,
)
from repro.gateway import (
    Gateway,
    Request,
    Response,
    default_pipeline,
    instance_fingerprint,
    options_key,
)
from repro.registry import create_scheduler, scheduler_names


@pytest.fixture
def gateway() -> Gateway:
    return Gateway()


class TestFingerprint:
    def test_equal_content_equal_fingerprint(self, paper_instance):
        twin = ProblemInstance(SpeedupMatrix([[1, 2], [1, 3], [1, 4]]), [1.0, 1.0])
        assert instance_fingerprint(paper_instance) == instance_fingerprint(twin)

    def test_speedups_change_fingerprint(self, paper_instance, fig2_instance):
        assert instance_fingerprint(paper_instance) != instance_fingerprint(
            fig2_instance
        )

    def test_capacities_change_fingerprint(self, paper_instance):
        other = ProblemInstance(paper_instance.speedups, [2.0, 1.0])
        assert instance_fingerprint(paper_instance) != instance_fingerprint(other)

    def test_user_names_change_fingerprint(self):
        a = ProblemInstance(
            SpeedupMatrix([[1, 2]], users=["alice"]), [1.0, 1.0]
        )
        b = ProblemInstance(SpeedupMatrix([[1, 2]], users=["bob"]), [1.0, 1.0])
        assert instance_fingerprint(a) != instance_fingerprint(b)


class TestSolveCaching:
    def test_miss_then_hit(self, gateway, paper_instance):
        first = gateway.solve(paper_instance, "oef-coop")
        second = gateway.solve(paper_instance, "oef-coop")
        assert not first.from_cache and second.from_cache
        assert second.cache_hits == 1 and second.cache_misses == 1
        assert second.fingerprint == first.fingerprint

    def test_cached_allocation_matches_fresh_solve(self, gateway, paper_instance):
        cached = gateway.solve(paper_instance, "oef-coop")
        cached = gateway.solve(paper_instance, "oef-coop")
        fresh = CooperativeOEF().allocate(paper_instance)
        np.testing.assert_allclose(cached.allocation.matrix, fresh.matrix)
        assert cached.allocation.allocator_name == fresh.allocator_name

    def test_alias_and_canonical_share_entries(self, gateway, paper_instance):
        gateway.solve(paper_instance, "cooperative")
        assert gateway.solve(paper_instance, "oef-coop").from_cache

    def test_different_schedulers_do_not_collide(self, gateway, paper_instance):
        coop = gateway.solve(paper_instance, "oef-coop")
        noncoop = gateway.solve(paper_instance, "oef-noncoop")
        assert not noncoop.from_cache
        assert not np.allclose(coop.allocation.matrix, noncoop.allocation.matrix)

    def test_options_partition_the_cache(self, gateway, paper_instance):
        gateway.solve(paper_instance, "gavel", options={"slack": 0.02})
        other = gateway.solve(paper_instance, "gavel", options={"slack": 0.5})
        assert not other.from_cache
        assert gateway.solve(
            paper_instance, "gavel", options={"slack": 0.5}
        ).from_cache

    def test_mutating_a_result_does_not_poison_the_cache(
        self, gateway, paper_instance
    ):
        gateway.solve(paper_instance, "max-min")
        hit = gateway.solve(paper_instance, "max-min")
        before = hit.allocation.matrix.tobytes()
        # a hit shares the stored read-only array: a stray write raises
        with pytest.raises(ValueError, match="read-only"):
            hit.allocation.matrix[:] = 0.0
        clean = gateway.solve(paper_instance, "max-min")
        assert clean.from_cache
        assert clean.allocation.matrix.tobytes() == before
        assert clean.allocation.total_efficiency() > 0

    def test_array_options_key_by_content(self):
        assert options_key({"weights": np.array([1.0, 2.0])}) == options_key(
            {"weights": np.array([1.0, 2.0])}
        )
        # large arrays must not collide via a truncated repr
        assert options_key({"weights": np.arange(4000.0)}) != options_key(
            {"weights": np.arange(4000.0) + 1.0}
        )
        assert options_key({"nested": {"a": [1, 2]}}) == options_key(
            {"nested": {"a": (1, 2)}}
        )

    def test_uncacheable_option_values_are_rejected(self, gateway, paper_instance):
        with pytest.raises(TypeError, match="cannot be cached"):
            gateway.solve(paper_instance, "max-min", options={"rng": object()})
        # the documented escape hatch still solves
        result = gateway.solve(
            paper_instance, "max-min", options={}, use_cache=False
        )
        assert not result.from_cache

    def test_use_cache_false_bypasses(self, gateway, paper_instance):
        gateway.solve(paper_instance, "max-min", use_cache=False)
        result = gateway.solve(paper_instance, "max-min", use_cache=False)
        assert not result.from_cache and result.cache_hits == 0

    def test_solve_seconds_positive_on_miss_zero_on_hit(
        self, gateway, paper_instance
    ):
        miss = gateway.solve(paper_instance, "oef-coop")
        hit = gateway.solve(paper_instance, "oef-coop")
        assert miss.solve_seconds > 0.0
        assert hit.solve_seconds == 0.0

    def test_lru_eviction(self, paper_instance, fig2_instance, eq6_instance):
        gateway = Gateway(default_pipeline(max_cache_entries=2))
        for instance in (paper_instance, fig2_instance, eq6_instance):
            gateway.solve(instance, "max-min")
        # the oldest entry (paper_instance) was evicted
        assert not gateway.solve(paper_instance, "max-min").from_cache
        assert gateway.solve(eq6_instance, "max-min").from_cache

    def test_allocation_and_frontier_caches_share_the_bound(
        self, paper_instance, fig2_instance, eq6_instance
    ):
        gateway = Gateway(default_pipeline(max_cache_entries=2))
        gateway.solve(paper_instance, "max-min")
        gateway.solve(fig2_instance, "max-min")
        gateway.frontier(eq6_instance, [0.0])
        stats = gateway.cache_info()
        assert stats.entries <= stats.max_entries == 2

    def test_clear_cache(self, gateway, paper_instance):
        gateway.solve(paper_instance)
        gateway.clear_cache()
        stats = gateway.cache_info()
        assert stats.entries == 0 and stats.hits == 0 and stats.misses == 0


class TestSolveBatch:
    def test_batch_preserves_request_order(
        self, gateway, paper_instance, fig2_instance
    ):
        results = gateway.solve_batch(
            [
                Request(instance, name)
                for instance in (paper_instance, fig2_instance)
                for name in ("max-min", "oef-coop")
            ]
        )
        assert [result.scheduler for result in results] == [
            "max-min",
            "oef-coop",
            "max-min",
            "oef-coop",
        ]
        assert results[0].fingerprint == results[1].fingerprint
        assert results[0].fingerprint != results[2].fingerprint

    def test_single_instance_many_schedulers(self, gateway, paper_instance):
        results = gateway.solve_batch(
            [Request(paper_instance, name) for name in scheduler_names()]
        )
        assert len(results) == len(scheduler_names())
        assert all(isinstance(result, Response) for result in results)

    def test_requests_carry_their_own_scheduler(self, gateway, paper_instance):
        requests = [
            Request(paper_instance, "max-min"),
            (paper_instance, "gavel", {"slack": 0.01}),  # bare triples work too
        ]
        results = gateway.solve_batch(requests)
        assert [result.scheduler for result in results] == ["max-min", "gavel"]

    def test_repeated_batch_is_all_hits(self, gateway, paper_instance):
        requests = [
            Request(paper_instance, name) for name in ("max-min", "oef-coop", "drf")
        ]
        gateway.solve_batch(requests)
        again = gateway.solve_batch(requests)
        assert all(result.from_cache for result in again)


class TestAudit:
    def test_defaults_match_direct_audit(self, gateway, paper_instance):
        via_service = gateway.audit(paper_instance, "oef-coop", sp_trials=1)
        direct = audit_allocator(
            CooperativeOEF(),
            paper_instance,
            efficiency_constraint="envy_free",
            sp_trials=1,
            pe_within="envy_free",
        )
        assert via_service.as_row() == direct.as_row()

    def test_noncoop_defaults_from_registry(self, gateway, paper_instance):
        report = gateway.audit(paper_instance, "oef-noncoop", sp_trials=1)
        # equal-throughput domain: the audited optimum equals the
        # equal-throughput optimum, so optimal efficiency holds
        assert report.as_row()["optimal efficiency"] == "yes"
        assert report.as_row()["SP"] == "yes"

    def test_overrides_win(self, gateway, paper_instance):
        defaulted = gateway.audit(paper_instance, "oef-noncoop", sp_trials=1)
        overridden = gateway.audit(
            paper_instance,
            "oef-noncoop",
            sp_trials=1,
            efficiency_constraint="none",
        )
        assert defaulted.optimal_efficiency.satisfied
        # vs the unconstrained bound, equal-throughput OEF leaves slack
        assert not overridden.optimal_efficiency.satisfied

    def test_explicit_none_pe_domain_wins(
        self, gateway, paper_instance, monkeypatch
    ):
        import repro.gateway.gateway as gateway_module

        seen = {}

        def spy(allocator, instance, **kwargs):
            seen.update(kwargs)
            return "sentinel"

        monkeypatch.setattr(gateway_module, "audit_allocator", spy)
        # registry default for oef-noncoop is pe_within="equal_throughput";
        # an explicit None must override it rather than be treated as unset
        assert gateway.audit(paper_instance, "oef-noncoop", pe_within=None) == "sentinel"
        assert seen["pe_within"] is None
        assert seen["efficiency_constraint"] == "equal_throughput"

    def test_audit_reuses_cached_solves(self, gateway, paper_instance):
        gateway.solve(paper_instance, "oef-coop")
        gateway.audit(paper_instance, "oef-coop", sp_trials=1)
        assert gateway.cache_info().hits > 0


class TestCompareAndFrontier:
    def test_compare_matches_direct(self, gateway, paper_instance):
        via_service = gateway.compare(paper_instance, ["max-min", "oef-coop"])
        from repro.baselines import MaxMinFairness

        direct = compare_allocators(
            [MaxMinFairness(), CooperativeOEF()], paper_instance
        )
        assert via_service == direct

    def test_compare_defaults_to_all_registered(self, gateway, paper_instance):
        rows = gateway.compare(paper_instance)
        assert [row["scheduler"] for row in rows] == scheduler_names()

    def test_repeated_compare_hits_cache(self, gateway, paper_instance):
        rows = gateway.compare(paper_instance)
        before = gateway.cache_info()
        assert before.hits == 0  # a fresh gateway solves every row cold
        assert gateway.compare(paper_instance) == rows
        after = gateway.cache_info()
        assert after.hits >= before.hits + len(scheduler_names())

    def test_frontier_cached_and_correct(self, gateway, paper_instance):
        points = gateway.frontier(paper_instance, [0.0, 1.0])
        direct = efficiency_fairness_frontier(paper_instance, alphas=[0.0, 1.0])
        assert points == direct
        before = gateway.cache_info().hits
        again = gateway.frontier(paper_instance, [0.0, 1.0])
        assert again == points
        assert gateway.cache_info().hits == before + 1


class TestCacheStats:
    def test_hit_rate(self, gateway, paper_instance):
        assert gateway.cache_info().hit_rate == 0.0
        gateway.solve(paper_instance)
        gateway.solve(paper_instance)
        assert gateway.cache_info().hit_rate == pytest.approx(0.5)


def _drifted(instance: ProblemInstance, scale: float) -> ProblemInstance:
    """Same structure (users/types), different capacities."""
    return ProblemInstance(instance.speedups, instance.capacities * scale)


class TestCacheAccounting:
    """CacheStats bookkeeping, evictions, and thread-safety."""

    def test_eviction_counter(self, paper_instance, fig2_instance, eq6_instance):
        gateway = Gateway(default_pipeline(max_cache_entries=2))
        for instance in (paper_instance, fig2_instance, eq6_instance):
            gateway.solve(instance, "max-min")
        stats = gateway.cache_info()
        assert stats.evictions == 1
        assert stats.entries == 2

    def test_hammer_solve_from_8_threads(self, paper_instance):
        """Cache counters must stay exact under the 8-thread hammer."""
        gateway = Gateway()
        instances = [_drifted(paper_instance, 1.0 + 0.05 * i) for i in range(3)]
        options = {}
        per_thread = 12
        num_threads = 8
        errors: list = []
        barrier = threading.Barrier(num_threads)

        def worker():
            try:
                barrier.wait()
                for index in range(per_thread):
                    instance = instances[index % len(instances)]
                    response = gateway.solve(instance, "oef-noncoop", options=options)
                    assert response.allocation.matrix.shape == (3, 2)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        stats = gateway.cache_info()
        # every call accounted for exactly once across the two exact-cache
        # outcomes; with unguarded counters the racy `+= 1` loses updates
        assert stats.hits + stats.misses == per_thread * num_threads
        # cache reuse dominates once the three entries exist
        assert stats.hits >= per_thread * num_threads - 3 * num_threads
        assert stats.entries == len(instances)
        # cached results stay correct under contention
        for instance in instances:
            cached = gateway.solve(instance, "oef-noncoop", options=options)
            fresh = create_scheduler("oef-noncoop").allocate(instance)
            np.testing.assert_allclose(
                cached.allocation.matrix, fresh.matrix, atol=1e-9
            )
