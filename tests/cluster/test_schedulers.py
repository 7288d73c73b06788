"""Round-level scheduler adapters."""

import numpy as np
import pytest

from repro.baselines import Gavel, MaxMinFairness
from repro.cluster import (
    ClusterSimulator,
    OEFScheduler,
    ProfilingAgent,
    SimulationConfig,
    SingleProfileScheduler,
    Tenant,
    make_fair_share_scheduler,
    make_job,
    paper_cluster,
)
from repro.exceptions import SimulationError, ValidationError
from repro.registry import create_scheduler
from repro.workloads.generator import TenantGenerator


def _tenant(name, model="vgg16", speedups=(1.0, 1.5, 2.0), num_jobs=2, weight=1.0):
    tenant = Tenant(name=name, weight=weight)
    for index in range(num_jobs):
        tenant.add_job(
            make_job(
                job_id=abs(hash((name, index))) % 10_000,
                tenant=name,
                model_name=model,
                throughput=list(speedups),
            )
        )
    return tenant


@pytest.fixture
def tenants():
    return [
        _tenant("a", "vgg16", (1.0, 1.2, 1.4)),
        _tenant("b", "lstm", (1.0, 1.6, 2.15)),
    ]


@pytest.fixture
def profiles(tenants):
    return {
        tenant.name: tenant.true_speedup_profile() for tenant in tenants
    }


CAPACITIES = np.array([8.0, 8.0, 8.0])


class TestOEFScheduler:
    def test_invalid_mode(self):
        with pytest.raises(SimulationError):
            OEFScheduler(mode="chaotic")

    def test_shares_for_every_tenant(self, tenants, profiles):
        decision = OEFScheduler("noncooperative").shares(
            tenants, profiles, CAPACITIES
        )
        assert set(decision.tenant_shares) == {"a", "b"}
        assert decision.solver_seconds > 0

    def test_noncoop_equalises_estimates(self, tenants, profiles):
        decision = OEFScheduler("noncooperative").shares(
            tenants, profiles, CAPACITIES
        )
        assert decision.estimated["a"] == pytest.approx(
            decision.estimated["b"], rel=1e-5
        )

    def test_weight_respected(self, profiles):
        tenants = [
            _tenant("a", "vgg16", (1.0, 1.2, 1.4), weight=2.0),
            _tenant("b", "lstm", (1.0, 1.6, 2.15)),
        ]
        profiles = {t.name: t.true_speedup_profile() for t in tenants}
        decision = OEFScheduler("noncooperative").shares(
            tenants, profiles, CAPACITIES
        )
        assert decision.estimated["a"] == pytest.approx(
            2 * decision.estimated["b"], rel=1e-5
        )

    def test_multiple_job_types_share_equally(self):
        tenant = Tenant(name="a")
        tenant.add_job(
            make_job(job_id=1, tenant="a", model_name="x", throughput=[1, 2, 3])
        )
        tenant.add_job(
            make_job(job_id=2, tenant="a", model_name="y", throughput=[1, 1.5, 2])
        )
        other = _tenant("b", "lstm", (1.0, 1.6, 2.15))
        tenants = [tenant, other]
        profiles = {t.name: t.true_speedup_profile() for t in tenants}
        decision = OEFScheduler("noncooperative").shares(
            tenants, profiles, CAPACITIES
        )
        by_type = decision.job_type_shares["a"]
        assert set(by_type) == {"x", "y"}

    def test_shares_respect_capacity(self, tenants, profiles):
        decision = OEFScheduler("cooperative").shares(tenants, profiles, CAPACITIES)
        total = np.sum(list(decision.tenant_shares.values()), axis=0)
        assert np.all(total <= CAPACITIES + 1e-6)

    @pytest.mark.parametrize("mode", ["cooperative", "noncooperative"])
    @pytest.mark.parametrize(
        "case",
        [
            "no-tenants", "empty-profiles", "zero-weight", "negative-weight",
            "nan-weight", "lengths-across-tenants", "lengths-within-a-tenant",
            "zero-speedup", "negative-speedup", "negative-row", "nan-speedup",
            "inf-speedup", "inf-first-speedup",
        ],
    )
    def test_a_bad_round_is_a_validation_error(self, mode, case):
        tenants = [
            _tenant("a", "vgg16", (1.0, 1.2, 1.4)),
            _tenant("b", "lstm", (1.0, 1.6, 2.15)),
        ]
        profiles = {"a": {"vgg16": np.array([1.0, 1.2, 1.4])},
                    "b": {"lstm": np.array([1.0, 1.6, 2.15])}}
        rows = {
            "lengths-across-tenants": [1.0, 1.6],
            "zero-speedup": [1.0, 0.0, 2.0],
            "negative-speedup": [1.0, -1.6, 2.15],
            "negative-row": [-1.0, -1.6, -2.15],
            "nan-speedup": [1.0, np.nan, 2.15],
            "inf-speedup": [1.0, np.inf, 2.15],
            "inf-first-speedup": [np.inf, 1.6, 2.15],
        }
        weights = {"zero-weight": 0.0, "negative-weight": -1.0, "nan-weight": np.nan}
        if case == "no-tenants":
            tenants, profiles = [], {}
        elif case == "empty-profiles":
            profiles["b"] = {}
        elif case == "lengths-within-a-tenant":
            profiles["b"]["bert"] = np.array([1.0, 2.0])
        elif case in weights:
            tenants[1].weight = weights[case]  # past Tenant's own check
        else:
            profiles["b"]["lstm"] = np.array(rows[case])
        with pytest.raises(ValidationError):
            OEFScheduler(mode).shares(tenants, profiles, CAPACITIES)

    @pytest.mark.parametrize("mode", ["cooperative", "noncooperative"])
    def test_finishing_a_same_model_job_keeps_the_decision_key(self, mode):
        # seed 1's two lstm jobs divide out to different last bits, so a
        # profile taken per job would change bytes (and the memo key) here
        generator = TenantGenerator(seed=1, hyperparameter_jitter=0.15)
        tenant = generator.make_tenant("a", model_name="lstm", num_jobs=2)
        first, second = tenant.jobs
        assert (first.true_throughput / first.true_throughput[0]).tobytes() != (
            second.true_throughput / second.true_throughput[0]
        ).tobytes()
        others = [_tenant("b", "vgg16", (1.0, 1.2, 1.4))]
        scheduler, agent = OEFScheduler(mode), ProfilingAgent()

        def key():
            group = [tenant, *others]
            measured = {t.name: agent.profile_tenant(t) for t in group}
            return scheduler.decision_key(group, measured, CAPACITIES)

        before = key()
        first.advance(now=0.0, iterations_per_second=1e9, duration=1.0)
        assert first.is_finished and tenant.active_jobs() == [second]
        assert key() == before


class TestSingleProfileScheduler:
    def test_name_propagates(self):
        scheduler = SingleProfileScheduler(Gavel())
        assert scheduler.name == "gavel"

    def test_maxmin_equal_shares(self, tenants, profiles):
        decision = SingleProfileScheduler(MaxMinFairness()).shares(
            tenants, profiles, CAPACITIES
        )
        np.testing.assert_allclose(decision.tenant_shares["a"], CAPACITIES / 2)

    def test_estimated_matches_shares(self, tenants, profiles):
        decision = SingleProfileScheduler(MaxMinFairness()).shares(
            tenants, profiles, CAPACITIES
        )
        expected = float(profiles["b"]["lstm"] @ (CAPACITIES / 2))
        assert decision.estimated["b"] == pytest.approx(expected)

    def test_dominant_job_type_selected(self):
        tenant = Tenant(name="a")
        for index in range(3):
            tenant.add_job(
                make_job(
                    job_id=index, tenant="a", model_name="many",
                    throughput=[1, 2, 3],
                )
            )
        tenant.add_job(
            make_job(job_id=99, tenant="a", model_name="few", throughput=[1, 1.1, 1.2])
        )
        profiles = {"a": tenant.true_speedup_profile()}
        dominant = SingleProfileScheduler._dominant_job_type(tenant, profiles["a"])
        assert dominant == "many"

    def test_dominant_type_counts_only_the_rounds_active_jobs(self):
        # at t=0: two active A jobs, one active B job, and three B jobs
        # not submitted until t=1000 — those must not make B dominant
        tenant = dominance_tenant()
        active_jobs = {"a": tenant.active_jobs(0.0)}
        profiles = {"a": ProfilingAgent().profile_tenant(tenant, 0.0, active_jobs["a"])}
        scheduler = SingleProfileScheduler(MaxMinFairness())
        assert scheduler._dominant_job_type(tenant, profiles["a"], active_jobs["a"]) == "A"
        # without the round's jobs, every unfinished job counts
        assert scheduler._dominant_job_type(tenant, profiles["a"]) == "B"

        decision = scheduler.shares(
            [tenant], profiles, CAPACITIES, active_jobs=active_jobs
        )
        assert decision.estimated["a"] == pytest.approx(
            float(profiles["a"]["A"] @ CAPACITIES)
        )
        key = scheduler.decision_key(
            [tenant], profiles, CAPACITIES, active_jobs=active_jobs
        )
        assert key != scheduler.decision_key([tenant], profiles, CAPACITIES)

    @pytest.mark.parametrize("warm_start", [True, False])
    def test_the_simulator_passes_the_rounds_active_jobs(self, warm_start):
        simulator = ClusterSimulator(
            paper_cluster(),
            [dominance_tenant()],
            SingleProfileScheduler(MaxMinFairness()),
            config=SimulationConfig(num_rounds=1, warm_start=warm_start),
        )
        (first,) = simulator.run().rounds
        # the whole cluster at A's speedups, not B's
        assert first.estimated["a"] == pytest.approx(1.0 * 8 + 2.0 * 8 + 3.0 * 8)


class TestStacks:
    def test_oef_modes(self):
        for spelling, name in (("cooperative", "oef-coop"), ("noncoop", "oef-noncoop")):
            scheduler = make_fair_share_scheduler(spelling)
            assert isinstance(scheduler, OEFScheduler)
            assert scheduler.name == name and scheduler.oef_stack

    def test_baselines_run_the_naive_stack(self):
        for name in ("gandiva", "gavel", "max-min"):
            scheduler = make_fair_share_scheduler(name)
            assert isinstance(scheduler, SingleProfileScheduler)
            assert not scheduler.oef_stack

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_fair_share_scheduler("fifo")

    def test_options_follow_canonical_name(self):
        # the §6.1.3 options must apply however the scheduler is spelled
        for spelling in ("gandiva", "gandiva-fair"):
            assert make_fair_share_scheduler(spelling).allocator.trade_lot == 0.25
        assert make_fair_share_scheduler("gavel").allocator.slack == 0.01

    def test_explicit_options_win(self):
        allocator = make_fair_share_scheduler("gandiva", trade_lot=0.5, max_trades=7).allocator
        assert (allocator.trade_lot, allocator.max_trades) == (0.5, 7)
        assert make_fair_share_scheduler("gavel", slack=0.02).allocator.slack == 0.02

    def test_instance_level_allocators_keep_the_class_defaults(self):
        assert create_scheduler("gandiva-fair").trade_lot == 0.0
        assert create_scheduler("gavel").slack == 0.02


def dominance_tenant():
    """Tenant ``a``: A jobs 0-1 and B job 2 at t=0, B jobs 3-5 at t=1000."""
    tenant = Tenant(name="a")
    rows = {"A": [1.0, 2.0, 3.0], "B": [1.0, 1.1, 1.2]}
    specs = [("A", 0.0)] * 2 + [("B", 0.0)] + [("B", 1000.0)] * 3
    for job_id, (model, submit_time) in enumerate(specs):
        tenant.add_job(
            make_job(job_id, "a", model, rows[model], submit_time=submit_time)
        )
    return tenant
