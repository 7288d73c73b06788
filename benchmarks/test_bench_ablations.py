"""Ablation benches for the design choices called out in DESIGN.md §5.

* cooperative OEF: full O(n^2) formulation vs the cutting-plane path;
* rounding: deviation-accumulating vs naive independent rounding
  (long-run tracking error of the ideal share);
* placement: OEF's packing/adjacency policy vs naive first-fit (actual
  throughput delivered for the same fluid shares).
"""

import numpy as np

from repro.cluster import (
    ClusterSimulator,
    DeviationRounder,
    NaiveRounder,
    OEFScheduler,
    Placer,
    PlacementPolicy,
    SimulationConfig,
    paper_cluster,
)
from repro.core import CooperativeOEF
from repro.workloads import TenantGenerator
from repro.workloads.generator import random_instance


class TestCuttingPlaneAblation:
    def test_bench_coop_full_formulation(self, benchmark):
        instance = random_instance(60, 5, seed=6, devices_per_type=30.0)
        allocator = CooperativeOEF(method="full")
        benchmark.pedantic(allocator.allocate, args=(instance,), rounds=1)

    def test_bench_coop_cutting_plane(self, benchmark):
        instance = random_instance(60, 5, seed=6, devices_per_type=30.0)
        allocator = CooperativeOEF(method="cutting-plane")
        result = benchmark.pedantic(allocator.allocate, args=(instance,), rounds=1)
        reference = CooperativeOEF(method="full").allocate(instance)
        assert abs(result.total_efficiency() - reference.total_efficiency()) < 1e-4 * (
            reference.total_efficiency()
        )


class TestRoundingAblation:
    @staticmethod
    def _tracking_error(rounder_cls, rounds: int = 30) -> float:
        rounder = rounder_cls()
        ideal = {"a": np.array([0.4, 1.2]), "b": np.array([1.6, 0.8])}
        granted = {name: np.zeros(2) for name in ideal}
        for _ in range(rounds):
            result = rounder.round_shares(ideal, [2.0, 2.0])
            for name in granted:
                granted[name] += result.grants[name]
        errors = [
            np.abs(granted[name] / rounds - ideal[name]).max() for name in ideal
        ]
        return float(max(errors))

    def test_bench_deviation_rounding_tracks_ideal(self, benchmark):
        error = benchmark.pedantic(
            self._tracking_error, args=(DeviationRounder,), rounds=1
        )
        benchmark.extra_info["tracking_error"] = round(error, 4)
        assert error <= 0.1

    def test_bench_naive_rounding_drifts(self, benchmark):
        error = benchmark.pedantic(
            self._tracking_error, args=(NaiveRounder,), rounds=1
        )
        benchmark.extra_info["tracking_error"] = round(error, 4)
        # naive rint(0.4) = 0 forever: the 0.4 share is never served
        assert error >= 0.3


class TestPlacementAblation:
    @staticmethod
    def _actual_throughput(policy: PlacementPolicy) -> float:
        topology = paper_cluster()
        generator = TenantGenerator(seed=31)
        tenants = []
        models = ["vgg16", "lstm", "resnet50", "transformer"]
        for index in range(6):
            tenant_name = f"t{index}"
            tenant_jobs = []
            tenant = None
            from repro.cluster import Tenant

            tenant = Tenant(name=tenant_name)
            for workers in (4, 2, 1, 1):
                tenant.add_job(
                    generator.make_job(
                        tenant_name,
                        models[index % 4],
                        num_workers=workers,
                        duration_on_slowest=3600.0 * 24,
                    )
                )
            tenants.append(tenant)
        simulator = ClusterSimulator(
            topology,
            tenants,
            OEFScheduler("noncooperative"),
            placer=Placer(topology, policy=policy),
            config=SimulationConfig(num_rounds=6, stop_when_idle=False),
        )
        return simulator.run().mean_total_actual()

    def test_bench_oef_placement(self, benchmark):
        value = benchmark.pedantic(
            self._actual_throughput, args=(PlacementPolicy.oef(),), rounds=1
        )
        benchmark.extra_info["actual_throughput"] = round(value, 2)

    def test_bench_naive_placement(self, benchmark):
        naive = benchmark.pedantic(
            self._actual_throughput, args=(PlacementPolicy.naive(),), rounds=1
        )
        oef = self._actual_throughput(PlacementPolicy.oef())
        benchmark.extra_info["actual_throughput"] = round(naive, 2)
        benchmark.extra_info["oef_gain_pct"] = round((oef / naive - 1) * 100, 1)
        assert oef >= naive * 0.98
