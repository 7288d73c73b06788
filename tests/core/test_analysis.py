"""Fairness indices and the efficiency-fairness frontier."""

import math
import random
import struct

import numpy as np
import pytest

from repro.baselines import EfficiencyMaxAllocator, MaxMinFairness
from repro.core import analysis
from repro.core import (
    CooperativeOEF,
    compare_allocators,
    efficiency_fairness_frontier,
    jain_index,
    min_max_ratio,
    optimal_efficiency_upper_bound,
)


class TestIndices:
    def test_jain_equal_is_one(self):
        assert jain_index([3.0, 3.0, 3.0]) == pytest.approx(1.0)

    def test_jain_single_winner_is_one_over_n(self):
        assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_jain_empty_and_zero(self):
        assert jain_index([]) == 1.0
        assert jain_index([0.0, 0.0]) == 1.0

    def test_min_max_ratio(self):
        assert min_max_ratio([1.0, 2.0, 4.0]) == pytest.approx(0.25)
        assert min_max_ratio([2.0, 2.0]) == pytest.approx(1.0)

    def test_min_max_ratio_degenerate(self):
        assert min_max_ratio([]) == 1.0
        assert min_max_ratio([0.0, 0.0]) == 1.0


def _numpy_jain_index(throughputs):
    """The numpy formula ``jain_index`` reproduces in plain Python."""
    values = np.asarray(throughputs, dtype=float)
    if values.size == 0:
        return 1.0
    peak = values.max()
    if peak <= 0:
        return 1.0
    scaled = values / peak
    return float(scaled.sum() ** 2 / (scaled.size * (scaled**2).sum()))


def _vector(rng, kind):
    """One vector of length 0-300 drawn the way ``kind`` says."""
    size = rng.randint(0, 300)
    if kind == 0:  # delivered throughputs
        return [rng.random() * 4.0 for _ in range(size)]
    if kind == 1:  # a few repeated rates, zeros of both signs
        pool = [0.0, -0.0, 1.0, 1.5, 2.0, rng.random()]
        return [rng.choice(pool) for _ in range(size)]
    if kind == 2:  # many magnitudes, both signs
        return [
            rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-300, 300)
            for _ in range(size)
        ]
    # overflow, infinities and nans
    pool = [0.0, 1e308, -1e308, math.inf, -math.inf, math.nan, rng.random()]
    return [rng.choice(pool) for _ in range(size)]


def _same_bits(got, want):
    if math.isnan(want):
        return math.isnan(got)
    return struct.pack("<d", got) == struct.pack("<d", want)


class TestJainBits:
    """``jain_index`` sums as numpy's float64 ``add.reduce`` does."""

    def test_bit_equal_to_numpy_over_ten_thousand_vectors(self):
        rng = random.Random(47)
        mismatched = []
        with np.errstate(all="ignore"):
            for index in range(10_400):
                vector = _vector(rng, index % 4)
                got, want = jain_index(vector), _numpy_jain_index(vector)
                if not _same_bits(got, want):
                    mismatched.append((len(vector), got, want))
        assert mismatched == []

    @pytest.mark.parametrize("size", [0, 1, 7, 8, 9, 15, 16, 127, 128, 129, 136, 300])
    def test_each_pairwise_branch(self, size):
        vector = [(index * 7919 % 101) / 37.0 for index in range(size)]
        assert _same_bits(jain_index(vector), _numpy_jain_index(vector))

    def test_sums_equal_numpy_add_reduce_signed_zeros_too(self):
        rng = random.Random(11)
        for size in list(range(0, 140)) + [255, 256, 300]:
            for pool in ([-0.0], [0.0, -0.0], [-0.0, 1e-300, -1e-300, 0.5, 3.0]):
                vector = [rng.choice(pool) for _ in range(size)]
                want = float(np.add.reduce(np.array(vector, dtype=float)))
                assert _same_bits(analysis._add_reduce(vector), want), (size, pool)

    def test_arrays_and_ints_are_read_as_floats(self):
        want = _numpy_jain_index([1.0, 3.0])
        assert jain_index(np.array([1.0, 3.0])) == jain_index([1, 3]) == want
        assert type(jain_index(np.array([2.0, 2.0]))) is float

    def test_a_nan_beside_zeros_is_nan(self):
        # numpy's max is nan when any value is; Python's max skips a late nan
        assert math.isnan(_numpy_jain_index([0.0, math.nan]))
        assert math.isnan(jain_index([0.0, math.nan]))


class TestFrontier:
    def test_monotone_in_alpha(self, zoo_instance_4):
        points = efficiency_fairness_frontier(
            zoo_instance_4, alphas=(0.0, 0.5, 1.0)
        )
        efficiencies = [point.total_efficiency for point in points]
        assert efficiencies == sorted(efficiencies, reverse=True)

    def test_alpha_zero_is_unconstrained_optimum(self, zoo_instance_4):
        points = efficiency_fairness_frontier(zoo_instance_4, alphas=(0.0,))
        assert points[0].total_efficiency == pytest.approx(
            optimal_efficiency_upper_bound(zoo_instance_4), rel=1e-6
        )

    def test_alpha_one_floors_everyone(self, zoo_instance_4):
        points = efficiency_fairness_frontier(zoo_instance_4, alphas=(1.0,))
        fair = zoo_instance_4.equal_split_throughput()
        assert points[0].min_throughput >= fair.min() - 1e-6

    def test_fairness_improves_along_frontier(self, zoo_instance_4):
        points = efficiency_fairness_frontier(
            zoo_instance_4, alphas=(0.0, 1.0)
        )
        assert points[1].jain > points[0].jain

    def test_coop_oef_between_extremes(self, zoo_instance_4):
        # envy-freeness is *stricter* than the alpha=1 SI floor (EF implies
        # SI but not vice versa, Theorem 5.1), so coop OEF sits between the
        # equal split and the unconstrained optimum, below the alpha=1 point
        points = efficiency_fairness_frontier(
            zoo_instance_4, alphas=(0.0, 1.0)
        )
        oef = CooperativeOEF().allocate(zoo_instance_4).total_efficiency()
        equal_total = float(zoo_instance_4.equal_split_throughput().sum())
        assert equal_total - 1e-6 <= oef <= points[0].total_efficiency + 1e-6
        assert oef <= points[1].total_efficiency + 1e-6


class TestCompare:
    def test_rows_cover_all_allocators(self, zoo_instance_4):
        rows = compare_allocators(
            [CooperativeOEF(), MaxMinFairness(), EfficiencyMaxAllocator()],
            zoo_instance_4,
        )
        assert [row["scheduler"] for row in rows] == [
            "oef-coop",
            "max-min",
            "efficiency-max",
        ]

    def test_efficiency_max_tops_efficiency(self, zoo_instance_4):
        rows = compare_allocators(
            [CooperativeOEF(), EfficiencyMaxAllocator()], zoo_instance_4
        )
        by_name = {row["scheduler"]: row for row in rows}
        assert (
            by_name["efficiency-max"]["total efficiency"]
            >= by_name["oef-coop"]["total efficiency"]
        )

    def test_property_flags_present(self, zoo_instance_4):
        rows = compare_allocators([MaxMinFairness()], zoo_instance_4)
        assert rows[0]["envy-free"] is True
        assert rows[0]["sharing-incentive"] is True
