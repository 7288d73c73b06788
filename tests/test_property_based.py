"""Property-based tests (hypothesis) for core invariants.

These fuzz the allocators and substrates over randomly generated valid
inputs and assert the paper's theorems hold everywhere:

* cooperative OEF is always envy-free and sharing-incentive (Thm 5.1);
* non-cooperative OEF always equalises normalised throughput (Eq. 9c);
* every allocator respects capacity;
* Gandiva_fair trading never hurts anyone relative to the equal split;
* deviation rounding never oversubscribes and converges in time-average;
* the in-repo simplex agrees with scipy HiGHS on random feasible LPs.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import GandivaFair, Gavel, MaxMinFairness
from repro.cluster import DeviationRounder
from repro.core import (
    CooperativeOEF,
    NonCooperativeOEF,
    ProblemInstance,
    SpeedupMatrix,
    check_envy_freeness,
    check_sharing_incentive,
    optimal_efficiency_upper_bound,
)
from reference_lp import LinearProgram, dot


#: hypothesis-heavy: deselect with `pytest -m 'not slow'`
pytestmark = pytest.mark.slow
_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def instances(draw, max_users: int = 5, max_types: int = 4):
    """Random valid ProblemInstances."""
    num_users = draw(st.integers(2, max_users))
    num_types = draw(st.integers(2, max_types))
    rows = []
    for _ in range(num_users):
        gains = [
            draw(st.floats(1.0, 3.0, allow_nan=False, allow_infinity=False))
            for _ in range(num_types - 1)
        ]
        row = np.cumprod([1.0] + gains)
        rows.append(row)
    capacities = [
        draw(st.floats(0.5, 8.0, allow_nan=False, allow_infinity=False))
        for _ in range(num_types)
    ]
    matrix = SpeedupMatrix(np.vstack(rows), normalise=False)
    return ProblemInstance(matrix, capacities)


class TestOEFInvariants:
    @_SETTINGS
    @given(instances())
    def test_cooperative_always_envy_free(self, instance):
        allocation = CooperativeOEF().allocate(instance)
        assert check_envy_freeness(allocation, tol=1e-4).satisfied

    @_SETTINGS
    @given(instances())
    def test_cooperative_always_sharing_incentive(self, instance):
        allocation = CooperativeOEF().allocate(instance)
        assert check_sharing_incentive(allocation, tol=1e-4).satisfied

    @_SETTINGS
    @given(instances())
    def test_cooperative_bounded_by_unconstrained_optimum(self, instance):
        allocation = CooperativeOEF().allocate(instance)
        bound = optimal_efficiency_upper_bound(instance)
        assert allocation.total_efficiency() <= bound * (1 + 1e-6)

    @_SETTINGS
    @given(instances())
    def test_cooperative_at_least_equal_split(self, instance):
        allocation = CooperativeOEF().allocate(instance)
        equal_total = float(instance.equal_split_throughput().sum())
        assert allocation.total_efficiency() >= equal_total * (1 - 1e-6)

    @_SETTINGS
    @given(instances())
    def test_noncooperative_equalises_throughput(self, instance):
        allocation = NonCooperativeOEF().allocate(instance)
        throughput = allocation.user_throughput()
        spread = throughput.max() - throughput.min()
        assert spread <= 1e-4 * max(1.0, throughput.max())

    @_SETTINGS
    @given(instances())
    def test_capacity_respected_by_all_allocators(self, instance):
        for allocator in (
            NonCooperativeOEF(),
            CooperativeOEF(),
            MaxMinFairness(),
            GandivaFair(),
            Gavel(),
        ):
            allocation = allocator.allocate(instance)
            used = allocation.matrix.sum(axis=0)
            assert np.all(used <= instance.capacities + 1e-5)


class TestGandivaInvariants:
    @_SETTINGS
    @given(instances())
    def test_trading_never_hurts_anyone(self, instance):
        allocation = GandivaFair().allocate(instance)
        equal = instance.equal_split_throughput()
        assert np.all(allocation.user_throughput() >= equal - 1e-6)

    @_SETTINGS
    @given(instances())
    def test_trading_weakly_improves_total(self, instance):
        allocation = GandivaFair().allocate(instance)
        equal_total = float(instance.equal_split_throughput().sum())
        assert allocation.total_efficiency() >= equal_total - 1e-6


class TestRoundingInvariants:
    @_SETTINGS
    @given(
        st.lists(
            st.lists(st.floats(0.0, 3.0, allow_nan=False), min_size=2, max_size=2),
            min_size=1,
            max_size=5,
        )
    )
    def test_never_oversubscribes(self, shares):
        rounder = DeviationRounder()
        capacities = [6.0, 6.0]
        ideal = {f"t{i}": np.asarray(row) for i, row in enumerate(shares)}
        for _ in range(5):
            result = rounder.round_shares(ideal, capacities)
            total = result.total_granted()
            if total.size:
                assert np.all(total <= 6 + 1e-9)

    @_SETTINGS
    @given(st.floats(0.05, 0.95))
    def test_time_average_tracks_fraction(self, fraction):
        rounder = DeviationRounder()
        ideal = {"a": np.array([fraction]), "b": np.array([1.0 - fraction])}
        rounds = 50
        total = 0
        for _ in range(rounds):
            total += int(rounder.round_shares(ideal, [1.0]).grants["a"][0])
        assert total / rounds == pytest.approx(fraction, abs=0.05)


class TestSimplexAgainstScipy:
    @_SETTINGS
    @given(st.integers(0, 10_000))
    def test_random_feasible_lp_agreement(self, seed):
        rng = np.random.default_rng(seed)
        num_vars = int(rng.integers(2, 5))
        num_rows = int(rng.integers(1, 4))
        lp = LinearProgram()
        x = lp.new_variable_array("x", num_vars)
        matrix = rng.uniform(0.1, 2.0, size=(num_rows, num_vars))
        rhs = rng.uniform(0.5, 4.0, size=num_rows)
        lp.add_matrix_constraints(matrix, list(x), "<=", rhs)
        lp.set_objective(dot(rng.uniform(0.0, 2.0, num_vars), x), sense="max")
        scipy_obj = lp.solve(backend="highs").objective
        simplex_obj = lp.solve(backend="simplex").objective
        assert simplex_obj == pytest.approx(scipy_obj, rel=1e-6, abs=1e-7)


class TestSpeedupMatrixProperties:
    @_SETTINGS
    @given(instances())
    def test_with_row_roundtrip(self, instance):
        matrix = instance.speedups
        row = matrix.row(0)
        replaced = matrix.with_row(0, row * 1.5)
        restored = replaced.with_row(0, row)
        np.testing.assert_allclose(restored.values, matrix.values)

    @_SETTINGS
    @given(instances(), st.integers(1, 3))
    def test_replication_preserves_rows(self, instance, count):
        matrix = instance.speedups
        replicated = matrix.replicated([count] * matrix.num_users)
        assert replicated.num_users == count * matrix.num_users
        np.testing.assert_allclose(replicated.values[0], matrix.values[0])
