"""Warm-start states: verification, reuse, and the never-change-answers rule."""

import numpy as np
import pytest

from repro.core import ProblemInstance, SpeedupMatrix
from repro.registry import create_scheduler
from repro.solver import (
    LinearProgram,
    ScipyBackend,
    SimplexBackend,
    WarmStartState,
    dot,
    form_signature,
    lin_sum,
    try_warm_solve,
)

#: generic (tie-free) objective coefficients so optima are unique
SPEED = [[1.3, 2.2], [1.05, 3.4]]


def build(caps, speed=SPEED):
    lp = LinearProgram("warm-test")
    x = lp.new_variable_array("x", (2, 2))
    for j in range(2):
        lp.add_constraint(lin_sum(x[:, j]) <= float(caps[j]))
    lp.set_objective(dot(np.asarray(speed).ravel(), list(x.ravel())), sense="max")
    return lp


class TestFormSignature:
    def test_values_do_not_change_signature(self):
        a = build([1.0, 2.0]).compile()
        b = build([9.0, 7.0], [[2, 3], [4, 5]]).compile()
        assert form_signature(a) == form_signature(b)

    def test_shape_changes_signature(self):
        two = build([1.0, 2.0]).compile()
        lp = LinearProgram("three")
        x = lp.new_variable_array("x", (3, 2))
        for j in range(2):
            lp.add_constraint(lin_sum(x[:, j]) <= 1.0)
        lp.set_objective(lin_sum(list(x.ravel())), sense="max")
        assert form_signature(two) != form_signature(lp.compile())

    def test_bound_pattern_changes_signature(self):
        bounded = LinearProgram("b")
        bounded.new_variable("x", lower=0.0)
        bounded.set_objective(0.0)
        free = LinearProgram("f")
        free.new_variable("x", lower=None)
        free.set_objective(0.0)
        assert form_signature(bounded.compile()) != form_signature(free.compile())


class TestSolutionCarriesState:
    @pytest.mark.parametrize("backend", ["scipy", "simplex"])
    def test_cold_solve_produces_state(self, backend):
        solution = build([1.0, 2.0]).solve(backend=backend)
        assert isinstance(solution.warm_state, WarmStartState)
        assert not solution.stats.warm_start_used
        if backend == "simplex":
            assert solution.warm_state.basis is not None
        else:
            assert solution.warm_state.dual_ub is not None

    def test_state_repr_is_compact(self):
        state = build([1.0, 2.0]).solve(backend="simplex").warm_state
        assert "basis" in repr(state) and "array" not in repr(state)


class TestSimplexBasisReuse:
    def test_rhs_drift_reuses_basis(self):
        prior = build([1.0, 2.0]).solve(backend="simplex")
        warm = build([1.15, 1.85]).solve(
            backend="simplex", warm_start=prior.warm_state
        )
        cold = build([1.15, 1.85]).solve(backend="simplex")
        assert warm.stats.warm_start_used
        np.testing.assert_allclose(warm.values, cold.values, atol=1e-9)
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)

    def test_objective_drift_reuses_basis(self):
        prior = build([1.0, 2.0]).solve(backend="simplex")
        drifted = [[1.31, 2.21], [1.06, 3.41]]
        warm = build([1.0, 2.0], drifted).solve(
            backend="simplex", warm_start=prior.warm_state
        )
        cold = build([1.0, 2.0], drifted).solve(backend="simplex")
        assert warm.stats.warm_start_used
        np.testing.assert_allclose(warm.values, cold.values, atol=1e-9)

    def test_degenerate_tie_falls_back_cold(self):
        # equal speedups on type 0: the optimum is a face, not a point,
        # so the strict reduced-cost check must refuse the warm path
        tied = [[1.0, 2.0], [1.0, 3.0]]
        prior = build([1.0, 2.0], tied).solve(backend="simplex")
        warm = build([1.1, 1.9], tied).solve(
            backend="simplex", warm_start=prior.warm_state
        )
        cold = build([1.1, 1.9], tied).solve(backend="simplex")
        assert not warm.stats.warm_start_used
        np.testing.assert_allclose(warm.values, cold.values, atol=1e-12)

    def test_structure_change_falls_back_cold(self):
        prior = build([1.0, 2.0]).solve(backend="simplex")
        lp = LinearProgram("bigger")
        x = lp.new_variable_array("x", (3, 2))
        for j in range(2):
            lp.add_constraint(lin_sum(x[:, j]) <= 1.0)
        lp.set_objective(
            dot(np.asarray([[1, 2], [1, 3], [1, 4]], dtype=float).ravel(),
                list(x.ravel())),
            sense="max",
        )
        warm = lp.solve(backend="simplex", warm_start=prior.warm_state)
        assert not warm.stats.warm_start_used

    def test_chained_reuse_across_a_drift_sequence(self):
        state = build([1.0, 2.0]).solve(backend="simplex").warm_state
        rng = np.random.default_rng(7)
        used = 0
        for _ in range(6):
            caps = [1.0 + 0.2 * rng.random(), 2.0 + 0.2 * rng.random()]
            warm = build(caps).solve(backend="simplex", warm_start=state)
            cold = build(caps).solve(backend="simplex")
            np.testing.assert_allclose(warm.values, cold.values, atol=1e-9)
            used += warm.stats.warm_start_used
            state = warm.warm_state
        assert used == 6  # generic drifts keep the same optimal basis


class TestScipyKKTReuse:
    def test_identical_program_reuses_certificate(self):
        prior = build([1.0, 2.0]).solve(backend="scipy")
        warm = build([1.0, 2.0]).solve(backend="scipy", warm_start=prior.warm_state)
        assert warm.stats.warm_start_used
        np.testing.assert_allclose(warm.values, prior.values, atol=1e-12)

    def test_active_rhs_drift_falls_back_cold(self):
        # moving a *binding* capacity moves the optimum: the stored point
        # is infeasible-or-suboptimal, so the certificate must be refused
        prior = build([1.0, 2.0]).solve(backend="scipy")
        warm = build([0.9, 1.7]).solve(backend="scipy", warm_start=prior.warm_state)
        cold = build([0.9, 1.7]).solve(backend="scipy")
        assert not warm.stats.warm_start_used
        np.testing.assert_allclose(warm.values, cold.values, atol=1e-12)

    def test_cross_backend_states_interoperate(self):
        # a simplex-produced basis warms a scipy solve and vice versa:
        # verification is backend-orthogonal numpy, not solver internals
        simplex_state = build([1.0, 2.0]).solve(backend="simplex").warm_state
        warm = build([1.1, 1.9]).solve(backend="scipy", warm_start=simplex_state)
        cold = build([1.1, 1.9]).solve(backend="scipy")
        assert warm.stats.warm_start_used  # basis flavour fired under scipy
        np.testing.assert_allclose(warm.values, cold.values, atol=1e-9)

        scipy_state = build([1.0, 2.0]).solve(backend="scipy").warm_state
        warm2 = build([1.0, 2.0]).solve(backend="simplex", warm_start=scipy_state)
        assert warm2.stats.warm_start_used  # KKT flavour fired under simplex


class TestTryWarmSolveDirect:
    def test_none_state_is_a_miss(self):
        assert try_warm_solve(build([1.0, 2.0]).compile(), None) is None

    def test_empty_state_is_a_miss(self):
        form = build([1.0, 2.0]).compile()
        assert try_warm_solve(form, WarmStartState(form_signature(form))) is None

    def test_corrupt_basis_is_a_miss(self):
        form = build([1.0, 2.0]).compile()
        state = WarmStartState(form_signature(form), basis=(0, 99))
        assert try_warm_solve(form, state) is None

    @pytest.mark.parametrize("backend_cls", [ScipyBackend, SimplexBackend])
    def test_backend_solve_signature_accepts_warm_start(self, backend_cls):
        form = build([1.0, 2.0]).compile()
        values = backend_cls().solve(form, warm_start=None)
        assert values.shape == (4,)


class TestAllocatorWarmState:
    """``Allocator.allocate_with_state``: the warm API above ``solve_form``."""

    @staticmethod
    def _drifted(instance, scale):
        return ProblemInstance(instance.speedups, instance.capacities * scale)

    def test_state_is_reused_and_answer_equals_cold(self, paper_instance):
        allocator = create_scheduler("oef-noncoop", backend="simplex")
        _, state, warm_used = allocator.allocate_with_state(paper_instance)
        assert state is not None and not warm_used
        drifted = self._drifted(paper_instance, 1.1)
        warm, _, warm_used = allocator.allocate_with_state(drifted, state)
        assert warm_used
        cold = create_scheduler("oef-noncoop", backend="simplex").allocate(drifted)
        np.testing.assert_allclose(warm.matrix, cold.matrix, atol=1e-9)

    def test_chain_matches_cold_at_every_step(self, paper_instance):
        allocator = create_scheduler("oef-coop", backend="simplex")
        state = None
        for scale in (1.0, 1.05, 0.97, 1.12, 1.0):
            instance = self._drifted(paper_instance, scale)
            allocation, state, _ = allocator.allocate_with_state(instance, state)
            cold = create_scheduler("oef-coop", backend="simplex").allocate(instance)
            np.testing.assert_allclose(allocation.matrix, cold.matrix, atol=1e-9)

    def test_shape_change_falls_back_cold(self, paper_instance):
        allocator = create_scheduler("oef-noncoop", backend="simplex")
        _, state, _ = allocator.allocate_with_state(paper_instance)
        smaller = ProblemInstance(
            SpeedupMatrix(paper_instance.speedups.values[:2]),
            paper_instance.capacities,
        )
        allocation, _, warm_used = allocator.allocate_with_state(smaller, state)
        assert not warm_used  # different structure: verified cold solve
        assert allocation.matrix.shape[0] == 2

    def test_lp_free_scheduler_ignores_the_state(self, paper_instance):
        allocator = create_scheduler("max-min")
        allocation, state, warm_used = allocator.allocate_with_state(
            paper_instance, WarmStartState(("anything",))
        )
        assert state is None and not warm_used
        np.testing.assert_allclose(
            allocation.matrix, create_scheduler("max-min").allocate(paper_instance).matrix
        )
