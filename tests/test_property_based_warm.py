"""Property-based differential test: warm-started solves == cold solves.

For random instances and random perturbation sequences, re-solving with
the previous solve's state (``allocator.allocate_with_state(instance,
state)``, which may accept a verified LP warm start or fall back cold)
must match an always-cold solve in **objective and allocation to
1e-9**, for every registered scheduler and for both LP backends.
Hypothesis shrinks any counterexample to a minimal (instance,
perturbation chain).

This is the external guarantee of the solver-level warm API: a caller
can never observe *what* the solver reused, only that it answered.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import ProblemInstance, SpeedupMatrix
from repro.registry import create_scheduler, scheduler_names

#: hypothesis-heavy: deselect with `pytest -m 'not slow'`
pytestmark = pytest.mark.slow
_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: LP-free baselines are cheap; solve every registered scheduler anyway —
#: the LP-free ones exercise ``Allocator.allocate_with_state``'s default.
_SCHEDULERS = scheduler_names()


@st.composite
def instances(draw, max_users: int = 4, max_types: int = 3):
    """Random valid ProblemInstances (monotone speedup rows)."""
    num_users = draw(st.integers(2, max_users))
    num_types = draw(st.integers(2, max_types))
    rows = []
    for _ in range(num_users):
        gains = [
            draw(st.floats(1.0, 3.0, allow_nan=False, allow_infinity=False))
            for _ in range(num_types - 1)
        ]
        rows.append(np.cumprod([1.0] + gains))
    capacities = [
        draw(st.floats(0.5, 8.0, allow_nan=False, allow_infinity=False))
        for _ in range(num_types)
    ]
    matrix = SpeedupMatrix(np.vstack(rows), normalise=False)
    return ProblemInstance(matrix, capacities)


@st.composite
def perturbation_chains(draw, length: int = 3):
    """A sequence of structure-preserving numeric perturbations.

    Each step scales the capacities and/or jitters the speedup gains —
    the drift pattern of consecutive simulator rounds.  Structure (user
    count, type count) never changes, so the previous state is a warm
    candidate at every step.
    """
    steps = []
    for _ in range(length):
        steps.append(
            (
                draw(st.floats(0.7, 1.4, allow_nan=False, allow_infinity=False)),
                draw(st.floats(0.95, 1.05, allow_nan=False, allow_infinity=False)),
                draw(st.booleans()),
            )
        )
    return steps


def _apply(instance: ProblemInstance, step) -> ProblemInstance:
    capacity_scale, gain_jitter, jitter_speedups = step
    values = instance.speedups.values
    if jitter_speedups:
        # preserve normalisation (column 0 == 1) and monotonicity
        jittered = values * np.power(
            gain_jitter, np.arange(values.shape[1])[None, :]
        )
        values = np.maximum.accumulate(jittered / jittered[:, :1], axis=1)
    return ProblemInstance(
        SpeedupMatrix(values, normalise=False),
        instance.capacities * capacity_scale,
    )


@_SETTINGS
@given(instance=instances(), chain=perturbation_chains())
@pytest.mark.parametrize("lp_backend", ["auto", "simplex"])
def test_warm_resolve_chain_matches_cold(lp_backend, instance, chain):
    for scheduler in _SCHEDULERS:
        options = (
            {"backend": lp_backend}
            if scheduler in ("oef-coop", "oef-noncoop", "efficiency-max")
            else {}
        )
        allocator = create_scheduler(scheduler, **options)
        state = None
        current = instance
        for step in (None, *chain):
            if step is not None:
                current = _apply(current, step)
            allocation, state, _ = allocator.allocate_with_state(current, state)
            cold = create_scheduler(scheduler, **options).allocate(current)
            np.testing.assert_allclose(
                allocation.matrix,
                cold.matrix,
                atol=1e-9,
                err_msg=f"{scheduler} warm/cold allocation drift",
            )
            assert allocation.total_efficiency() == pytest.approx(
                cold.total_efficiency(), abs=1e-9
            ), f"{scheduler} warm/cold objective drift"


@_SETTINGS
@given(instance=instances(), chain=perturbation_chains(length=4))
def test_warm_chain_threads_state_and_stays_exact(instance, chain):
    """The returned warm-state chain itself is safe to thread forward."""
    # tenants that all share one profile split the cluster without an LP,
    # so there is no state to thread (the jitter keeps equal rows equal)
    assume(instance.grouped().count > 1)
    allocator = create_scheduler("oef-noncoop", backend="simplex")
    _, state, warm_used = allocator.allocate_with_state(instance)
    assert state is not None and not warm_used
    current = instance
    for step in chain:
        current = _apply(current, step)
        allocation, state, _ = allocator.allocate_with_state(current, state)
        assert state is not None
        cold = create_scheduler("oef-noncoop", backend="simplex").allocate(current)
        np.testing.assert_allclose(allocation.matrix, cold.matrix, atol=1e-9)
