"""Property-based test: pipeline composition never changes an answer.

For random instances, random schedulers, and **any permutation of the
optimisation stages** {Cache, Coalesce, Metrics} around the
terminal :class:`SolverMiddleware`, the gateway must produce allocations
bit-identical to a bare (solver-only) pipeline — the stages are
transparent accelerators, never policy.  A second property drives a
drift chain through permuted pipelines and checks every step against an
always-cold solve, so no ordering lets the cache answer one instance
with its neighbour's allocation.  Hypothesis shrinks any counterexample to a
minimal (instance, permutation) pair.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ProblemInstance, SpeedupMatrix
from repro.gateway import (
    CacheMiddleware,
    CoalesceMiddleware,
    Gateway,
    MetricsMiddleware,
    SolverMiddleware,
    bare_pipeline,
)
from repro.registry import create_scheduler, scheduler_names

#: hypothesis-heavy: deselect with `pytest -m 'not slow'`
pytestmark = pytest.mark.slow
_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_STAGE_FACTORIES = (
    CacheMiddleware,
    CoalesceMiddleware,
    MetricsMiddleware,
)

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


def _permuted_gateway(order) -> Gateway:
    """A gateway running the given stage ordering above the solver."""
    return Gateway([factory() for factory in order] + [SolverMiddleware()])


@given(
    instance=instances(),
    order=st.permutations(_STAGE_FACTORIES),
    scheduler=st.sampled_from(_SCHEDULERS),
)
@_SETTINGS
def test_any_stage_permutation_matches_bare_pipeline(instance, order, scheduler):
    """Cold solve + repeat solve through any ordering == bare pipeline."""
    bare = Gateway(bare_pipeline()).solve(instance, scheduler)
    permuted = _permuted_gateway(order)
    first = permuted.solve(instance, scheduler)
    second = permuted.solve(instance, scheduler)  # served by whatever caches
    np.testing.assert_array_equal(first.allocation.matrix, bare.allocation.matrix)
    np.testing.assert_array_equal(second.allocation.matrix, bare.allocation.matrix)
    assert first.scheduler == second.scheduler == bare.scheduler
    # every call is accounted for exactly once by the cache stage
    stats = permuted.cache_info()
    assert stats.hits + stats.misses == 2


@given(
    instance=instances(),
    order=st.permutations(_STAGE_FACTORIES),
    subset_mask=st.lists(st.booleans(), min_size=4, max_size=4),
    scheduler=st.sampled_from(_SCHEDULERS),
)
@_SETTINGS
def test_any_stage_subset_matches_bare_pipeline(
    instance, order, subset_mask, scheduler
):
    """Dropping any subset of optimisation stages changes nothing either."""
    stages = [
        factory for factory, keep in zip(order, subset_mask) if keep
    ]
    gateway = Gateway([factory() for factory in stages] + [SolverMiddleware()])
    bare = Gateway(bare_pipeline()).solve(instance, scheduler)
    response = gateway.solve(instance, scheduler)
    np.testing.assert_array_equal(
        response.allocation.matrix, bare.allocation.matrix
    )


class _StubAuditReport:
    """Cheap stand-in for a PropertyReport (the differential property is
    about the hot path, not the audit verdicts)."""

    def as_row(self):
        return {
            "scheduler": "stub",
            "PE": "yes",
            "EF": "yes",
            "SI": "yes",
            "SP": "yes",
            "optimal efficiency": "yes",
        }


@given(
    instance=instances(),
    order=st.permutations(_STAGE_FACTORIES),
    position=st.integers(0, len(_STAGE_FACTORIES)),
    scheduler=st.sampled_from(_SCHEDULERS),
)
@_SETTINGS
def test_audit_stage_at_any_anchor_is_invisible(
    instance, order, position, scheduler
):
    """AuditMiddleware at every legal anchor: byte-identical payloads,
    untouched cache/coalesce counters — a pure observer wherever it sits."""
    from repro.auditor.middleware import AuditMiddleware
    from repro.auditor.worker import AuditWorker
    from repro.server.protocol import json_bytes, response_payload

    worker = AuditWorker(None, audit_fn=lambda inst, sched: _StubAuditReport())
    try:
        stages = [factory() for factory in order]
        stages.insert(position, AuditMiddleware(1.0, worker=worker))
        audited = Gateway(stages + [SolverMiddleware()])
        plain = _permuted_gateway(order)
        bare = Gateway(bare_pipeline()).solve(instance, scheduler)
        audited_response = plain_response = None
        for _ in range(2):  # cold pass, then whatever-cache-serves pass
            audited_response = audited.solve(instance, scheduler)
            plain_response = plain.solve(instance, scheduler)
            audited_payload = response_payload(audited_response)
            plain_payload = response_payload(plain_response)
            audited_payload.pop("served")  # wall-clock timings differ
            plain_payload.pop("served")
            assert json_bytes(audited_payload) == json_bytes(plain_payload)
        np.testing.assert_array_equal(
            audited_response.allocation.matrix, bare.allocation.matrix
        )
        audited_cache, plain_cache = audited.cache_info(), plain.cache_info()
        assert (audited_cache.hits, audited_cache.misses) == (
            plain_cache.hits,
            plain_cache.misses,
        )
        assert audited_cache.hits + audited_cache.misses == 2
        assert (
            audited.find(CoalesceMiddleware).stats()
            == plain.find(CoalesceMiddleware).stats()
        )
    finally:
        worker.stop(timeout=5.0)


@given(
    instance=instances(),
    order=st.permutations(_STAGE_FACTORIES),
    scales=st.lists(
        st.floats(0.6, 1.6, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=3,
    ),
    scheduler=st.sampled_from(["oef-coop", "oef-noncoop", "max-min"]),
)
@_SETTINGS
def test_drift_chain_matches_cold_under_any_permutation(
    instance, order, scales, scheduler
):
    """A drifted instance is never answered with its neighbour's entry."""
    options = {"method": "full"} if scheduler == "oef-coop" else {}
    permuted = _permuted_gateway(order)
    permuted.solve(instance, scheduler, options=options)
    for scale in scales:
        drifted = ProblemInstance(instance.speedups, instance.capacities * scale)
        response = permuted.solve(drifted, scheduler, options=options)
        cold = create_scheduler(scheduler, **options).allocate(drifted)
        np.testing.assert_allclose(
            response.allocation.matrix, cold.matrix, atol=1e-9
        )
