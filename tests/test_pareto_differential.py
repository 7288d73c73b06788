"""The PE floor LP over distinct rows against the member-level program.

``check_pareto_efficiency`` poses its LP over ``instance.grouped(weights)``
with group floors ``m_g . max (f_l / w_l)`` inside a domain and
``sum max(f_l, 0)`` unconstrained; ``reference_weighted.py`` keeps the LP
over every member row.  Same verdict, same achievable total to 1e-9 and
the same infeasibility, on instances whose rows repeat.
"""

import numpy as np
import pytest

from reference_weighted import member_max_total_with_floors
from repro import create_scheduler, scheduler_names
from repro.core import (
    CooperativeOEF,
    NonCooperativeOEF,
    ProblemInstance,
    SpeedupMatrix,
    check_pareto_efficiency,
    properties,
)
from repro.core.allocation import Allocation
from repro.exceptions import InfeasibleError

DOMAINS = [None, "envy_free", "equal_throughput"]
TOL = 1e-5  # check_pareto_efficiency's default


def _instance(seed):
    """More rows than the pool of 3-6 profiles they are drawn from: a group repeats."""
    rng = np.random.default_rng(seed)
    num_types = int(rng.integers(2, 5))
    pool = np.array(
        [
            np.concatenate([[1.0], 1.0 + np.sort(rng.uniform(0.1, 3.0, num_types - 1))])
            for _ in range(int(rng.integers(3, 7)))
        ]
    )
    rows = pool[rng.integers(len(pool), size=int(rng.integers(len(pool) + 1, 13)))]
    instance = ProblemInstance(
        SpeedupMatrix(rows, normalise=False), rng.uniform(1.0, 8.0, num_types)
    )
    return instance, rng


def _allocations(instance, weights):
    """Every registered scheduler's, both OEFs under ``weights``, and two
    perturbations of the weighted cooperative one: a 0.99 scaling and a
    share move between same-row members."""
    allocations = {
        name: create_scheduler(name).allocate(instance) for name in scheduler_names()
    }
    for name, allocator in (("weighted-coop", CooperativeOEF()),
                            ("weighted-noncoop", NonCooperativeOEF())):
        allocations[name] = allocator.allocate_with_state(instance, weights=weights)
    coop = allocations["weighted-coop"].matrix
    allocations["scaled"] = Allocation(coop * 0.99, instance)
    # two members of the largest group: after the move their floors differ
    member_group = instance.grouped().member_group
    first, second = np.flatnonzero(member_group == np.bincount(member_group).argmax())[:2]
    moved = coop.copy()
    delta = 0.25 * moved[first]
    moved[first] -= delta
    moved[second] += delta
    allocations["moved"] = Allocation(moved, instance)
    return allocations


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("seed", range(12))
def test_fold_matches_the_member_level_program(seed, weighted):
    instance, rng = _instance(seed)
    weights = rng.uniform(0.5, 3.0, instance.num_users) if weighted else None
    for name, allocation in _allocations(instance, weights).items():
        current = allocation.user_throughput()
        floors = current - TOL * max(1.0, float(np.abs(current).max()))
        current_total = float(current.sum())
        for within in DOMAINS:
            report = check_pareto_efficiency(allocation, within=within, weights=weights)
            try:
                expected = member_max_total_with_floors(instance, floors, within, weights)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    properties._max_total_with_floors(instance, floors, within, weights)
                assert report.satisfied and report.achievable_total == -np.inf, name
                continue
            assert report.achievable_total == pytest.approx(expected, rel=1e-9), name
            assert report.satisfied == (
                expected <= current_total + TOL * max(1.0, abs(current_total))
            ), (name, within)
            if name == "scaled" and within != "equal_throughput":
                assert not report.satisfied, within  # the unscaled one dominates it


def test_a_negative_floor_lends_no_slack_to_a_same_row_member():
    # rows 0 and 1 share the slow profile; row 1's floor takes devices from
    # the fast row 2, and row 0's -5 must not cancel part of it
    rows = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 4.0]])
    instance = ProblemInstance(SpeedupMatrix(rows, normalise=False), [2.0, 2.0])
    floors = np.array([-5.0, 3.0, 0.0])
    expected = member_max_total_with_floors(instance, floors)
    # row 1 takes both slow-type devices and one fast-type: 3; row 2 the other: 4
    assert expected == pytest.approx(7.0)
    assert properties._max_total_with_floors(instance, floors) == pytest.approx(expected)


def test_envy_free_lp_has_one_block_per_distinct_row(monkeypatch):
    forms = []
    original = properties.solve_form

    def spy(form, **kwargs):
        forms.append(form)
        return original(form, **kwargs)

    monkeypatch.setattr(properties, "solve_form", spy)
    rows = np.array([[1.0, 2.0, 3.0], [1.0, 1.5, 4.0], [1.0, 2.5, 2.5]])
    instance = ProblemInstance(
        SpeedupMatrix(rows[[0, 1, 0, 2, 1, 0, 2, 0]], normalise=False), [4.0, 3.0, 2.0]
    )
    allocation = create_scheduler("oef-coop").allocate(instance)
    assert check_pareto_efficiency(allocation, within="envy_free").satisfied
    num_types, num_groups = 3, 3
    assert [form.a_ub.shape for form in forms] == [
        (num_types + num_groups + num_groups * (num_groups - 1), num_groups * num_types)
    ]
