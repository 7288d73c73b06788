"""The replicated program and the parent's builders, kept as differential oracles.

PR 21 solves Eq. 9/10 over one row per distinct speedup profile with a
multiplicity, where the parent entered a weight-``w`` tenant as ``w``
identical rows (§4.2.3's virtual users).  Four things are kept here so
the differential tests can run them beside the live code:

* :func:`replicated_optimum` — the paper's program on literally replicated
  rows (``SpeedupMatrix.replicated``), with grouping switched off;
* :func:`parent_coop_form` / :func:`parent_noncoop_form` — the pre-change
  ``CooperativeOEF._full_form`` / ``NonCooperativeOEF._form`` builders,
  copied without edits, for the "unit weights, distinct rows: same arrays"
  identity;
* :func:`parent_check_pareto_efficiency` — the ``LinearProgram`` build the
  sparse PE check replaces, copied without edits;
* :func:`member_max_total_with_floors` — the PE floor LP over every
  member row, which the live check now poses over distinct rows (used by
  ``test_pareto_differential.py``), copied without edits.

Do not "tidy" the copied bodies: they are only worth anything while they
stay the old code.  The one edit since: the LP-backend argument left with
the knob it named, and ``LinearProgram`` now comes from the test-side
oracle ``reference_lp.py``.
"""

from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

import numpy as np
from scipy import sparse

from repro.core import CooperativeOEF, NonCooperativeOEF, ProblemInstance, SpeedupMatrix
from repro.core.cooperative import capacity_rows, envy_rows
from repro.core.instance import GroupedInstance
from repro.core.noncooperative import equal_throughput_rows
from repro.core.properties import ParetoReport, floor_rows
from reference_lp import LinearProgram, dot
from repro.solver import StandardForm, solve_form


def replica_counts(weights: Sequence[float]) -> np.ndarray:
    """Smallest integer counts in the ratio of (rational) ``weights``."""
    fractions = [Fraction(weight).limit_denominator(64) for weight in weights]
    common = lcm(*(fraction.denominator for fraction in fractions))
    counts = np.array([int(fraction * common) for fraction in fractions])
    return counts // np.gcd.reduce(counts)


def ungrouped(instance: ProblemInstance) -> GroupedInstance:
    """Every row its own group of multiplicity 1: the program as the paper writes it."""
    num_users = instance.num_users
    return GroupedInstance(
        speedups=np.array(instance.speedups.values),
        multiplicity=np.ones(num_users),
        capacities=instance.capacities,
        member_group=np.arange(num_users),
        member_fraction=np.ones(num_users),
    )


def replicated_optimum(
    rows: np.ndarray, counts: Sequence[int], capacities: np.ndarray, mode: str
) -> float:
    """Total throughput of Eq. 10 / Eq. 9 over ``counts[l]`` copies of each row."""
    matrix = SpeedupMatrix(rows, normalise=False, require_monotone=False)
    replicas = ungrouped(ProblemInstance(matrix.replicated(counts), capacities))
    if mode == "cooperative":
        shares = CooperativeOEF(method="full")._solve_full(replicas)
    else:
        values = solve_form(NonCooperativeOEF()._form(replicas)).values
        shares = values[: replicas.speedups.size].reshape(replicas.speedups.shape)
    return float(np.einsum("lj,lj->", replicas.speedups, shares))


# -- the parent's builders, verbatim -------------------------------------------
def _capacity_rows(num_users: int, num_types: int) -> sparse.csr_matrix:
    """Sparse rows for (10b): sum over users of x_l^j, one row per type."""
    columns = np.arange(num_types)[:, None] + num_types * np.arange(num_users)
    return sparse.csr_matrix(
        (
            np.ones(num_users * num_types),
            columns.ravel(),
            np.arange(0, num_users * num_types + 1, num_users),
        ),
        shape=(num_types, num_users * num_types),
    )


def _envy_rows(speedups: np.ndarray) -> sparse.csr_matrix:
    num_users, num_types = speedups.shape
    envious = np.repeat(np.arange(num_users), num_users)
    envied = np.tile(np.arange(num_users), num_users)
    keep = envious != envied
    envious, envied = envious[keep], envied[keep]
    type_range = np.arange(num_types)
    indices = np.concatenate(
        [
            np.minimum(envious, envied)[:, None] * num_types + type_range,
            np.maximum(envious, envied)[:, None] * num_types + type_range,
        ],
        axis=1,
    )
    own = np.where(envious < envied, -1.0, 1.0)[:, None] * speedups[envious]
    return sparse.csr_matrix(
        (
            np.concatenate([own, -own], axis=1).ravel(),
            indices.ravel(),
            np.arange(0, indices.size + 1, 2 * num_types),
        ),
        shape=(envious.shape[0], num_users * num_types),
    )


def parent_coop_form(instance: ProblemInstance) -> StandardForm:
    speedups = instance.speedups.values
    num_users, num_types = speedups.shape
    # row order mirrors the historical LinearProgram compile:
    # capacity "<=" rows first, then the ">=" envy rows negated
    a_ub = sparse.vstack(
        [
            _capacity_rows(num_users, num_types),
            _envy_rows(speedups),
        ],
        format="csr",
    )
    b_ub = np.concatenate(
        [
            np.asarray(instance.capacities, dtype=float),
            np.zeros(num_users * (num_users - 1)),
        ]
    )
    return StandardForm(
        c=-speedups.ravel(),
        a_ub=a_ub,
        b_ub=b_ub,
        a_eq=None,
        b_eq=None,
        bounds=[(0.0, None)] * (num_users * num_types),
        maximise=True,
    )


def parent_noncoop_form(instance: ProblemInstance) -> StandardForm:
    speedups = instance.speedups.values
    num_users, num_types = speedups.shape
    num_shares = num_users * num_types
    # (9b) capacity per GPU type, plus a zero column for T
    capacity_rows = sparse.csr_matrix(
        (
            np.ones(num_shares),
            (
                np.tile(np.arange(num_types), num_users),
                np.arange(num_shares),
            ),
        ),
        shape=(num_types, num_shares + 1),
    )
    # (9c) equal normalised throughput: W_l . x_l - T == 0
    equal_rows = sparse.csr_matrix(
        (
            np.concatenate([speedups.ravel(), -np.ones(num_users)]),
            (
                np.concatenate(
                    [
                        np.repeat(np.arange(num_users), num_types),
                        np.arange(num_users),
                    ]
                ),
                np.concatenate(
                    [
                        np.arange(num_shares),
                        np.full(num_users, num_shares),
                    ]
                ),
            ),
        ),
        shape=(num_users, num_shares + 1),
    )
    # (9a) maximise T; StandardForm keeps c in minimisation
    # convention, negated back on report via ``maximise``
    c = np.zeros(num_shares + 1)
    c[num_shares] = -1.0
    return StandardForm(
        c=c,
        a_ub=capacity_rows,
        b_ub=np.asarray(instance.capacities, dtype=float),
        a_eq=equal_rows,
        b_eq=np.zeros(num_users),
        bounds=[(0.0, None)] * (num_shares + 1),
        maximise=True,
    )


def parent_check_pareto_efficiency(
    allocation,
    tol: float = 1e-5,
    within: Optional[str] = None,
) -> ParetoReport:
    instance = allocation.instance
    speedups = instance.speedups.values
    num_users, num_types = speedups.shape
    current = allocation.user_throughput()

    lp = LinearProgram("pareto-test")
    shares = lp.new_variable_array("x", (num_users, num_types), lower=0.0)
    flat = list(shares.ravel())
    for type_index in range(num_types):
        coeff = np.zeros((1, num_users * num_types))
        coeff[0, type_index::num_types] = 1.0
        lp.add_matrix_constraints(
            coeff, flat, "<=", float(instance.capacities[type_index])
        )
    slack = tol * max(1.0, float(np.abs(current).max()))
    for user in range(num_users):
        lp.add_constraint(
            dot(speedups[user], shares[user]) >= float(current[user]) - slack
        )
    if within == "envy_free":
        for user in range(num_users):
            for other in range(num_users):
                if other != user:
                    lp.add_constraint(
                        dot(speedups[user], shares[user])
                        - dot(speedups[user], shares[other])
                        >= 0.0
                    )
    elif within == "equal_throughput":
        for user in range(1, num_users):
            lp.add_constraint(
                dot(speedups[user], shares[user])
                - dot(speedups[0], shares[0])
                == 0.0
            )
    elif within is not None:
        raise ValueError(f"unknown PE domain {within!r}")
    lp.set_objective(dot(speedups.ravel(), flat), sense="max")
    achievable = lp.solve().objective
    current_total = float(current.sum())
    # relative tolerance: LP solvers return slightly-off vertex values
    satisfied = achievable <= current_total + tol * max(1.0, abs(current_total))
    return ParetoReport(
        satisfied=satisfied,
        achievable_total=achievable,
        current_total=current_total,
    )


def member_max_total_with_floors(
    instance: ProblemInstance,
    floors: np.ndarray,
    within: Optional[str] = None,
    weights: Optional[np.ndarray] = None,
) -> float:
    """Max total throughput with ``W_l . x_l >= floors[l]``, inside ``within``."""
    if within not in (None, "envy_free", "equal_throughput"):
        raise ValueError(f"unknown PE domain {within!r}")
    speedups = instance.speedups.values
    num_users, num_types = speedups.shape
    multiplicity = np.ones(num_users) if weights is None else np.asarray(weights, float)
    # equal throughput is W_l . x_l - w_l T == 0 with T one more column
    extra = 1 if within == "equal_throughput" else 0
    blocks = [capacity_rows(num_users, num_types, extra), floor_rows(speedups, extra)]
    bounds = [instance.capacities, -floors]
    if within == "envy_free":
        blocks.append(envy_rows(speedups, multiplicity))
        bounds.append(np.zeros(num_users * (num_users - 1)))
    form = StandardForm(
        c=-np.concatenate([speedups.ravel(), np.zeros(extra)]),
        a_ub=sparse.vstack(blocks, format="csr"),
        b_ub=np.concatenate(bounds),
        a_eq=equal_throughput_rows(speedups, multiplicity) if extra else None,
        b_eq=np.zeros(num_users) if extra else None,
        bounds=[(0.0, None)] * (speedups.size + extra),
        maximise=True,
    )
    return solve_form(form).objective
