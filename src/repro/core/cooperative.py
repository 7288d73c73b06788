"""Cooperative OEF: envy-free, sharing-incentive, optimally efficient (§4.2.2).

The linear program (Eq. 10):

    max   sum_l sum_j w_l^j x_l^j                             (10a)
    s.t.  sum_l x_l^j <= m_j                      for all j   (10b)
          W_l . x_l >= W_l . x_i             for all i != l   (10c)

Envy-freeness is imposed directly as the O(n^2) constraints (10c); the
paper's Theorem 5.1 shows sharing-incentive then follows automatically at
the optimum (sum the n constraints of one user and use full capacity use).
Strategy-proofness is *not* provided — that is the point of the split into
cooperative and non-cooperative variants (Theorems 3.2/3.3 prove the
combination is impossible at optimal efficiency).

The program is posed over distinct rows with multiplicities ``m_g``
(:class:`~repro.core.instance.GroupedInstance`): over the groups' total
shares ``z`` (10a) and (10b) read as above, and (10c) for (g, h) becomes
``m_h W_g . z_g >= m_g W_g . z_h`` — per unit of weight, denominators
cleared.  §4.2.3's replicas are the proof, the multiplicity the computation.

Assembly is sparse and vectorized end-to-end: the capacity and envy
systems are composed as index arrays (no Python-level row loops), the
full program's index arrays are built once per (groups, types) shape
and each instance computes only its coefficients, and the cutting-plane
path keeps one *incremental* HiGHS session alive across rounds (new cuts
are appended rows; each re-solve is a warm dual-simplex run) with
slack-based cut dropping — see
:meth:`CooperativeOEF._cutting_plane_incremental`.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.allocation import Allocation, Certificate
from repro.core.base import Allocator
from repro.core.instance import GroupedInstance, ProblemInstance
from repro.registry import register_scheduler
# solve_form is bound here by name: bench/layers.py wraps this module's binding
from repro.solver import (
    CSR,
    FORM_CACHE,
    IncrementalLP,
    StandardForm,
    fingerprint_arrays,
    nonnegative_bounds,
    solve_form,
)


def capacity_rows(num_users: int, num_types: int, extra_columns: int = 0) -> CSR:
    """Sparse rows for (10b): sum over users of x_l^j, one row per type
    (``extra_columns``: empty trailing ones, the ``T`` of Eq. 9)."""
    columns = np.arange(num_types)[:, None] + num_types * np.arange(num_users)
    return CSR(
        np.ones(num_users * num_types),
        columns.ravel(),
        np.arange(0, num_users * num_types + 1, num_users),
        (num_types, num_users * num_types + extra_columns),
    )


def envy_rows(
    speedups: np.ndarray,
    multiplicity: np.ndarray,
    pairs: Optional[Sequence[Tuple[int, int]]] = None,
) -> CSR:
    """The (10c) rows of ordered pairs (g, h) over flattened z, as ``<= 0``.

    Row for (g, h): ``-m_h W_g`` at group g's columns, ``+m_g W_g`` at
    group h's (unit multiplicities multiply exactly: the paper's rows).
    ``pairs`` restricts to a subset (cutting-plane path); ``None``
    builds all n(n-1) rows.  Every row holds exactly ``2k`` entries,
    so the CSR arrays are written directly, lower group's columns
    first — pure index arithmetic, no per-pair loop, no COO detour.
    """
    num_users, num_types = speedups.shape
    data, indices = _envy_entries(speedups, multiplicity, pairs)
    starts = np.arange(0, indices.size + 1, 2 * num_types)
    return CSR(data, indices, starts, (starts.size - 1, num_users * num_types))


def eq10_rows(
    speedups: np.ndarray,
    multiplicity: np.ndarray,
    pairs: Optional[Sequence[Tuple[int, int]]] = None,
) -> CSR:
    """(10b) over (10c): ``CSR.vstack([capacity_rows, envy_rows])`` byte for
    byte, in one constructor, without building either block.

    All n(n-1) pairs (``pairs=None``, the full program) take their index
    arrays from the shape's :func:`_eq10_skeleton` and compute only the
    coefficients: one product table and one gather.
    """
    num_users, num_types = speedups.shape
    if pairs is None:
        skeleton = _eq10_skeleton(num_users, num_types)
        # source[1 + (g * k + j) * 2n + s] = W_g[j] * (m, -m)[s]; source[0] = 1
        signed = np.concatenate((multiplicity, -multiplicity))
        source = np.concatenate((_ONE, np.multiply.outer(speedups, signed).ravel()))
        return CSR(source.take(skeleton.gather), skeleton.indices, skeleton.indptr,
                   skeleton.shape)
    data, indices = _envy_entries(speedups, multiplicity, pairs)
    ones = np.ones(num_users * num_types)
    return CSR(*_below_capacity_rows(num_users, num_types, ones, data, indices))


def _below_capacity_rows(num_users, num_types, head_data, data, indices) -> tuple:
    """``(data, indices, indptr, shape)`` of the (10b) rows, entries
    ``head_data``, over (10c) rows of ``2k`` entries each."""
    head = num_users * num_types
    columns = np.arange(num_types)[:, None] + num_types * np.arange(num_users)
    starts = np.arange(head, head + indices.size + 1, 2 * num_types)
    return (
        np.concatenate([head_data, data]),
        np.concatenate([columns.ravel(), indices]),
        np.concatenate([np.arange(0, head, num_users), starts]),
        (num_types + indices.size // (2 * num_types), head),
    )


_ONE = np.ones(1)


def _certificate(instance: GroupedInstance, duals: np.ndarray, pairs) -> Certificate:
    """Eq. 10's certificate from the row duals of a solve whose rows are
    the capacity rows, then one envy row per pair of ``pairs``."""
    num_types = instance.speedups.shape[1]
    envy = -duals[num_types:]
    held = np.flatnonzero(envy)
    return Certificate(
        "envy_free", instance.multiplicity, -duals[:num_types], pairs[held], envy[held]
    )


def one_profile_certificate(domain: str, instance: GroupedInstance) -> Certificate:
    """A single group's: a type's dual is its speed, no domain row binds."""
    keys = np.zeros((0, 2) if domain == "envy_free" else 0, dtype=np.intp)
    return Certificate(domain, instance.multiplicity, instance.speedups[0], keys, np.zeros(0))


def _presolve_reduces(capacities: np.ndarray) -> bool:
    """HiGHS presolve reduces Eq. 10 only by fixing a zero-capacity type's
    columns at zero: skipped otherwise, the same model reaches the simplex."""
    return not capacities.min() > 0


class _Skeleton(NamedTuple):
    """What the full Eq. 10 of one (groups, types) shape holds whatever its
    numbers: read-only arrays shared by every question of that shape."""

    gather: np.ndarray  # each entry's place in eq10_rows' source vector
    indices: np.ndarray  # int32 column of each entry
    indptr: np.ndarray  # int32 row starts
    shape: Tuple[int, int]
    zero_rhs: np.ndarray  # the (10c) right-hand sides
    pairs: np.ndarray  # (n(n-1), 2) the (g, h) of each (10c) row, in row order


@functools.lru_cache(maxsize=64)
def _eq10_skeleton(num_users: int, num_types: int) -> _Skeleton:
    """The index arrays of ``eq10_rows(W, m)`` for an n x k ``W``, built once
    per shape (64 shapes kept), each entry's value given by its place in
    the source vector instead."""
    envious, envied, indices = _envy_layout(num_users, num_types, None)
    # slot s of group g's products: +m_g W_g at s = g, -m_h W_g at s = n + h
    own, cross, forward = envious, num_users + envied, envious < envied
    slots = np.stack([np.where(forward, cross, own), np.where(forward, own, cross)], axis=1)
    columns = envious[:, None, None] * num_types + np.arange(num_types)
    gather = (1 + columns * 2 * num_users + slots[:, :, None]).ravel()
    head = np.zeros(num_users * num_types, dtype=np.intp)
    gather, indices, indptr, shape = _below_capacity_rows(
        num_users, num_types, head, gather, indices
    )
    skeleton = _Skeleton(
        gather, indices.astype(np.int32), indptr.astype(np.int32), shape,
        np.zeros(envious.size), np.column_stack((envious, envied)),
    )
    for array in (skeleton.gather, skeleton.indices, skeleton.indptr, skeleton.zero_rhs,
                  skeleton.pairs):
        array.setflags(write=False)
    return skeleton


def _envy_layout(
    num_users: int, num_types: int, pairs
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(envious, envied, indices)`` of the (10c) rows: the pair of each row
    and the CSR column of each of its ``2k`` entries, lower group first."""
    if pairs is None:
        envious = np.repeat(np.arange(num_users), num_users)
        envied = np.tile(np.arange(num_users), num_users)
        keep = envious != envied
        envious, envied = envious[keep], envied[keep]
    else:
        pair_array = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        envious, envied = pair_array[:, 0], pair_array[:, 1]
    type_range = np.arange(num_types)
    indices = np.concatenate(
        [
            np.minimum(envious, envied)[:, None] * num_types + type_range,
            np.maximum(envious, envied)[:, None] * num_types + type_range,
        ],
        axis=1,
    )
    return envious, envied, indices.ravel()


def _envy_entries(speedups, multiplicity, pairs) -> Tuple[np.ndarray, np.ndarray]:
    """CSR ``(data, indices)`` of the (10c) rows, ``2k`` entries each."""
    envious, envied, indices = _envy_layout(*speedups.shape, pairs)
    forward = envious < envied
    at_envious, at_envied = -multiplicity[envied], multiplicity[envious]
    lower = np.where(forward, at_envious, at_envied)[:, None] * speedups[envious]
    upper = np.where(forward, at_envied, at_envious)[:, None] * speedups[envious]
    return np.concatenate([lower, upper], axis=1).ravel(), indices


@register_scheduler(
    aliases=("cooperative", "coop"),
    family="oef",
    description="Envy-free OEF (Eq. 10) for cooperative environments",
    pe_within="envy_free",
    efficiency_constraint="envy_free",
    supports_weights=True,
    supports_job_level=True,
)
class CooperativeOEF(Allocator):
    """Envy-free OEF for cooperative environments.

    With ``n`` users the program has O(n^2) envy rows, which grows painful
    past a couple hundred users.  Since only a minority of those rows bind
    at the optimum (114-197 of 992 pairs at 32x6; §4.4's n + k - 1
    non-zeros bound Eq. 9's vertices, not Eq. 10's, which carry 6-21 more
    at that size), large instances are solved by *cutting planes*:
    seed the LP with the envy rows between each user and the users whose
    speedup profiles are nearest in shape (:meth:`_seed_pairs`), solve,
    add the envy constraints the solution violates, and repeat.
    Termination is exact — the final solution is verified against every
    pair — and typically needs two or three solves at 32x6, which is what
    keeps the Fig. 10(a) overhead sub-second.
    """

    #: above this many users ``auto`` takes the cutting-plane path.  Cold
    #: ``allocate``, ms (20 seeded instances, FORM_CACHE cleared, best of 5,
    #: least of 15 passes on a loaded 2-vCPU host, presolve off since 5.15):
    #:   users x types   8x4    12x4   16x4   24x6   32x6   48x6   64x8
    #:   full            0.40   0.82   1.35   3.87   7.30   23.1   62.7
    #:   cutting-plane   0.66   1.14   1.50   3.59   5.00   11.8   21.8
    #: crossing between 16 and 24 users (about 12 before 5.15: skipping
    #: presolve helps the full program's one cold run most).
    #: "Users" are distinct rows — a weighted tenant is one row with a
    #: multiplicity — and 24 keeps every LP of at most 24 on the full
    #: program's bits.
    CUTTING_PLANE_THRESHOLD = 24
    #: the cut session is seeded with each group's this-many nearest
    #: profiles (see :meth:`_seed_pairs`).  Cuts, ms per instance, best of
    #: 3 over 12 seeds:  K = 2     3     4     5     6
    #:            32x6      6.2   6.2   5.3   5.6   5.5
    #:            64x8     26.9  22.5  23.2  22.0  22.6
    SEED_NEIGHBOURS = 4
    #: safety cap before falling back to the full O(n^2) program
    MAX_CUT_ROUNDS = 60
    #: at most this many cuts per user enter the LP each round
    CUT_BUDGET_FACTOR = 4
    #: slack cuts are dropped only after surviving this many rounds ...
    CUT_DROP_MIN_AGE = 2
    #: ... when at least this many are droppable at once ...
    CUT_DROP_MIN_COUNT = 100
    #: ... and never after this round (guarantees add/drop cannot cycle
    #: against the MAX_CUT_ROUNDS termination cap)
    CUT_DROP_LAST_ROUND = 30

    name = "oef-coop"

    def __init__(self, method: str = "auto"):
        if method not in ("auto", "full", "cutting-plane"):
            raise ValueError(f"unknown method {method!r}")
        self.method = method

    def allocate(self, instance: ProblemInstance) -> Allocation:
        return self.allocate_with_state(instance)

    # kept under its old name: bench/layers.py wraps it as the allocator's span
    def allocate_with_state(self, instance, weights=None, groups=None) -> Allocation:
        """``weights`` (one per row, default 1) are the §4.2.3 priorities;
        ``groups``, when given, is ``instance.grouped(weights)`` built already."""
        groups = instance.grouped(weights) if groups is None else groups
        solved = None
        if groups.count == 1:
            # one profile: its members split the whole cluster by weight
            solved = instance.capacities.reshape(1, -1), one_profile_certificate(
                "envy_free", groups
            )
        elif self._use_cuts(groups.count):
            solved = self._solve_cutting_plane(groups)
        if solved is None:
            solved = self._solve_full(groups)
        shares, certificate = solved
        allocation = Allocation(groups.expand(shares), instance, allocator_name=self.name)
        allocation.certificate = certificate
        return allocation

    def _use_cuts(self, num_users: int) -> bool:
        return self.method == "cutting-plane" or (
            self.method == "auto" and num_users > self.CUTTING_PLANE_THRESHOLD
        )

    # -- full O(n^2) formulation -------------------------------------------
    def _full_form(self, instance: GroupedInstance) -> StandardForm:
        """Eq. 10 as a sparse standard form on its shape's skeleton.

        Not memoised by content: a replay's cold questions repeat about
        one time in fifty, and the key cost more than the build it saved.
        """
        speedups = instance.speedups
        return StandardForm(
            c=-speedups.ravel(),
            # capacity rows first, then the envy rows as "<= 0"
            a_ub=eq10_rows(speedups, instance.multiplicity),
            b_ub=np.concatenate(
                (instance.capacities, _eq10_skeleton(*speedups.shape).zero_rhs)
            ),
            a_eq=None,
            b_eq=None,
            bounds=nonnegative_bounds(speedups.size),
            maximise=True,
            presolve=_presolve_reduces(instance.capacities),
        )

    def _solve_full(self, instance: GroupedInstance) -> Tuple[np.ndarray, Certificate]:
        """Shares and certificate of the full program, in one cold solve."""
        solution = solve_form(self._full_form(instance))
        shares = np.maximum(solution.values.reshape(instance.speedups.shape), 0.0)
        pairs = _eq10_skeleton(*instance.speedups.shape).pairs
        return shares, _certificate(instance, solution.duals, pairs)

    # -- cutting-plane formulation ------------------------------------------
    def _solve_cutting_plane(
        self, instance: GroupedInstance, tol: float = 1e-9
    ) -> Optional[Tuple[np.ndarray, Certificate]]:
        # a pair is violated above tol x the largest own throughput (at 1e-7
        # a 59x10 instance kept 1.6e-6 of envy the full program does not)
        return self._cutting_plane_incremental(instance, self._seed_pairs(instance), tol)

    def _seed_pairs(self, instance: GroupedInstance) -> np.ndarray:
        """Initial cut set: each group's ``SEED_NEIGHBOURS`` nearest profiles.

        Nearness is the Euclidean distance between unit-normalised speedup
        rows, read off the Gram form ``2 - 2 U U^T`` (an n x n matrix, never
        an n x n x k difference tensor).  Binding envy pairs are not
        neighbours in last-column order: at 32x6 they spread over
        last-column ranks 1 to 20 apart, and the two nearest ranks on either
        side hold a fifth of them, the four nearest profiles about half.
        The relation is symmetrised — (g, h) seeds (h, g) — so the set is
        irreflexive, symmetric and at most ``2 K n`` pairs, returned as
        ``(pairs, 2)`` indices in ascending ``(g, h)`` order.  Equal
        distances go to the lower index.
        """
        speedups = instance.speedups
        num_users = speedups.shape[0]
        unit = speedups / np.linalg.norm(speedups, axis=1)[:, None]
        distance = 2.0 - 2.0 * (unit @ unit.T)
        np.fill_diagonal(distance, np.inf)
        neighbours = min(self.SEED_NEIGHBOURS, num_users - 1)
        nearest = np.argsort(distance, axis=1, kind="stable")[:, :neighbours]
        member = np.zeros((num_users, num_users), dtype=bool)
        member[np.arange(num_users)[:, None], nearest] = True
        return np.argwhere(member | member.T)

    def _violated_pairs(
        self, instance: GroupedInstance, matrix: np.ndarray, tol: float
    ) -> np.ndarray:
        """Envy violations of ``matrix`` as ``(pairs, 2)`` indices, budget-capped,
        worst first (equal magnitudes in ascending ``(g, h)`` order)."""
        speedups = instance.speedups
        num_users = speedups.shape[0]
        # cross[g, h] = W_g . z_h / m_h, compared against the own diagonal
        cross = speedups @ matrix.T / instance.multiplicity
        own = np.diag(cross)
        envy = cross - own[:, None]
        np.fill_diagonal(envy, -np.inf)
        scale = max(1.0, float(np.abs(own).max()))
        violated = np.argwhere(envy > tol * scale)
        # cap cuts per round: take the most-violated pairs, at most a
        # few per user — adding every violated pair balloons the LP
        # back to O(n^2) rows, one per user converges too slowly
        budget = self.CUT_BUDGET_FACTOR * num_users
        if violated.shape[0] > budget:
            magnitudes = envy[violated[:, 0], violated[:, 1]]
            violated = violated[np.argsort(-magnitudes, kind="stable")[:budget]]
        return violated

    def _cutting_plane_incremental(
        self,
        instance: GroupedInstance,
        seeds: np.ndarray,
        tol: float,
    ) -> Optional[Tuple[np.ndarray, Certificate]]:
        """Cutting planes over one persistent, incrementally-grown LP.

        The HiGHS session keeps its basis between rounds, so adding a few
        hundred cut rows costs a warm dual-simplex run that only has to
        price the new rows in — instead of a cold solve of the whole,
        ever-growing program.  Cuts whose slack is strictly basic (their
        envy inequality is slack at the current vertex) are dropped in
        bulk once they have survived a couple of rounds, keeping the
        working LP near the minority of envy rows that bind; a
        dropped pair may re-enter later, which is why membership is
        tracked per pair (the n x n ``in_lp`` matrix) rather than per row.
        ``pairs[i]`` and ``born[i]`` describe the session's i-th cut row.
        The last solve is optimal for every pair, so its row duals, a zero
        for each pair the session does not hold, certify the full program.
        """
        speedups, multiplicity = instance.speedups, instance.multiplicity
        num_users, num_types = speedups.shape
        session = IncrementalLP(
            c=-speedups.ravel(),
            col_lower=np.zeros(num_users * num_types),
            col_upper=np.full(num_users * num_types, np.inf),
            a_ub=eq10_rows(speedups, multiplicity, seeds),
            b_ub=np.concatenate(
                [np.asarray(instance.capacities, dtype=float), np.zeros(len(seeds))]
            ),
            presolve=_presolve_reduces(instance.capacities),
        )
        pairs = seeds
        born = np.zeros(len(seeds), dtype=np.int64)
        in_lp = np.zeros((num_users, num_users), dtype=bool)
        in_lp[pairs[:, 0], pairs[:, 1]] = True

        for round_number in range(self.MAX_CUT_ROUNDS):
            matrix = np.maximum(session.solve().reshape(num_users, num_types), 0.0)
            violated = self._violated_pairs(instance, matrix, tol)
            new_pairs = violated[~in_lp[violated[:, 0], violated[:, 1]]]
            if not len(new_pairs):
                return matrix, _certificate(instance, session.row_duals(), pairs)

            if round_number <= self.CUT_DROP_LAST_ROUND:
                pairs, born = self._drop_slack_cuts(
                    session, speedups, matrix, pairs, born,
                    in_lp, round_number, tol,
                )
            session.add_rows(
                envy_rows(speedups, multiplicity, new_pairs),
                np.zeros(len(new_pairs)),
            )
            pairs = np.concatenate([pairs, new_pairs])
            born = np.concatenate([born, np.full(len(new_pairs), round_number + 1)])
            in_lp[new_pairs[:, 0], new_pairs[:, 1]] = True
        return None  # fall back to the full program

    def _drop_slack_cuts(
        self,
        session: IncrementalLP,
        speedups: np.ndarray,
        matrix: np.ndarray,
        pairs: np.ndarray,
        born: np.ndarray,
        in_lp: np.ndarray,
        round_number: int,
        tol: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Bulk-delete aged cut rows that are strictly slack and basic;
        returns the surviving ``(pairs, born)``."""
        aged = round_number - born >= self.CUT_DROP_MIN_AGE
        if np.count_nonzero(aged) < self.CUT_DROP_MIN_COUNT:
            return pairs, born  # too few candidates: skip reading the basis back
        num_types = speedups.shape[1]
        basic = session.basic_row_mask()[num_types:]
        activity = session.row_values()[num_types:]
        own = np.einsum("lj,lj->l", speedups, matrix)
        scale = max(1.0, float(np.abs(own).max()))
        drop = basic & (activity < -tol * scale) & aged
        if np.count_nonzero(drop) < self.CUT_DROP_MIN_COUNT:
            return pairs, born
        session.delete_rows(num_types + np.flatnonzero(drop))
        in_lp[pairs[drop, 0], pairs[drop, 1]] = False
        return pairs[~drop], born[~drop]


@register_scheduler(
    aliases=("efficiency",),
    family="bound",
    description="Pure efficiency maximisation (Eq. 4), the unfair strawman",
    efficiency_constraint="none",
)
class EfficiencyMaxAllocator(Allocator):
    """Pure efficiency maximisation (Eq. 4) — the unfair strawman of §3.1.1.

    Used as the upper bound of achievable total throughput and as a
    counter-example generator in the property audits; it violates SI, EF
    and SP by design.
    """

    name = "efficiency-max"

    def allocate(self, instance: ProblemInstance) -> Allocation:
        matrix = solve_form(self._form(instance)).values.reshape(
            instance.speedups.values.shape
        )
        return Allocation(np.clip(matrix, 0.0, None), instance, allocator_name=self.name)

    def _form(self, instance: ProblemInstance) -> StandardForm:
        """Eq. 4 as a direct sparse form: capacity rows only."""
        speedups = instance.speedups.values
        key = fingerprint_arrays(
            speedups, instance.capacities, extra=("efficiency-max",)
        )

        def build() -> StandardForm:
            num_users, num_types = speedups.shape
            return StandardForm(
                c=-speedups.ravel(),
                a_ub=capacity_rows(num_users, num_types),
                b_ub=np.asarray(instance.capacities, dtype=float),
                a_eq=None,
                b_eq=None,
                bounds=nonnegative_bounds(num_users * num_types),
                maximise=True,
            )

        return FORM_CACHE.get_or_build(key, build)
