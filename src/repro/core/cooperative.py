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
standard form is built directly and memoised in the shared
:data:`~repro.solver.formcache.FORM_CACHE` keyed by the instance's
content, and the cutting-plane path keeps one *incremental* HiGHS session
alive across rounds (new cuts are appended rows; each re-solve is a warm
dual-simplex run) with slack-based cut dropping — see
:meth:`CooperativeOEF._cutting_plane_incremental`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.allocation import Allocation
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


def _share_bounds(count: int) -> List[Tuple[float, None]]:
    return [(0.0, None)] * count


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
    byte, in one constructor, without building either block."""
    num_users, num_types = speedups.shape
    head = num_users * num_types
    data, indices = _envy_entries(speedups, multiplicity, pairs)
    columns = np.arange(num_types)[:, None] + num_types * np.arange(num_users)
    starts = np.arange(head, head + indices.size + 1, 2 * num_types)
    return CSR(
        np.concatenate([np.ones(head), data]),
        np.concatenate([columns.ravel(), indices]),
        np.concatenate([np.arange(0, head, num_users), starts]),
        (num_types + indices.size // (2 * num_types), head),
    )


def _envy_entries(speedups, multiplicity, pairs) -> Tuple[np.ndarray, np.ndarray]:
    """CSR ``(data, indices)`` of the (10c) rows, ``2k`` entries each."""
    num_users, num_types = speedups.shape
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
    forward = envious < envied
    at_envious, at_envied = -multiplicity[envied], multiplicity[envious]
    lower = np.where(forward, at_envious, at_envied)[:, None] * speedups[envious]
    upper = np.where(forward, at_envied, at_envious)[:, None] * speedups[envious]
    return np.concatenate([lower, upper], axis=1).ravel(), indices.ravel()


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
    past a couple hundred users.  Since only O(n + k) of those rows are
    active at the optimum (the allocation matrix has at most n + k - 1
    non-zeros, §4.4), large instances are solved by *cutting planes*:
    solve with capacity rows only, add the envy constraints the solution
    violates, and repeat.  Termination is exact — the final solution is
    verified against every pair — and typically needs a handful of
    iterations, which is what keeps the Fig. 10(a) overhead sub-second.
    """

    #: above this many users ``auto`` takes the cutting-plane path.  Cold
    #: ``allocate``, ms (20 seeded instances, FORM_CACHE cleared, best of 3):
    #:   users x types   8x4    16x4   24x6   32x6   48x6   64x8
    #:   full            1.20   2.35   5.71   11.2   28.2   67.8
    #:   cutting-plane   1.34   2.53   5.60   9.92   17.4   33.7
    #: crossing between 20 and 24 users; 20 to 28 is within run noise.
    #: "Users" are distinct rows — a weighted tenant is one row with a
    #: multiplicity — and 24 keeps every LP of at most 24 on the full
    #: program's bits.
    CUTTING_PLANE_THRESHOLD = 24
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
    def allocate_with_state(self, instance, weights=None) -> Allocation:
        """``weights`` (one per row, default 1) are the §4.2.3 priorities."""
        groups = instance.grouped(weights)
        shares = None
        if groups.count == 1:
            # one profile: its members split the whole cluster by weight
            shares = instance.capacities.reshape(1, -1)
        elif self._use_cuts(groups.count):
            shares = self._solve_cutting_plane(groups)
        if shares is None:
            shares = self._solve_full(groups)
        return Allocation(groups.expand(shares), instance, allocator_name=self.name)

    def _use_cuts(self, num_users: int) -> bool:
        return self.method == "cutting-plane" or (
            self.method == "auto" and num_users > self.CUTTING_PLANE_THRESHOLD
        )

    # -- full O(n^2) formulation -------------------------------------------
    def _full_form(self, instance: GroupedInstance) -> StandardForm:
        """Direct sparse standard form of Eq. 10, memoised by content."""
        speedups = instance.speedups
        key = fingerprint_arrays(
            speedups, instance.multiplicity, instance.capacities,
            extra=("oef-coop-full",),
        )

        def build() -> StandardForm:
            num_users, num_types = speedups.shape
            # capacity rows first, then the envy rows as "<= 0"
            a_ub = eq10_rows(speedups, instance.multiplicity)
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
                bounds=_share_bounds(num_users * num_types),
                maximise=True,
            )

        return FORM_CACHE.get_or_build(key, build)

    def _solve_full(self, instance: GroupedInstance) -> np.ndarray:
        solution = solve_form(self._full_form(instance))
        return np.clip(solution.values.reshape(instance.speedups.shape), 0.0, None)

    # -- cutting-plane formulation ------------------------------------------
    def _solve_cutting_plane(
        self, instance: GroupedInstance, tol: float = 1e-7
    ) -> Optional[np.ndarray]:
        seeds = self._seed_pairs(instance, tol)
        return self._cutting_plane_incremental(instance, seeds, tol)

    def _seed_pairs(
        self, instance: GroupedInstance, tol: float
    ) -> List[Tuple[int, int]]:
        """Initial cut set: profile neighbours + greedy-point violations.

        Two cheap heuristics cover most binding rows before round one:

        * neighbours in "steepness" order — with monotone speedup rows,
          binding envy constraints overwhelmingly involve users with
          adjacent speedup profiles (the adjacent-allocation structure of
          Theorem 5.2);
        * the envy pairs most violated by the *efficiency-max* point
          (each GPU type handed to its fastest user) — the relaxation's
          round-one optimum is exactly that point, so seeding its worst
          violations saves the first, most expensive, cut rounds.
        """
        speedups = instance.speedups
        num_users, num_types = speedups.shape
        order = np.argsort(speedups[:, -1])
        pairs: set = set()
        for position in range(num_users):
            for distance in (1, 2):
                if position + distance < num_users:
                    first = int(order[position])
                    second = int(order[position + distance])
                    pairs.add((first, second))
                    pairs.add((second, first))

        greedy = np.zeros((num_users, num_types))
        greedy[np.argmax(speedups, axis=0), np.arange(num_types)] = instance.capacities
        pairs.update(self._violated_pairs(instance, greedy, tol))
        return sorted(pairs)

    def _violated_pairs(
        self, instance: GroupedInstance, matrix: np.ndarray, tol: float
    ) -> List[Tuple[int, int]]:
        """Envy violations of ``matrix``, budget-capped, worst first."""
        speedups = instance.speedups
        num_users = speedups.shape[0]
        # cross[g, h] = W_g . z_h / m_h, compared against the own diagonal
        cross = speedups @ matrix.T / instance.multiplicity
        own = np.diag(cross)
        envy = cross - own[:, None]
        np.fill_diagonal(envy, -np.inf)
        scale = max(1.0, float(np.abs(own).max()))
        violated = np.argwhere(envy > tol * scale)
        if violated.shape[0] == 0:
            return []
        # cap cuts per round: take the most-violated pairs, at most a
        # few per user — adding every violated pair balloons the LP
        # back to O(n^2) rows, one per user converges too slowly
        budget = self.CUT_BUDGET_FACTOR * num_users
        if violated.shape[0] > budget:
            magnitudes = envy[violated[:, 0], violated[:, 1]]
            keep = np.argsort(-magnitudes)[:budget]
            violated = violated[keep]
        return list(map(tuple, violated.tolist()))

    def _cutting_plane_incremental(
        self,
        instance: GroupedInstance,
        seeds: List[Tuple[int, int]],
        tol: float,
    ) -> Optional[np.ndarray]:
        """Cutting planes over one persistent, incrementally-grown LP.

        The HiGHS session keeps its basis between rounds, so adding a few
        hundred cut rows costs a warm dual-simplex run that only has to
        price the new rows in — instead of a cold solve of the whole,
        ever-growing program.  Cuts whose slack is strictly basic (their
        envy inequality is slack at the current vertex) are dropped in
        bulk once they have survived a couple of rounds, keeping the
        working LP near the O(n + k) active set the theory promises; a
        dropped pair may re-enter later, which is why membership is
        tracked per pair rather than per row.
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
        )
        cut_pairs: List[Tuple[int, int]] = list(seeds)
        cut_born: List[int] = [0] * len(seeds)
        in_lp = set(seeds)

        for round_number in range(self.MAX_CUT_ROUNDS):
            matrix = np.clip(
                session.solve().reshape(num_users, num_types), 0.0, None
            )
            violated = self._violated_pairs(instance, matrix, tol)
            new_pairs = [pair for pair in violated if pair not in in_lp]
            if not new_pairs:
                return matrix

            if round_number <= self.CUT_DROP_LAST_ROUND:
                self._drop_slack_cuts(
                    session, speedups, matrix, cut_pairs, cut_born,
                    in_lp, round_number, tol,
                )
            session.add_rows(
                envy_rows(speedups, multiplicity, new_pairs),
                np.zeros(len(new_pairs)),
            )
            cut_pairs.extend(new_pairs)
            cut_born.extend([round_number + 1] * len(new_pairs))
            in_lp.update(new_pairs)
        return None  # fall back to the full program

    def _drop_slack_cuts(
        self,
        session: IncrementalLP,
        speedups: np.ndarray,
        matrix: np.ndarray,
        cut_pairs: List[Tuple[int, int]],
        cut_born: List[int],
        in_lp: set,
        round_number: int,
        tol: float,
    ) -> None:
        """Bulk-delete aged cut rows that are strictly slack and basic."""
        aged = round_number - np.asarray(cut_born) >= self.CUT_DROP_MIN_AGE
        if np.count_nonzero(aged) < self.CUT_DROP_MIN_COUNT:
            return  # too few candidates: skip reading the basis back
        num_types = speedups.shape[1]
        basic = session.basic_row_mask()[num_types:]
        activity = session.row_values()[num_types:]
        own = np.einsum("lj,lj->l", speedups, matrix)
        scale = max(1.0, float(np.abs(own).max()))
        droppable = np.nonzero(basic & (activity < -tol * scale) & aged)[0]
        if droppable.shape[0] < self.CUT_DROP_MIN_COUNT:
            return
        session.delete_rows(num_types + droppable)
        dropped = set(droppable.tolist())
        kept = [
            (pair, born)
            for position, (pair, born) in enumerate(zip(cut_pairs, cut_born))
            if position not in dropped
        ]
        in_lp.difference_update(cut_pairs[position] for position in dropped)
        cut_pairs[:] = [pair for pair, _born in kept]
        cut_born[:] = [born for _pair, born in kept]


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
                bounds=_share_bounds(num_users * num_types),
                maximise=True,
            )

        return FORM_CACHE.get_or_build(key, build)
