"""LP-based auditors for the fairness properties of Table 1.

Each checker returns a small report object rather than a bare bool so the
experiment harness can print *why* a property fails (which pair envies,
which tenant gains by lying, how much efficiency is left on the table).

Definitions audited (§2.3.1):

* **EF** — no tenant values another tenant's share above its own.
* **SI** — every tenant does at least as well as with a 1/n partition of
  every GPU type.
  With priorities (§4.2.3) both are stated per unit of weight, directly
  rather than on replicated rows: ``W_l . x_l / w_l >= W_l . x_i / w_i``
  and ``W_l . x_l >= (w_l / sum w) W_l . m``; pass ``weights``.
* **PE** — no alternative allocation raises one tenant without lowering
  another; tested exactly with an auxiliary LP, or proved without one
  from the duals an OEF allocation carries (:class:`~repro.core.
  allocation.Certificate`).
* **SP** — no tenant can raise its *true* throughput by inflating its
  reported speedup vector; tested empirically by re-running the allocator
  on perturbed matrices.
* **Optimal efficiency** — the allocation attains the maximum total
  throughput achievable subject to a stated fairness constraint set
  (envy-freeness for the cooperative environment, equalised throughput for
  the non-cooperative one, or unconstrained).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.core.allocation import Allocation
from repro.core.base import Allocator
from repro.core.cooperative import CooperativeOEF, capacity_rows, envy_rows
from repro.core.instance import ProblemInstance
from repro.core.noncooperative import NonCooperativeOEF, equal_throughput_rows
from repro.exceptions import InfeasibleError
from repro.solver import CSR, StandardForm, nonnegative_bounds, solve_form

_DEFAULT_TOL = 1e-6


# ---------------------------------------------------------------------------
# report types
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class EnvyReport:
    satisfied: bool
    worst_pair: Optional[Tuple[int, int]]
    worst_envy: float


@dataclass(frozen=True)
class SharingIncentiveReport:
    satisfied: bool
    worst_user: Optional[int]
    worst_gap: float


@dataclass(frozen=True)
class ParetoReport:
    satisfied: bool
    achievable_total: float
    current_total: float
    #: ``"certificate"`` (the allocation's duals proved it) or ``"lp"``
    method: str = "lp"


@dataclass(frozen=True)
class StrategyProofnessViolation:
    user: int
    fake_row: np.ndarray
    honest_throughput: float
    cheating_throughput: float

    @property
    def gain(self) -> float:
        return self.cheating_throughput - self.honest_throughput


@dataclass(frozen=True)
class StrategyProofnessReport:
    satisfied: bool
    trials: int
    violations: List[StrategyProofnessViolation]

    @property
    def max_gain(self) -> float:
        if not self.violations:
            return 0.0
        return max(violation.gain for violation in self.violations)


@dataclass(frozen=True)
class EfficiencyReport:
    satisfied: bool
    achieved: float
    optimum: float
    #: ``"certificate"`` (the allocation's duals proved it) or ``"lp"``
    method: str = "lp"

    @property
    def ratio(self) -> float:
        if self.optimum == 0:
            return 1.0
        return self.achieved / self.optimum


@dataclass
class PropertyReport:
    """The full Table-1 row for one allocator on one instance."""

    allocator: str
    envy_freeness: EnvyReport
    sharing_incentive: SharingIncentiveReport
    pareto_efficiency: ParetoReport
    strategy_proofness: Optional[StrategyProofnessReport]
    optimal_efficiency: EfficiencyReport
    notes: List[str] = field(default_factory=list)

    def as_row(self) -> dict:
        """One printable row: property name -> check mark / cross."""

        def mark(satisfied: bool) -> str:
            return "yes" if satisfied else "no"

        row = {
            "scheduler": self.allocator,
            "PE": mark(self.pareto_efficiency.satisfied),
            "EF": mark(self.envy_freeness.satisfied),
            "SI": mark(self.sharing_incentive.satisfied),
            "SP": mark(self.strategy_proofness.satisfied)
            if self.strategy_proofness is not None
            else "n/a",
            "optimal efficiency": mark(self.optimal_efficiency.satisfied),
        }
        return row


# ---------------------------------------------------------------------------
# individual checkers
# ---------------------------------------------------------------------------
def check_envy_freeness(
    allocation: Allocation,
    tol: float = _DEFAULT_TOL,
    weights: Optional[np.ndarray] = None,
) -> EnvyReport:
    """EF holds when no entry of the (per-unit-weight) envy matrix is positive."""
    per_unit = allocation.cross_throughput()
    if weights is not None:
        per_unit = per_unit / np.asarray(weights, dtype=float)
    envy = per_unit - np.diag(per_unit)[:, None]
    np.fill_diagonal(envy, -np.inf)
    worst_flat = int(np.argmax(envy))
    worst_pair = np.unravel_index(worst_flat, envy.shape)
    worst_value = float(envy[worst_pair])
    satisfied = worst_value <= tol
    return EnvyReport(
        satisfied=satisfied,
        worst_pair=None if satisfied else (int(worst_pair[0]), int(worst_pair[1])),
        worst_envy=max(worst_value, 0.0),
    )


def check_sharing_incentive(
    allocation: Allocation,
    tol: float = _DEFAULT_TOL,
    weights: Optional[np.ndarray] = None,
) -> SharingIncentiveReport:
    """SI holds when every tenant beats its ``w_l / sum w`` partition (1/n unweighted)."""
    if weights is None:
        gaps = allocation.sharing_incentive_gap()
    else:
        instance = allocation.instance
        whole_cluster = instance.speedups.values @ instance.capacities
        gaps = allocation.user_throughput() - whole_cluster * weights / np.sum(weights)
    worst_user = int(np.argmin(gaps))
    worst_gap = float(gaps[worst_user])
    satisfied = worst_gap >= -tol
    return SharingIncentiveReport(
        satisfied=satisfied,
        worst_user=None if satisfied else worst_user,
        worst_gap=min(worst_gap, 0.0) if not satisfied else max(worst_gap, 0.0),
    )


def check_pareto_efficiency(
    allocation: Allocation,
    tol: float = 1e-5,
    within: Optional[str] = None,
    weights: Optional[np.ndarray] = None,
) -> ParetoReport:
    """Exact PE test via LP.

    Maximise total throughput subject to every tenant keeping at least its
    current throughput.  If the optimum exceeds the current total, some
    tenant can strictly improve with nobody hurt, so PE fails.

    ``within`` restricts the Pareto-improvement search to a fairness-
    feasible domain, matching Theorem 5.3's "same feasible domain" proof:

    * ``None`` — unconstrained (DRF's original definition);
    * ``"envy_free"`` — improvements must stay envy-free (Eq. 10c);
    * ``"equal_throughput"`` — improvements must keep throughput equal
      across tenants (Eq. 9c).

    ``weights`` state either domain per unit of weight.

    The LP is posed over ``instance.grouped(weights)``, one block per
    distinct row, and a group's floor comes from its members' floors
    ``f_l``.  Inside either domain two same-row members must end with
    equal throughput per unit of weight (neither may envy the other), so
    the group's floor is ``m_g . max_l (f_l / w_l)``; unconstrained, the
    members split the group's throughput at will, so it is
    ``sum_l max(f_l, 0)``.  Averaging a member-level point inside each
    group, and expanding a group-level one by ``w_l / m_g``, map feasible
    points onto feasible points of equal total: the optimum is the
    member-level program's.

    When no allocation in the domain meets every floor (the allocation
    under audit lies outside the domain), nothing there dominates it:
    the report is satisfied with ``achievable_total = -inf``.

    An allocation carrying a :class:`~repro.core.allocation.Certificate`
    is first judged without the LP: :func:`certified_total` bounds the
    domain's total from the certificate's duals, and a bound within
    ``tol`` of the current total proves PE (``method="certificate"``,
    ``achievable_total`` the bound).  Any other case solves the LP
    (``method="lp"``).
    """
    current = allocation.user_throughput()
    current_total = float(current.sum())
    limit = current_total + tol * max(1.0, abs(current_total))
    bound = certified_total(allocation, within, weights)
    if bound is not None and bound <= limit:
        return ParetoReport(True, bound, current_total, method="certificate")
    slack = tol * max(1.0, float(np.abs(current).max()))
    try:
        achievable = _max_total_with_floors(
            allocation.instance, current - slack, within, weights
        )
    except InfeasibleError:
        return ParetoReport(True, -np.inf, current_total)
    # relative tolerance: LP solvers return slightly-off vertex values
    return ParetoReport(achievable <= limit, achievable, current_total)


def certified_total(
    allocation: Allocation,
    within: Optional[str] = None,
    weights: Optional[np.ndarray] = None,
) -> Optional[float]:
    """A bound on the total throughput of every allocation in ``within``,
    by weak duality from ``allocation.certificate``; ``None`` when it has
    none for that domain (its own, posed with the same multiplicities, or
    the unconstrained one, through its capacity duals alone), or when it
    does not fit the instance's fold (a cache hit under a caller-set key
    can carry another instance's).

    The rows are rebuilt from ``instance.grouped(weights)``.  With ``y``
    the duals (clipped at 0 on ``<=`` rows), every ``z`` in the domain
    has ``c . z <= capacities @ y + (c - A^T y) . z``, and the share
    columns sum to at most ``sum(capacities)``: the bound is
    ``capacities @ y + max(0, max(c - A^T y)) * sum(capacities)``, plus,
    for Eq. 9's ``T`` (``M T = sum_g W_g . z_g <= max(W) sum(capacities)``),
    its own term.
    """
    certificate = allocation.certificate
    if certificate is None or within not in (None, certificate.domain):
        return None
    instance = allocation.instance
    groups = instance.grouped(weights)
    speedups, multiplicity = groups.speedups, groups.multiplicity
    if within is not None and not np.array_equal(certificate.multiplicity, multiplicity):
        return None
    num_groups, num_types = speedups.shape
    keys = certificate.keys
    if certificate.capacity.shape != (num_types,) or len(keys) != len(certificate.duals) \
            or (keys.size and not 0 <= keys.min() <= keys.max() < num_groups):
        return None
    extra = 1 if within == "equal_throughput" else 0
    capacity = np.maximum(certificate.capacity, 0.0)
    reduced = np.concatenate([speedups.ravel(), np.zeros(extra)]) - _transposed(
        capacity_rows(num_groups, num_types, extra), capacity
    )
    if within == "envy_free":
        rows = envy_rows(speedups, multiplicity, keys)
        reduced -= _transposed(rows, np.maximum(certificate.duals, 0.0))
    elif within == "equal_throughput":
        duals = np.zeros(num_groups)
        duals[keys] = certificate.duals
        reduced -= _transposed(equal_throughput_rows(speedups, multiplicity), duals)
    devices = float(instance.capacities.sum())
    bound = instance.capacities @ capacity + max(0.0, reduced[: speedups.size].max()) * devices
    if extra:
        bound += max(0.0, reduced[-1]) * speedups.max() * devices / multiplicity.sum()
    return float(bound)


def _transposed(rows: CSR, duals: np.ndarray) -> np.ndarray:
    """``rows^T @ duals``, one entry per column."""
    weights = rows.data * np.repeat(duals, np.diff(rows.indptr))
    return np.bincount(rows.indices, weights, minlength=rows.shape[1])


def floor_rows(speedups: np.ndarray, extra_columns: int = 0) -> CSR:
    """``-W_l`` at user l's columns: ``W_l . x_l >= floor_l`` in the ``<=`` system."""
    num_users, num_types = speedups.shape
    row_starts = np.arange(0, speedups.size + 1, num_types)
    return CSR(
        -speedups.ravel(),
        np.arange(speedups.size),
        row_starts,
        (num_users, speedups.size + extra_columns),
    )


def _max_total_with_floors(
    instance: ProblemInstance,
    floors: np.ndarray,
    within: Optional[str] = None,
    weights: Optional[np.ndarray] = None,
) -> float:
    """Max total throughput with ``W_l . x_l >= floors[l]``, inside ``within``,
    over distinct rows (the floor rules are in :func:`check_pareto_efficiency`)."""
    if within not in (None, "envy_free", "equal_throughput"):
        raise ValueError(f"unknown PE domain {within!r}")
    groups = instance.grouped(weights)
    speedups, multiplicity = groups.speedups, groups.multiplicity
    num_groups, num_types = speedups.shape
    if within is None:
        group_floors = np.bincount(groups.member_group, np.maximum(floors, 0.0))
    else:
        per_unit = floors if weights is None else floors / np.asarray(weights, float)
        group_floors = np.full(num_groups, -np.inf)
        np.maximum.at(group_floors, groups.member_group, per_unit)
        group_floors *= multiplicity
    # equal throughput is W_g . z_g - m_g T == 0 with T one more column
    extra = 1 if within == "equal_throughput" else 0
    blocks = [capacity_rows(num_groups, num_types, extra), floor_rows(speedups, extra)]
    bounds = [instance.capacities, -group_floors]
    if within == "envy_free":
        blocks.append(envy_rows(speedups, multiplicity))
        bounds.append(np.zeros(num_groups * (num_groups - 1)))
    form = StandardForm(
        c=-np.concatenate([speedups.ravel(), np.zeros(extra)]),
        a_ub=CSR.vstack(blocks),
        b_ub=np.concatenate(bounds),
        a_eq=equal_throughput_rows(speedups, multiplicity) if extra else None,
        b_eq=np.zeros(num_groups) if extra else None,
        bounds=nonnegative_bounds(speedups.size + extra),
        maximise=True,
    )
    return solve_form(form).objective


def optimal_efficiency_upper_bound(instance: ProblemInstance) -> float:
    """Unconstrained max total throughput: each device to its best user."""
    best_per_type = instance.speedups.values.max(axis=0)
    return float(best_per_type @ instance.capacities)


def constrained_optimal_efficiency(
    instance: ProblemInstance,
    constraint: str = "envy_free",
) -> float:
    """Max total throughput subject to a named fairness constraint set.

    ``constraint``:
      * ``"none"`` — Eq. (4), the unconstrained bound;
      * ``"envy_free"`` — Eq. (10), the cooperative OEF optimum;
      * ``"equal_throughput"`` — Eq. (9), the non-cooperative OEF optimum;
      * ``"sharing_incentive"`` — capacity + SI lower bounds.
    """
    if constraint == "none":
        return optimal_efficiency_upper_bound(instance)
    if constraint == "envy_free":
        return CooperativeOEF().allocate(instance).total_efficiency()
    if constraint == "equal_throughput":
        return NonCooperativeOEF().allocate(instance).total_efficiency()
    if constraint == "sharing_incentive":
        return _max_total_with_floors(instance, instance.equal_split_throughput())
    raise ValueError(f"unknown constraint set {constraint!r}")


def check_optimal_efficiency(
    allocation: Allocation,
    constraint: str = "envy_free",
    tol: float = 1e-4,
) -> EfficiencyReport:
    """Does the allocation attain the constrained-optimal total throughput?

    For ``"envy_free"`` and ``"equal_throughput"`` an allocation whose
    :func:`certified_total` is within ``tol`` of its own total is answered
    from that bound (``method="certificate"``, ``optimum`` the bound);
    otherwise the optimum is computed (``method="lp"``; for ``"none"``
    in closed form).
    """
    achieved = allocation.total_efficiency()
    if constraint in ("envy_free", "equal_throughput"):
        bound = certified_total(allocation, constraint)
        if bound is not None and achieved >= bound - tol * max(1.0, abs(bound)):
            return EfficiencyReport(True, achieved, bound, method="certificate")
    optimum = constrained_optimal_efficiency(allocation.instance, constraint=constraint)
    satisfied = achieved >= optimum - tol * max(1.0, abs(optimum))
    return EfficiencyReport(satisfied=satisfied, achieved=achieved, optimum=optimum)


def _inflated_rows(
    truth: np.ndarray,
    rng: np.random.Generator,
    trials: int,
    max_inflation: float,
) -> List[np.ndarray]:
    """Candidate misreports: element-wise >= truth, first entry fixed at 1.

    Inflation factors are non-decreasing across GPU types so the fake row
    stays monotone (a credible lie — schedulers validate monotonicity).
    """
    num_types = truth.shape[0]
    fakes: List[np.ndarray] = []
    # deterministic probes: inflate only the fastest type by several steps
    for step in (0.05, 0.10, 0.25, 0.5):
        fake = truth.copy()
        fake[-1] *= 1.0 + step
        fakes.append(fake)
    # random monotone inflations
    for _ in range(trials):
        deltas = np.sort(rng.uniform(0.0, max_inflation, size=num_types))
        fake = truth * (1.0 + deltas)
        fake[0] = truth[0]
        fake = np.maximum.accumulate(fake)  # keep the row monotone
        fakes.append(fake)
    return fakes


def check_strategy_proofness(
    allocator: Allocator,
    instance: ProblemInstance,
    trials: int = 8,
    max_inflation: float = 0.5,
    tol: float = 1e-4,
    seed: int = 0,
) -> StrategyProofnessReport:
    """Empirical SP audit: re-run the allocator against inflated misreports.

    For each tenant and each candidate fake row, the allocator runs on the
    faked matrix and the tenant's *true* throughput under the resulting
    allocation is compared with its honest throughput.  Any strict gain is
    a violation.
    """
    rng = np.random.default_rng(seed)
    honest_allocation = allocator.allocate(instance)
    honest_throughput = honest_allocation.user_throughput()
    speedups = instance.speedups

    violations: List[StrategyProofnessViolation] = []
    total_trials = 0
    for user in range(instance.num_users):
        truth = speedups.row(user)
        for fake in _inflated_rows(truth, rng, trials, max_inflation):
            total_trials += 1
            faked_matrix = speedups.with_row(user, fake)
            faked_instance = instance.with_speedups(faked_matrix)
            new_allocation = allocator.allocate(faked_instance)
            true_throughput = float(truth @ new_allocation.matrix[user])
            if true_throughput > honest_throughput[user] + tol * max(
                1.0, abs(honest_throughput[user])
            ):
                violations.append(
                    StrategyProofnessViolation(
                        user=user,
                        fake_row=fake,
                        honest_throughput=float(honest_throughput[user]),
                        cheating_throughput=true_throughput,
                    )
                )
    return StrategyProofnessReport(
        satisfied=not violations,
        trials=total_trials,
        violations=violations,
    )


# ---------------------------------------------------------------------------
# full audit
# ---------------------------------------------------------------------------
def audit_allocator(
    allocator: Allocator,
    instance: ProblemInstance,
    efficiency_constraint: str = "envy_free",
    sp_trials: int = 4,
    seed: int = 0,
    pe_within: Optional[str] = None,
    pe_tolerance: float = 1e-5,
) -> PropertyReport:
    """Run every Table-1 property check for one allocator on one instance.

    ``pe_within`` selects the Pareto-improvement domain (see
    :func:`check_pareto_efficiency`); ``pe_tolerance`` is the relative
    slack for declaring PE — greedy mechanisms like Gandiva_fair are PE
    only up to small residuals.
    """
    allocation = allocator.allocate(instance)
    return PropertyReport(
        allocator=allocator.name,
        envy_freeness=check_envy_freeness(allocation),
        sharing_incentive=check_sharing_incentive(allocation),
        pareto_efficiency=check_pareto_efficiency(
            allocation, tol=pe_tolerance, within=pe_within
        ),
        strategy_proofness=check_strategy_proofness(
            allocator, instance, trials=sp_trials, seed=seed
        ),
        optimal_efficiency=check_optimal_efficiency(
            allocation, constraint=efficiency_constraint
        ),
    )
