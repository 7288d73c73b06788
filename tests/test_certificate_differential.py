"""PE and optimal efficiency from an OEF answer's own duals, against the LP.

``CooperativeOEF`` and ``NonCooperativeOEF`` attach an
``Allocation.certificate``; ``check_pareto_efficiency`` and
``check_optimal_efficiency`` answer from it when it proves the verdict
and solve their LP otherwise.  ``Allocation(allocation.matrix, instance)``
carries no certificate, so it always takes the LP: the two reports must
agree on ``satisfied`` and on the total to 1e-9 relative.  A gateway
cache hit carries its entry's certificate, which is read only where it
fits the caller's instance.

The cut grid poses ``oef-coop`` above its full/cut threshold (25-40
groups, seeds 0-39), where the certificate comes from the cut session's
last solve.  Tier-1 runs every tenth seed; ``pytest -m differential``
runs all 40.
"""

import numpy as np
import pytest

from repro.core import CooperativeOEF, NonCooperativeOEF, ProblemInstance, SpeedupMatrix
from repro.core import properties
from repro.core.allocation import Allocation
from repro.core.properties import check_optimal_efficiency, check_pareto_efficiency
from repro.workloads.generator import random_instance

DOMAINS = (None, "envy_free", "equal_throughput")
OWN_DOMAIN = {"oef-coop": "envy_free", "oef-noncoop": "equal_throughput"}
SEEDS = range(40)


def assert_as_the_lp(allocation, within=None, weights=None):
    """The certified report equals the LP's on a certificate-free twin;
    returns the certified one."""
    certified = check_pareto_efficiency(allocation, within=within, weights=weights)
    twin = Allocation(allocation.matrix, allocation.instance)
    solved = check_pareto_efficiency(twin, within=within, weights=weights)
    assert solved.method == "lp"
    assert certified.satisfied == solved.satisfied, within
    if solved.achievable_total == -np.inf:
        assert certified.achievable_total == -np.inf
    else:
        assert certified.achievable_total == pytest.approx(
            solved.achievable_total, rel=1e-9
        ), within
    return certified


def assert_efficiency_as_the_lp(allocation, constraint):
    certified = check_optimal_efficiency(allocation, constraint)
    solved = check_optimal_efficiency(
        Allocation(allocation.matrix, allocation.instance), constraint
    )
    assert solved.method == "lp"
    assert certified.satisfied == solved.satisfied, constraint
    assert certified.optimum == pytest.approx(solved.optimum, rel=1e-9), constraint
    return certified


def cut_instance(seed):
    return random_instance(25 + seed % 16, 2 + seed % 7, seed=seed)


def check_cut_case(seed):
    instance = cut_instance(seed)
    assert instance.grouped().count > CooperativeOEF.CUTTING_PLANE_THRESHOLD
    allocation = CooperativeOEF().allocate(instance)
    for within in DOMAINS:
        report = assert_as_the_lp(allocation, within)
        if within == "envy_free":
            assert report.method == "certificate"
    assert assert_efficiency_as_the_lp(allocation, "envy_free").method == "certificate"


@pytest.mark.parametrize("seed", SEEDS[::10])
def test_the_cut_certificate_proves_what_the_lp_finds(seed):
    check_cut_case(seed)


@pytest.mark.differential
@pytest.mark.parametrize("seed", SEEDS)
def test_the_cut_certificate_proves_what_the_lp_finds_everywhere(seed):
    check_cut_case(seed)


@pytest.mark.parametrize("allocator", [CooperativeOEF(), NonCooperativeOEF()])
@pytest.mark.parametrize("users", [1, 2, 6, 13, 24])
def test_an_answer_is_pe_in_its_own_domain_without_an_lp(allocator, users, monkeypatch):
    instance = random_instance(users, 4, seed=users)
    allocation = allocator.allocate(instance)
    domain = OWN_DOMAIN[allocator.name]
    assert allocation.certificate.domain == domain
    for within in DOMAINS:
        assert_as_the_lp(allocation, within)
    assert_efficiency_as_the_lp(allocation, domain)
    monkeypatch.setattr(properties, "solve_form", None)  # any LP would raise
    assert check_pareto_efficiency(allocation, within=domain).method == "certificate"
    assert check_optimal_efficiency(allocation, domain).method == "certificate"


def test_a_scaled_answer_falls_back_to_the_lp():
    instance = random_instance(8, 3, seed=5)
    allocation = CooperativeOEF().allocate(instance)
    scaled = Allocation(allocation.matrix * 0.9, instance)
    scaled.certificate = allocation.certificate  # the duals no longer prove it
    report = check_pareto_efficiency(scaled, within="envy_free")
    assert report.method == "lp" and not report.satisfied
    efficiency = check_optimal_efficiency(scaled, "envy_free")
    assert efficiency.method == "lp" and not efficiency.satisfied


def test_other_weights_pose_other_rows_and_take_the_lp():
    rows = np.array([[1.0, 2.0, 3.0], [1.0, 1.5, 4.0], [1.0, 2.5, 2.5]])
    instance = ProblemInstance(
        SpeedupMatrix(rows[[0, 1, 0, 2, 1]], normalise=False), [4.0, 3.0, 2.0]
    )
    weights = np.array([1.0, 2.0, 0.5, 1.0, 3.0])
    for allocator in (CooperativeOEF(), NonCooperativeOEF()):
        allocation = allocator.allocate_with_state(instance, weights=weights)
        domain = OWN_DOMAIN[allocator.name]
        own = assert_as_the_lp(allocation, domain, weights)
        assert own.method == "certificate"
        # unweighted, the domain's rows are not the ones the duals were read for
        assert assert_as_the_lp(allocation, domain).method == "lp"


def test_the_certificate_holds_only_nonzero_duals():
    for users in (6, 30):  # the full program, then the cut session
        instance = random_instance(users, 5, seed=users)
        groups = instance.grouped()
        allocation = CooperativeOEF().allocate(instance)
        certificate = allocation.certificate
        assert certificate.capacity.shape == (5,)
        assert np.all(certificate.duals != 0)
        assert len(certificate.keys) < groups.count * (groups.count - 1)
        assert len({tuple(pair) for pair in certificate.keys}) == len(certificate.keys)
        # by strong duality the bound is the answer's own total
        assert properties.certified_total(allocation, "envy_free") == pytest.approx(
            allocation.total_efficiency(), rel=1e-9
        )


def test_a_certificate_that_does_not_fit_the_fold_is_not_read():
    instance = random_instance(8, 3, seed=5)
    allocation = CooperativeOEF().allocate(instance)
    certificate = allocation.certificate
    assert len(certificate.keys) > 0
    for misfit in (
        certificate._replace(capacity=certificate.capacity[:-1]),
        certificate._replace(keys=certificate.keys + instance.grouped().count),
        certificate._replace(duals=certificate.duals[:-1]),
    ):
        allocation.certificate = misfit
        for within in (None, "envy_free"):
            assert properties.certified_total(allocation, within) is None
        assert check_pareto_efficiency(allocation, within="envy_free").method == "lp"


def test_a_cache_hit_carries_the_certificate():
    from repro.gateway import Gateway

    gateway = Gateway()
    instance = random_instance(6, 3, seed=2)
    cold = gateway.solve(instance, "oef-coop").allocation
    hit = gateway.solve(instance, "oef-coop").allocation
    assert hit.certificate is cold.certificate is not None
    assert assert_as_the_lp(hit, "envy_free").method == "certificate"
    assert assert_efficiency_as_the_lp(hit, "envy_free").method == "certificate"


def _counted(monkeypatch, *names):
    """Calls of ``properties``' LP entry points, by name, from here on."""
    calls = []
    for name in names:
        original = getattr(properties, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(properties, name, counted)
    return calls


def test_a_repeated_audit_runs_no_lp(monkeypatch):
    from repro.gateway import Gateway

    gateway = Gateway()
    instance = random_instance(16, 4, seed=3)
    first = gateway.audit(instance, "oef-coop", sp_trials=1)
    lps = _counted(monkeypatch, "_max_total_with_floors", "constrained_optimal_efficiency")
    again = gateway.audit(instance, "oef-coop", sp_trials=1)
    assert lps == []
    assert again.pareto_efficiency == first.pareto_efficiency
    assert again.optimal_efficiency == first.optimal_efficiency


@pytest.mark.parametrize("scheduler", ["oef-coop", "oef-noncoop"])
def test_a_key_bound_to_another_instance_gets_the_lps_verdict(scheduler):
    from repro.gateway import Gateway, Request

    for seed in range(4):
        gateway = Gateway()
        posed = random_instance(8, 3, seed=seed)
        gateway.dispatch(Request(posed, scheduler=scheduler, key="k"))
        values = random_instance(8, 3, seed=seed + 50).speedups.values
        others = (
            ProblemInstance(SpeedupMatrix(values, normalise=False), posed.capacities),
            # the same shape over four profiles: another fold
            ProblemInstance(
                SpeedupMatrix(values[[0, 0, 1, 1, 2, 2, 3, 3]], normalise=False),
                posed.capacities,
            ),
        )
        for other in others:
            hit = gateway.dispatch(Request(other, scheduler=scheduler, key="k"))
            assert hit.disposition == "cache-hit" and hit.allocation.certificate
            twin = Allocation.checked(hit.allocation.matrix, other)
            for within in DOMAINS:
                assert check_pareto_efficiency(hit.allocation, within=within).satisfied \
                    == check_pareto_efficiency(twin, within=within).satisfied, within
            domain = OWN_DOMAIN[scheduler]
            assert check_optimal_efficiency(hit.allocation, domain).satisfied \
                == check_optimal_efficiency(twin, domain).satisfied
