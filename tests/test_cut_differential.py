"""The Eq. 10 cut session against the full O(n^2) program it stands in for.

Random instances of 8-64 users and 2-10 GPU types go through
``method="cutting-plane"`` (forced, also at or below the auto threshold)
and ``method="full"``.  A third are weighted, with multiplicities from
{0.5, 1, 1.3, 2, 7/3}; a quarter have collinear rows — scalar multiples of
another row, left unnormalised so they stay distinct groups at distance 0
from each other.  The cut optimum must equal the full one to 1e-9
relative, be envy-free at 1e-6, never fall back to the full program, and
repeat to the byte.  The cut answer's certificate (its last solve's duals,
zero on absent pairs) must prove PE within the envy-free domain at the
full program's optimum.

Tier-1 runs every tenth case; ``pytest -m differential`` runs all 400.
"""

import numpy as np
import pytest

from repro.core import (
    CooperativeOEF,
    SpeedupMatrix,
    check_envy_freeness,
    check_pareto_efficiency,
    cooperative,
)
from repro.workloads.generator import random_instance

CASES = range(400)
MULTIPLICITIES = (0.5, 1.0, 1.3, 2.0, 7 / 3)


def make_case(case):
    """``(instance, weights)`` of the ``case``-th differential instance."""
    rng = np.random.default_rng(10_000 + case)
    users, types = int(rng.integers(8, 65)), int(rng.integers(2, 11))
    instance = random_instance(
        users, types, seed=case, devices_per_type=float(rng.integers(2, 17))
    )
    values = np.array(instance.speedups.values)
    if case % 4 == 1:
        count = int(rng.integers(1, users // 3 + 1))
        targets = rng.choice(users, size=count, replace=False)
        sources = rng.choice(np.setdiff1d(np.arange(users), targets), size=count)
        scale = rng.choice([0.5, 1.5, 2.0, 3.0], size=count)
        values[targets] = values[sources] * scale[:, None]
    speedups = SpeedupMatrix(values, normalise=False)
    weights = rng.choice(MULTIPLICITIES, size=users) if case % 3 == 0 else None
    return instance.with_speedups(speedups), weights


def check_case(case, monkeypatch):
    instance, weights = make_case(case)
    forms = []
    original = cooperative.solve_form
    monkeypatch.setattr(
        cooperative,
        "solve_form",
        lambda form, **kwargs: forms.append(form) or original(form, **kwargs),
    )
    cuts = CooperativeOEF(method="cutting-plane").allocate_with_state(instance, weights)
    again = CooperativeOEF(method="cutting-plane").allocate_with_state(instance, weights)
    assert forms == []  # the session converged: no fallback to the full program
    full = CooperativeOEF(method="full").allocate_with_state(instance, weights)
    assert cuts.total_efficiency() == pytest.approx(full.total_efficiency(), rel=1e-9)
    assert check_envy_freeness(cuts, tol=1e-6, weights=weights).satisfied
    report = check_pareto_efficiency(cuts, within="envy_free", weights=weights)
    assert report.satisfied and report.method == "certificate"
    assert report.achievable_total == pytest.approx(full.total_efficiency(), rel=1e-9)
    assert cuts.matrix.tobytes() == again.matrix.tobytes()


def test_the_cases_cover_the_mix():
    shapes = [make_case(case) for case in CASES]
    users = [instance.num_users for instance, _weights in shapes]
    types = [instance.num_gpu_types for instance, _weights in shapes]
    assert (min(users), max(users), min(types), max(types)) == (8, 64, 2, 10)
    assert sum(weights is not None for _instance, weights in shapes) == 134
    threshold = CooperativeOEF.CUTTING_PLANE_THRESHOLD
    assert sum(count <= threshold for count in users) > 40
    # collinear rows stay distinct groups: scaled, not folded by normalisation
    for instance, weights in shapes[1::4]:
        groups = instance.grouped(weights).speedups
        shapes_only = np.unique(np.round(groups / groups[:, :1], 12), axis=0)
        assert len(shapes_only) < len(groups)


@pytest.mark.parametrize("case", CASES[::10])
def test_cut_session_matches_the_full_program(case, monkeypatch):
    check_case(case, monkeypatch)


@pytest.mark.differential
@pytest.mark.parametrize("case", CASES)
def test_cut_session_matches_the_full_program_everywhere(case, monkeypatch):
    check_case(case, monkeypatch)
