"""Gavel's and Nash's hand-built forms are the DSL compile, byte for byte.

Both baselines build their :class:`~repro.solver.StandardForm` directly.
Each form is held to the one the parent's LP-DSL body compiles
(``reference_baselines.py``), as HiGHS receives it: ``c``, column
bounds, row bounds and the CSR arrays of the row matrix, compared with
``tobytes()`` so a ``-0.0`` against a ``0.0`` shows.  Equal inputs to
HiGHS give equal vertices, so the allocations must match to the bit too.
"""

import numpy as np
import pytest
from scipy import sparse

import repro.baselines.gavel as gavel
import repro.baselines.nash as nash
from reference_baselines import ParentGavel, ParentNashWelfare
from repro.core import ProblemInstance, SpeedupMatrix
from repro.solver.form import _screen


def _instance(seed: int) -> ProblemInstance:
    """2-40 users, 1-6 types, every other row set scaled, a zero capacity now and then."""
    rng = np.random.default_rng(seed)
    users = int(rng.integers(2, 41))
    types = int(rng.integers(1, 7))
    gains = rng.uniform(1.0, 2.5, (users, types))
    gains[:, 0] = 1.0
    rows = np.cumprod(gains, axis=1)
    if seed % 2:
        rows *= rng.uniform(1.0, 3.0, (users, 1))
    if seed % 5 == 0:
        rows[1] = rows[0]  # a duplicated profile
    capacities = rng.choice([0.0, 1.0, 2.5, 4.0, 8.0], types)
    if capacities.sum() == 0:
        capacities[0] = 3.0
    return ProblemInstance(SpeedupMatrix(rows, normalise=False), capacities)


def _highs_view(form):
    """What ``solve_once`` hands HiGHS for a form without equality rows."""
    assert form.a_eq is None and form.b_eq is None
    bounds = _screen(form)
    matrix = sparse.csr_matrix(form.a_ub)
    return {
        "c": np.asarray(form.c, dtype=float),
        "col_lower": bounds[:, 0],
        "col_upper": bounds[:, 1],
        "row_upper": np.asarray(form.b_ub, dtype=float),
        "indptr": matrix.indptr.astype(np.int64),
        "indices": matrix.indices.astype(np.int64),
        "data": matrix.data.astype(float),
        "maximise": np.array([form.maximise, form.offset]),
    }


def _assert_same_forms(got, want):
    assert len(got) == len(want)
    for position, (mine, theirs) in enumerate(zip(got, want)):
        mine, theirs = _highs_view(mine), _highs_view(theirs)
        for name in theirs:
            assert mine[name].tobytes() == theirs[name].tobytes(), (position, name)


def _recording(monkeypatch, module):
    forms = []
    original = module.solve_form

    def record(form):
        forms.append(form)
        return original(form)

    monkeypatch.setattr(module, "solve_form", record)
    return forms


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "vertex"])
@pytest.mark.parametrize("seed", range(24))
def test_gavel_forms_and_allocation_match_the_dsl(seed, dense, monkeypatch):
    instance = _instance(seed)
    forms = _recording(monkeypatch, gavel)
    parent = ParentGavel(dense=dense)
    try:
        want = parent.allocate(instance).matrix
    except Exception as error:  # the parent's verdict must be ours too
        with pytest.raises(type(error)):
            gavel.Gavel(dense=dense).allocate(instance)
        _assert_same_forms(forms, parent.forms)
        return
    got = gavel.Gavel(dense=dense).allocate(instance).matrix
    _assert_same_forms(forms, parent.forms)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", range(8))
def test_nash_forms_and_allocation_match_the_dsl(seed, monkeypatch):
    instance = _instance(100 + seed)
    forms = _recording(monkeypatch, nash)
    parent = ParentNashWelfare()
    want = parent.allocate(instance).matrix
    got = nash.NashWelfare().allocate(instance).matrix
    assert len(parent.forms) > 1  # the refinement rounds re-solve
    _assert_same_forms(forms, parent.forms)
    assert got.tobytes() == want.tobytes()


def test_a_zero_rhs_keeps_the_sign_the_compile_gave_it(monkeypatch):
    # a zero-capacity type: the compile's capacity row bound is -0.0
    instance = ProblemInstance(
        SpeedupMatrix(np.array([[1.0, 2.0], [1.0, 3.0]]), normalise=False), [0.0, 4.0]
    )
    forms = _recording(monkeypatch, gavel)
    gavel.Gavel().allocate(instance)
    assert np.signbit(forms[0].b_ub[0]) and forms[0].b_ub[0] == 0.0
    parent = ParentGavel()
    parent.allocate(instance)
    _assert_same_forms(forms, parent.forms)
