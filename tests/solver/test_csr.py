"""The CSR record against scipy: every matrix HiGHS receives, byte for byte.

``src/repro`` writes its row matrices as :class:`repro.solver.CSR`
records and stacks them with :meth:`CSR.vstack`; before, it built them
with ``scipy.sparse``.  Each builder and form here is held to what the
scipy construction it replaced makes of the same inputs — the reference
rebuilds scipy matrices from the record's arrays — so no fingerprint can
move.  What :func:`solve_form` accepts besides records is pinned too:
dense arrays as ``csr_matrix`` stores them, scipy matrices through their
own ``tocsr()``, and nothing else.
"""

import numpy as np
import pytest
from scipy import sparse

import repro.core.properties as properties
from repro.baselines import gavel, nash
from repro.core import NonCooperativeOEF, ProblemInstance, SpeedupMatrix
from repro.core.analysis import _frontier_form
from repro.core.cooperative import capacity_rows, envy_rows
from repro.core.noncooperative import equal_throughput_rows
from repro.core.properties import floor_rows
from repro.exceptions import ModelError
from repro.solver import CSR, StandardForm, solve_form
from repro.solver.form import _screen
from repro.workloads.generator import random_instance
from scipy_csr import csr_bytes, to_scipy


def _speedups(users, types, seed):
    rng = np.random.default_rng(seed)
    rows = np.cumprod(rng.uniform(1.0, 2.5, (users, types)), axis=1)
    rows[:, 0] = 1.0
    return rows


def _instance(users, types, seed):
    rng = np.random.default_rng(seed)
    capacities = rng.choice([0.0, 1.0, 2.5, 4.0], types)
    capacities[0] = 3.0
    return ProblemInstance(
        SpeedupMatrix(_speedups(users, types, seed), normalise=False), capacities
    )


GRID = [(1, 1), (2, 3), (5, 1), (7, 4), (16, 6)]


def _recording(monkeypatch, module):
    forms = []
    original = module.solve_form
    monkeypatch.setattr(
        module, "solve_form", lambda form: forms.append(form) or original(form)
    )
    return forms


# -- row builders --------------------------------------------------------------
@pytest.mark.parametrize("users, types", GRID)
@pytest.mark.parametrize("extra", [0, 1, 3])
def test_floor_rows_are_the_parents_csr_matrix(users, types, extra):
    speedups = _speedups(users, types, users + types)
    reference = sparse.csr_matrix(
        (-speedups.ravel(), np.arange(speedups.size), np.arange(0, speedups.size + 1, types)),
        shape=(users, speedups.size + extra),
    )
    assert csr_bytes(floor_rows(speedups, extra)) == csr_bytes(reference)


@pytest.mark.parametrize("users, types", GRID)
def test_equal_throughput_rows_are_the_parents_csr_matrix(users, types):
    speedups = _speedups(users, types, users * types)
    multiplicity = np.random.default_rng(users).choice([1.0, 2.0, 7 / 3], users)
    own_columns = np.arange(speedups.size).reshape(speedups.shape)
    reference = sparse.csr_matrix(
        (
            np.column_stack([speedups, -multiplicity]).ravel(),
            np.column_stack([own_columns, np.full(users, speedups.size)]).ravel(),
            np.arange(0, users * (types + 1) + 1, types + 1),
        ),
        shape=(users, speedups.size + 1),
    )
    assert csr_bytes(equal_throughput_rows(speedups, multiplicity)) == csr_bytes(reference)


# -- forms ---------------------------------------------------------------------
def _stack(*blocks):
    return sparse.vstack([to_scipy(block) for block in blocks], format="csr")


@pytest.mark.parametrize("users, types", GRID[1:])
def test_epsilon_constraint_form_is_scipys_stack(users, types):
    instance = _instance(users, types, seed=users)
    speedups = instance.speedups.values
    reference = _stack(capacity_rows(users, types), floor_rows(speedups))
    for alpha in (0.0, 0.5):
        assert csr_bytes(_frontier_form(instance, alpha).a_ub) == csr_bytes(reference)


@pytest.mark.parametrize("within", [None, "envy_free", "equal_throughput"])
@pytest.mark.parametrize("users, types", GRID[1:])
def test_pareto_floor_form_is_scipys_stack(users, types, within, monkeypatch):
    instance = _instance(users, types, seed=types)
    forms = _recording(monkeypatch, properties)
    properties._max_total_with_floors(instance, np.zeros(users), within)
    groups = instance.grouped()
    speedups, multiplicity = groups.speedups, groups.multiplicity
    extra = 1 if within == "equal_throughput" else 0
    blocks = [capacity_rows(len(speedups), types, extra), floor_rows(speedups, extra)]
    if within == "envy_free":
        blocks.append(envy_rows(speedups, multiplicity))
    (form,) = forms
    assert csr_bytes(form.a_ub) == csr_bytes(_stack(*blocks))
    if extra:
        reference = to_scipy(equal_throughput_rows(speedups, multiplicity))
        assert csr_bytes(form.a_eq) == csr_bytes(reference)


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "vertex"])
@pytest.mark.parametrize("users, types", GRID[1:])
def test_gavel_forms_are_scipys_stacks(users, types, dense, monkeypatch):
    instance = _instance(users, types, seed=users * 3 + types)
    speedups = instance.speedups.values
    fair = instance.equal_split_throughput()
    forms = _recording(monkeypatch, gavel)
    gavel.Gavel(dense=dense).allocate(instance)
    phase_one = sparse.vstack(
        [
            to_scipy(capacity_rows(users, types, 1)),
            sparse.hstack(
                [to_scipy(floor_rows(speedups)), sparse.csr_matrix(fair[:, None])],
                format="csr",
            ),
        ],
        format="csr",
    )
    assert csr_bytes(forms[0].a_ub) == csr_bytes(phase_one)
    extra = speedups.size if dense else 0
    head = _stack(capacity_rows(users, types, extra))
    negated = -to_scipy(floor_rows(speedups, extra))
    tail = to_scipy(floor_rows(speedups, extra))
    got = to_scipy(forms[1].a_ub)
    # the spread block between the bands is written directly in either version
    spread = got[head.shape[0] + users:got.shape[0] - users]
    assert spread.shape[0] == (2 * speedups.size if dense else 0)
    reference = sparse.vstack([head, negated, spread, tail], format="csr")
    assert csr_bytes(forms[1].a_ub) == csr_bytes(reference)


@pytest.mark.parametrize("users, types", GRID[1:])
def test_nash_forms_are_scipys_stacks(users, types, monkeypatch):
    instance = _instance(users, types, seed=users + 11)
    forms = _recording(monkeypatch, nash)
    nash.NashWelfare(num_tangents=6, refine_rounds=2).allocate(instance)
    for form in forms:
        matrix = to_scipy(form.a_ub)
        tangents = matrix[: matrix.shape[0] - types]
        reference = _stack(tangents, capacity_rows(users, types, users))
        assert csr_bytes(form.a_ub) == csr_bytes(reference)


# -- the stack solve_once receives ---------------------------------------------
def _form(a_ub=None, b_ub=None, a_eq=None, b_eq=None, num_vars=4):
    return StandardForm(
        c=-np.ones(num_vars), a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq,
        bounds=[(0.0, None)] * num_vars, maximise=True,
    )


def _dense(rows, seed):
    """Dense rows with zeros and a ``-0.0``: both must drop out."""
    matrix = np.random.default_rng(seed).uniform(-1.0, 1.0, (rows, 4))
    matrix[matrix < -0.5] = 0.0
    matrix[0, 1] = -0.0
    return matrix


def _parent_rows(form):
    """The matrix the parent's ``solve_once`` handed HiGHS."""
    blocks = [block for block in (form.a_ub, form.a_eq) if block is not None]
    blocks = [to_scipy(block) for block in blocks]
    if len(blocks) == 2:
        stack = sparse.vstack if any(map(sparse.issparse, blocks)) else np.vstack
        blocks = [stack(blocks)]
    return sparse.csr_matrix(blocks[0] if blocks else (0, form.c.shape[0]))


STACKS = {
    "dense-ub": _form(_dense(3, 1), np.ones(3)),
    "dense-over-dense": _form(_dense(3, 2), np.ones(3), _dense(2, 3), np.zeros(2)),
    "dense-over-scipy": _form(
        _dense(3, 4), np.ones(3), sparse.csr_matrix(_dense(2, 5)), np.zeros(2)
    ),
    "scipy-over-dense": _form(
        sparse.csr_matrix(_dense(2, 6)), np.ones(2), _dense(3, 7), np.zeros(3)
    ),
    "record-over-record": NonCooperativeOEF()._form(
        random_instance(9, 4, seed=2, devices_per_type=4.0).grouped()
    ),
    "record-over-dense": _form(
        floor_rows(_speedups(2, 2, 1)), -np.ones(2), _dense(2, 8), np.zeros(2)
    ),
    "no-rows": _form(),
}


@pytest.mark.parametrize("name", STACKS)
def test_screened_rows_are_the_parents_stack(name):
    form = STACKS[name]
    _bounds, rows, row_lower, row_upper = _screen(form)
    assert csr_bytes(rows) == csr_bytes(_parent_rows(form))
    b_ub = np.zeros(0) if form.a_ub is None else np.asarray(form.b_ub, dtype=float)
    b_eq = np.zeros(0) if form.a_eq is None else np.asarray(form.b_eq, dtype=float)
    assert row_lower.tobytes() == np.concatenate([np.full(len(b_ub), -np.inf), b_eq]).tobytes()
    assert row_upper.tobytes() == np.concatenate([b_ub, b_eq]).tobytes()


# -- what else solve_form takes -----------------------------------------------
@pytest.mark.parametrize("convert", [sparse.csc_matrix, sparse.coo_matrix, sparse.csr_array])
def test_a_foreign_sparse_matrix_solves_as_its_csr(convert):
    form = NonCooperativeOEF()._form(random_instance(8, 3, seed=5).grouped())
    want = solve_form(form).values
    scipy_form = StandardForm(
        c=form.c, a_ub=convert(to_scipy(form.a_ub)), b_ub=form.b_ub,
        a_eq=convert(to_scipy(form.a_eq)), b_eq=form.b_eq, bounds=form.bounds,
        maximise=form.maximise,
    )
    assert solve_form(scipy_form).values.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "matrix",
    [[[1.0, 1.0]], "1 1", {"data": [1.0, 1.0]}, np.array([1.0, 1.0]), np.ones((1, 1, 2))],
    ids=["list", "str", "dict", "1-d", "3-d"],
)
def test_an_unsupported_matrix_is_a_model_error(matrix):
    form = _form(matrix, np.ones(1), num_vars=2)
    with pytest.raises(ModelError):
        solve_form(form)


def test_vstack_refuses_blocks_of_different_widths():
    with pytest.raises(ValueError):
        CSR.vstack([capacity_rows(2, 2), capacity_rows(2, 3)])


def test_nnz_is_the_last_row_start():
    rows = envy_rows(_speedups(4, 3, 0), np.ones(4))
    assert rows.nnz == rows.indices.size == 4 * 3 * 2 * 3
