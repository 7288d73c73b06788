"""``solve_form``: one cold HiGHS run through ``solve_once``.

``solve_once`` loads the model ``linprog(method="highs")`` would, so the
two must agree bit for bit — ``linprog`` stays the reference here; what
``linprog`` did around HiGHS — the status table and the input screen —
is the contract kept here too.
"""

import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy
from scipy import sparse
from scipy.optimize import linprog

import repro.core.cooperative as cooperative
import repro.solver.form as form_module
import repro.solver.incremental as incremental
from reference_lp import LinearProgram
from repro.core import CooperativeOEF, NonCooperativeOEF, ProblemInstance, SpeedupMatrix
from repro.core.cooperative import EfficiencyMaxAllocator
from repro.core.instance import GroupedInstance
from repro.exceptions import (
    InfeasibleError,
    ModelError,
    SolverError,
    UnboundedError,
)
from repro.solver import CSR, StandardForm, solve_form
from repro.solver.form import _screen
from repro.workloads.generator import random_instance
from scipy_csr import to_scipy


def _array(value):
    if value is None or sparse.issparse(value):
        return value
    return np.asarray(value, dtype=float)


def _form(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=None):
    c = np.asarray(c, dtype=float)
    return StandardForm(
        c=c,
        a_ub=_array(a_ub),
        b_ub=_array(b_ub),
        a_eq=_array(a_eq),
        b_eq=_array(b_eq),
        bounds=bounds or [(0.0, None)] * c.shape[0],
        maximise=False,
    )


# -- the differential grid ---------------------------------------------------
def _gavel_like_form():
    """A ``LinearProgram.compile()`` form: dense ``a_ub``, max-min shape."""
    rng = np.random.default_rng(5)
    speedups = rng.uniform(1.0, 4.0, (5, 3))
    lp = LinearProgram("max-min")
    shares = lp.new_variable_array("x", (5, 3), lower=0.0)
    floor = lp.new_variable("t")
    for column in range(3):
        lp.add_constraint(sum(shares[:, column]) <= 4.0)
    for user in range(5):
        lp.add_constraint(
            sum(float(speedups[user, j]) * shares[user, j] for j in range(3)) >= floor
        )
    lp.set_objective(floor, sense="max")
    form = lp.compile()
    assert isinstance(form.a_ub, np.ndarray)
    return form


def _churn_shaped(groups, types, seed):
    """A grouped instance at a ``tenant-churn`` shape: ``groups`` distinct
    profiles, three of them entered twice, with weights other than 1."""
    values = random_instance(groups, types, seed=seed).speedups.values
    matrix = SpeedupMatrix(
        np.vstack([values, values[:3]]), normalise=False, require_monotone=False
    )
    weights = np.concatenate([np.ones(groups), [0.5, 0.5, 2.0]])
    return ProblemInstance(matrix, np.full(types, 8.0)).grouped(weights)


def _grid():
    # the churn's commonest full Eq. 10 forms (27 x 75 and 24 x 59), and
    # Eq. 9 with its equality rows at the first of those shapes
    for groups in (9, 8):
        yield f"coop-churn-{groups}x3", CooperativeOEF()._full_form(_churn_shaped(groups, 3, 7))
    yield "noncoop-churn-9x3", NonCooperativeOEF()._form(_churn_shaped(9, 3, 7))
    # a zero-capacity type: presolve fixes its columns, so the form keeps it
    zero = _churn_shaped(9, 3, 7)
    yield "eq10-zero-capacity", CooperativeOEF()._full_form(
        GroupedInstance(zero.speedups, zero.multiplicity, np.array([8.0, 0.0, 8.0]),
                        zero.member_group, zero.member_fraction))
    for users in (2, 8, 20, 32):
        instance = random_instance(users, 4, seed=users, devices_per_type=6.0)
        yield f"coop-full-{users}", CooperativeOEF()._full_form(instance.grouped())
        yield f"noncoop-{users}", NonCooperativeOEF()._form(instance.grouped())
    instance = random_instance(6, 3, seed=1, devices_per_type=4.0)
    yield "efficiency-max", EfficiencyMaxAllocator()._form(instance)
    yield "compiled-dense", _gavel_like_form()
    yield "mixed-bounds", _form(
        [-1.0, -2.0, 0.5, -1.0],
        a_ub=[[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 0.0, 2.0]],
        b_ub=[10.0, 4.0],
        a_eq=[[0.0, 1.0, -1.0, 0.0]],
        b_eq=[1.0],
        bounds=[(None, 3.0), (0.0, None), (-2.0, 5.0), (None, 1.5)],
    )
    yield "no-rows", _form([1.0, -1.0, 0.0], bounds=[(0.0, 2.0), (None, 3.0), (1.0, 4.0)])


GRID = dict(_grid())


def _reference(form):
    return linprog(
        c=form.c, A_ub=to_scipy(form.a_ub), b_ub=form.b_ub, A_eq=to_scipy(form.a_eq),
        b_eq=form.b_eq, bounds=form.bounds, method="highs",
    )


def _assert_same_bits(form, values, duals=None):
    result = _reference(form)
    assert result.status == 0
    np.testing.assert_array_equal(values, result.x)
    assert float(form.c @ values) == float(form.c @ result.x)
    if duals is not None:
        np.testing.assert_array_equal(
            duals, np.concatenate([result.ineqlin.marginals, result.eqlin.marginals])
        )


@pytest.mark.parametrize("name", GRID)
def test_direct_path_matches_linprog_bit_for_bit(name):
    form = GRID[name]
    values, duals = incremental.solve_once(*_solve_args(form))
    _assert_same_bits(form, values, duals)


@pytest.mark.parametrize("name", GRID)
def test_solve_form_returns_linprogs_bits(name):
    form = GRID[name]
    solution = solve_form(form)
    _assert_same_bits(form, solution.values)
    raw = float(form.c @ _reference(form).x)
    assert solution.objective == (-raw if form.maximise else raw) + form.offset


def test_solve_form_returns_linprogs_bits_on_the_churns_eq10_forms(churn_forms):
    # linprog runs presolve; these forms skip it and must not notice
    for form in churn_forms["oef-coop"]:
        assert form.presolve is False
        _assert_same_bits(form, solve_form(form).values)


def test_one_shot_solve_is_not_a_session(monkeypatch):
    # bench/layers.py reads IncrementalLP.* as "cutting-plane session"
    def no_session(*_args, **_kwargs):
        raise AssertionError("one-shot solves must not build a session")

    monkeypatch.setattr(incremental.IncrementalLP, "__init__", no_session)
    solution = solve_form(GRID["noncoop-8"])
    assert solution.stats.num_variables == 33
    assert solution.stats.num_constraints == 4 + 8
    assert solution.stats.warm_start_used is False


# -- one instance per thread, loaded rowwise -----------------------------------
def _fresh_csc_solve(c, col_lower, col_upper, rows, row_lower, row_upper):
    """The reference: a new instance per call, the matrix copied to CSC
    and loaded colwise."""
    core = incremental._core
    matrix = to_scipy(rows).tocsc()
    highs = core._Highs()
    for option, value in (
        ("presolve", "on"), ("output_flag", False), ("log_to_console", False),
        ("simplex_strategy", 1),
    ):
        highs.setOptionValue(option, value)
    lp = core.HighsLp()
    lp.num_row_, lp.num_col_ = matrix.shape
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = c.tolist(), col_lower.tolist(), col_upper.tolist()
    lp.row_lower_, lp.row_upper_ = row_lower.tolist(), row_upper.tolist()
    lp.a_matrix_.format_ = core.MatrixFormat.kColwise
    lp.a_matrix_.num_row_, lp.a_matrix_.num_col_ = matrix.shape
    lp.a_matrix_.start_ = matrix.indptr.tolist()
    lp.a_matrix_.index_ = matrix.indices.tolist()
    lp.a_matrix_.value_ = matrix.data.tolist()
    assert highs.passModel(lp) != core.HighsStatus.kError
    incremental._run(highs)
    solution = highs.getSolution()
    return np.array(solution.col_value), np.array(solution.row_dual)


def _solve_args(form):
    bounds, rows, row_lower, row_upper = _screen(form)
    return (form.c, bounds[:, 0], bounds[:, 1], rows, row_lower, row_upper)


def _churn_forms():
    """Every one-shot form a ``tenant-churn`` replay solves, by scheduler."""
    from repro.core import cooperative, noncooperative
    from repro.scenarios import ScenarioRunner, make_scenario

    forms = {}
    with pytest.MonkeyPatch.context() as patch:
        for module in (cooperative, noncooperative):
            original = module.solve_form
            patch.setattr(
                module, "solve_form",
                lambda form, _original=original, **kw: forms[scheduler].append(form)
                or _original(form, **kw),
            )
        for scheduler in ("oef-coop", "oef-noncoop"):
            forms[scheduler] = []
            scenario = make_scenario(
                "tenant-churn", seed=29, rounds=32, resident_tenants=6,
                churn_tenants=10, jobs_per_tenant=2, lifetime_fraction=0.2,
            )
            ScenarioRunner(scenario, scheduler).run()
    return forms


@pytest.fixture(scope="module")
def churn_forms():
    forms = _churn_forms()
    assert all(len(found) > 10 for found in forms.values())
    return forms


@pytest.fixture(scope="module")
def corpus(churn_forms):
    """Churn LPs, ``oef-noncoop`` 32×6, full ``oef-coop`` 12×6 and 24×8,
    each with the presolve setting its form carries."""
    forms = churn_forms["oef-coop"] + churn_forms["oef-noncoop"]
    for seed in range(3):
        forms.append(NonCooperativeOEF()._form(
            random_instance(32, 6, seed=seed, devices_per_type=8.0).grouped()))
        for users, types in ((12, 6), (24, 8)):
            instance = random_instance(users, types, seed=seed, devices_per_type=6.0)
            forms.append(CooperativeOEF()._full_form(instance.grouped()))
    return [(_solve_args(form), form.presolve) for form in forms]


def _same_bits(got, want):
    return all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def _solve_as_carried(args, presolve):
    return incremental.solve_once(*args, presolve=presolve)


class TestOneInstancePerThread:
    """The reference runs presolve on every form: an Eq. 10 form that skips
    it (the churn's and the 12×6 / 24×8 ones) must not move a bit, and
    switching the option between runs must leave nothing behind."""

    def test_same_bits_as_a_fresh_csc_instance_in_either_order(self, corpus):
        assert {presolve for _args, presolve in corpus} == {False, True}
        want = [_fresh_csc_solve(*args) for args, _presolve in corpus]
        infeasible = _solve_args(_form([1.0], a_ub=[[1.0]], b_ub=[1.0], bounds=[(2.0, None)]))
        for order in (range(len(corpus)), reversed(range(len(corpus)))):
            for position, index in enumerate(order):
                if position % 7 == 3:  # a failed run leaves nothing behind
                    with pytest.raises(InfeasibleError):
                        incremental.solve_once(*infeasible)
                assert _same_bits(_solve_as_carried(*corpus[index]), want[index])

    def test_threads_solving_at_once_get_the_serial_bits(self, corpus):
        want = [_fresh_csc_solve(*args) for args, _presolve in corpus]
        workers = 4  # more than the cores of a small host
        start = threading.Barrier(workers)

        def work(shift):
            start.wait(timeout=30)
            order = [(index + shift) % len(corpus) for index in range(len(corpus))]
            got = {index: _solve_as_carried(*corpus[index]) for index in order}
            return got, incremental._THREAD.highs

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(workers) as pool:
                futures = [pool.submit(work, shift * 5) for shift in range(workers)]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for got, _instance in results:
            assert all(_same_bits(got[index], want[index]) for index in range(len(corpus)))
        # one instance per thread, none shared
        assert len({id(instance) for _got, instance in results}) == workers


# -- where presolve runs --------------------------------------------------------
def _presolve_status(c, col_lower, col_upper, rows, row_lower, row_upper):
    """What HiGHS presolve makes of a model (a ``HighsPresolveStatus``)."""
    highs = incremental._core._Highs()
    highs.setOptionValue("output_flag", False)
    incremental._load(highs, c, col_lower, col_upper, rows, row_lower, row_upper)
    highs.presolve()
    return highs.getModelPresolveStatus()


def _presolve_grid():
    """Grouped instances of 2-40 profiles over 2-6 types: unit rows, weighted
    folds (rows entered twice at weights 0.5-3, multiplicities other than 1)
    and each once more with one type at zero capacity."""
    rng = np.random.default_rng(17)
    for users, types in ((2, 2), (5, 3), (9, 4), (16, 6), (24, 3), (32, 6), (40, 4)):
        values = random_instance(users, types, seed=users).speedups.values
        repeat = values[: users // 2 + 1]
        matrix = SpeedupMatrix(np.vstack([values, repeat]), normalise=False,
                               require_monotone=False)
        rows = SpeedupMatrix(values, normalise=False, require_monotone=False)
        weights = rng.choice([0.5, 1.0, 1.3, 2.0, 3.0], matrix.num_users)
        capacities = rng.uniform(1.0, 9.0, types)
        for zero in (False, True):
            if zero:
                capacities = capacities.copy()
                capacities[users % types] = 0.0
            for unit in (True, False):
                instance = ProblemInstance(rows if unit else matrix, capacities)
                yield zero, instance.grouped(None if unit else weights)


class TestPresolveScope:
    """Presolve is skipped only where it reduces nothing: Eq. 10, the full
    form or the cut session's seed LP, with every capacity positive.  A
    zero-capacity type's columns are fixed at zero by its (10b) row, and
    presolve removes them, so those programs keep it (skipping it there
    changed the bits in 99 of 100 random cases)."""

    def test_eq10_full_forms_are_not_reduced_on_positive_capacities(self):
        seen = set()
        for zero, groups in _presolve_grid():
            form = CooperativeOEF()._full_form(groups)
            status = _presolve_status(*_solve_args(form))
            reduced = status != incremental._core.HighsPresolveStatus.kNotReduced
            assert reduced is zero and form.presolve is zero
            seen.add((zero, bool((groups.multiplicity != 1).any())))
        assert seen == {(False, False), (False, True), (True, False), (True, True)}

    def test_the_cut_sessions_seed_lp_is_not_reduced_on_positive_capacities(self, monkeypatch):
        seeds = []

        class Recording(incremental.IncrementalLP):
            def __init__(self, c, col_lower, col_upper, a_ub=None, b_ub=None, presolve=True):
                seeds.append((presolve, _presolve_status(
                    c, col_lower, col_upper, a_ub, np.full(len(b_ub), -np.inf), b_ub)))
                super().__init__(c, col_lower, col_upper, a_ub, b_ub, presolve)

        monkeypatch.setattr(cooperative, "IncrementalLP", Recording)
        for zero, groups in _presolve_grid():
            if groups.count > CooperativeOEF.CUTTING_PLANE_THRESHOLD:
                CooperativeOEF(method="cutting-plane")._solve_cutting_plane(groups)
                status = seeds[-1][1]
                assert seeds[-1][0] is zero
                assert (status != incremental._core.HighsPresolveStatus.kNotReduced) is zero
        assert {presolve for presolve, _status in seeds} == {False, True}

    def test_every_other_form_keeps_presolve(self, churn_forms):
        for name, form in GRID.items():
            assert form.presolve is not name.startswith("coop-"), name
        assert all(form.presolve for form in churn_forms["oef-noncoop"])
        # the option reaches the thread's instance, both ways, so every form
        # that keeps presolve is still checked against _fresh_csc_solve's
        for name, setting in (("noncoop-8", "on"), ("coop-full-8", "off"),
                              ("efficiency-max", "on")):
            solve_form(GRID[name])
            assert incremental._THREAD.highs.getOptionValue("presolve")[1] == setting


# -- the error contract ------------------------------------------------------
class _FakeHighs:
    def __init__(self, run_status, model_status):
        self._run_status, self._model_status = run_status, model_status

    def run(self):
        return self._run_status

    def getModelStatus(self):
        return self._model_status


class TestStatusTable:
    core = incremental._core

    def test_every_model_status_maps_as_linprog_mapped_it(self):
        status = self.core.HighsModelStatus
        expected = {
            status.kInfeasible: InfeasibleError,
            status.kModelError: InfeasibleError,
            status.kUnbounded: UnboundedError,
        }
        statuses = [
            value for name, value in vars(status).items() if name.startswith("k")
        ]
        assert status.kUnboundedOrInfeasible in statuses and len(statuses) >= 15
        for model_status in statuses:
            fake = _FakeHighs(self.core.HighsStatus.kOk, model_status)
            if model_status == status.kOptimal:
                incremental._run(fake)
                continue
            with pytest.raises(SolverError) as caught:
                incremental._run(fake)
            assert type(caught.value) is expected.get(model_status, SolverError)

    def test_run_error_is_never_an_unread_solution(self):
        fake = _FakeHighs(self.core.HighsStatus.kError, self.core.HighsModelStatus.kOptimal)
        with pytest.raises(SolverError) as caught:
            incremental._run(fake)
        assert type(caught.value) is SolverError

    @pytest.mark.parametrize("indices", [[0, 0], [0, 2]], ids=["duplicate", "out-of-range"])
    def test_rejected_model_is_a_solver_error(self, indices):
        # a column index twice in one row, or past the last column: kError
        broken = CSR([1.0, 1.0], indices, [0, 2], (1, 2))
        with pytest.raises(SolverError, match="rejected") as caught:
            incremental.solve_once(
                np.array([1.0, 1.0]), np.zeros(2), np.ones(2), broken,
                np.array([-np.inf]), np.array([1.0]),
            )
        assert type(caught.value) is SolverError

    def test_a_plain_highs_failure_is_a_solver_error(self, monkeypatch):
        def presolve_gives_up(*_args, **_kwargs):
            raise SolverError("HiGHS run failed (status=kUnboundedOrInfeasible)")

        monkeypatch.setattr(form_module, "solve_once", presolve_gives_up)
        form = _form([-1.0, -1.0], a_ub=[[1.0, 1.0]], b_ub=[4.0])
        with pytest.raises(SolverError) as caught:
            solve_form(form)
        assert type(caught.value) is SolverError


class TestProbe:
    """Without the vendored bindings there is no solver: a typed refusal."""

    @pytest.fixture(autouse=True)
    def _no_core(self, monkeypatch):
        monkeypatch.setattr(incremental, "_core", None)
        assert not incremental.incremental_available()

    def _assert_names_scipy(self, caught):
        assert type(caught.value) is SolverError
        assert f"scipy {scipy.__version__}" in str(caught.value)
        assert "scipy>=1.15" in str(caught.value)

    def test_solve_form_raises_naming_the_scipy_version(self):
        with pytest.raises(SolverError) as caught:
            solve_form(GRID["noncoop-8"])
        self._assert_names_scipy(caught)

    def test_the_cut_path_raises_naming_the_scipy_version(self):
        instance = random_instance(30, 4, seed=3)
        with pytest.raises(SolverError) as caught:
            CooperativeOEF(method="cutting-plane").allocate(instance)
        self._assert_names_scipy(caught)


def _stub_core(highs):
    """A module with the real core's enums around the ``_Highs`` class given."""
    stub = types.ModuleType("stub_core")
    stub._Highs = highs
    core = incremental._core
    stub.MatrixFormat, stub.ObjSense, stub.HighsStatus = (
        core.MatrixFormat, core.ObjSense, core.HighsStatus
    )
    return stub


class _ListOnlyHighs:
    """A ``_Highs`` whose ``passModel`` takes a ``HighsLp`` and nothing else."""

    def passModel(self, lp):
        return incremental._core.HighsStatus.kOk

    def setOptionValue(self, *_args):
        pass

    clearModel = run = addRows = deleteRows = getBasis = getSolution = setOptionValue


class TestArrayOverloadProbe:
    """The probe also loads a model by arrays: a core without that overload
    is refused up front, never met as a ``TypeError`` inside a solve."""

    def test_a_core_without_the_array_overload_is_no_solver(self, monkeypatch):
        monkeypatch.setattr(incremental, "_core", _stub_core(_ListOnlyHighs))
        assert not incremental.incremental_available()
        for solve in (
            lambda: solve_form(GRID["noncoop-8"]),
            lambda: CooperativeOEF(method="cutting-plane").allocate(
                random_instance(30, 4, seed=3)),
        ):
            with pytest.raises(SolverError) as caught:
                solve()
            assert type(caught.value) is SolverError
            assert f"scipy {scipy.__version__}" in str(caught.value)

    def test_the_overload_is_probed_once_per_core(self, monkeypatch):
        loads = []

        class CountingHighs(_ListOnlyHighs):
            def passModel(self, *args):
                loads.append(len(args))
                return incremental._core.HighsStatus.kOk

        monkeypatch.setattr(incremental, "_core", _stub_core(CountingHighs))
        assert all(incremental.incremental_available() for _ in range(5))
        assert loads == [15]

    def test_the_installed_core_passes(self):
        assert incremental.incremental_available()


class TestVerdictsOnHandBuiltPrograms:
    def test_infeasible(self):
        form = _form([1.0], a_ub=[[1.0]], b_ub=[1.0], bounds=[(2.0, None)])
        with pytest.raises(InfeasibleError):
            solve_form(form)

    def test_crossed_bounds_are_infeasible(self):
        with pytest.raises(InfeasibleError):
            solve_form(_form([1.0], bounds=[(2.0, 1.0)]))

    def test_unbounded(self):
        form = _form([-1.0, 0.0], a_ub=[[1.0, -1.0]], b_ub=[1.0])
        with pytest.raises(UnboundedError):
            solve_form(form)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(c=[np.nan, 1.0]),
            dict(c=[np.inf, 1.0]),
            dict(a_ub=[[np.nan, 1.0]]),
            dict(a_ub=sparse.csr_matrix(np.array([[np.inf, 1.0]]))),
            dict(b_ub=[np.nan]),
            dict(b_ub=[np.inf]),
            dict(a_eq=[[1.0, np.nan]]),
            dict(b_eq=[-np.inf]),
            dict(a_ub=[[1.0, 1.0, 1.0]]),
            dict(b_ub=[1.0, 2.0]),
            dict(a_eq=[[1.0]]),
            dict(bounds=[(0.0, None)]),
            dict(bounds=[(np.inf, None), (0.0, None)]),
            dict(bounds=[(0.0, None), (None, -np.inf)]),
        ],
        ids=lambda overrides: "-".join(overrides),
    )
    def test_malformed_input_is_refused_before_highs(self, overrides):
        fields = dict(
            c=[-1.0, -1.0], a_ub=[[1.0, 1.0]], b_ub=[4.0], a_eq=[[1.0, -1.0]], b_eq=[0.0]
        )
        fields.update(overrides)
        form = _form(**fields)
        # a NaN cost must not come back as an allocation
        with pytest.raises(ModelError):
            solve_form(form)

    @staticmethod
    def _bounded(bounds):
        return StandardForm(
            c=np.array([-1.0, -1.0]), a_ub=np.array([[1.0, 1.0]]), b_ub=np.array([4.0]),
            a_eq=None, b_eq=None, bounds=bounds, maximise=False,
        )

    def test_the_shared_nonnegative_bounds_pass_uncopied(self):
        bounds = form_module.nonnegative_bounds(2)
        assert _screen(self._bounded(bounds))[0] is bounds
        # an equal array of the form's own, or the list it stands for, is
        # screened in full: a new array, the same numbers
        for own in (bounds.copy(), [(0.0, None)] * 2):
            screened = _screen(self._bounded(own))[0]
            assert screened is not own and screened is not bounds
            np.testing.assert_array_equal(screened, bounds)

    def test_a_nan_bound_still_reads_as_none(self):
        # what scipy's front end made of it: no bound, not an error
        screened = _screen(self._bounded([(np.nan, None), (0.0, np.nan)]))[0]
        np.testing.assert_array_equal(screened, [[-np.inf, np.inf], [0.0, np.inf]])

    @pytest.mark.parametrize(
        "bounds",
        [
            [(np.inf, None), (0.0, None)],
            [(0.0, -np.inf), (0.0, None)],
            [(0.0, None)] * 3,
            np.zeros((3, 2)),
            form_module.nonnegative_bounds(3),
        ],
        ids=["inf-lower", "inf-upper", "three-for-two", "array", "shared-of-three"],
    )
    def test_other_bounds_keep_the_full_screen(self, bounds):
        with pytest.raises(ModelError):
            _screen(self._bounded(bounds))
