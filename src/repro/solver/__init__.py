"""The linear-programming substrate: one form, one solver.

The OEF paper implements its fair-share evaluator with ``cvxpy`` + ECOS,
one LP per scheduling round.  Neither is available offline; this package
solves the same programs with scipy's vendored HiGHS:

* :class:`~repro.solver.form.StandardForm` is the matrix form every
  allocator builds directly, its rows as :class:`~repro.solver.form.CSR`
  records, and :func:`~repro.solver.form.solve_form` solves it in one
  cold HiGHS run;
* :class:`~repro.solver.incremental.IncrementalLP` is the one session
  that keeps a basis between solves: the cooperative allocator's
  cutting-plane loop appends rows to it;
* :data:`~repro.solver.formcache.FORM_CACHE` memoises built forms by the
  content of their inputs.

Typical usage::

    form = StandardForm(
        c=np.array([-2.0, -1.0]),
        a_ub=np.array([[1.0, 1.0]]), b_ub=np.array([1.0]),
        a_eq=None, b_eq=None, bounds=[(0.0, None)] * 2, maximise=True,
    )
    solve_form(form).objective  # 2.0
"""

from repro.solver.form import CSR, Solution, SolveStats, StandardForm, nonnegative_bounds, solve_form
from repro.solver.formcache import FORM_CACHE, FormCache, fingerprint_arrays
from repro.solver.incremental import IncrementalLP, incremental_available

__all__ = [
    "CSR",
    "FORM_CACHE",
    "FormCache",
    "IncrementalLP",
    "Solution",
    "SolveStats",
    "StandardForm",
    "fingerprint_arrays",
    "incremental_available",
    "nonnegative_bounds",
    "solve_form",
]
