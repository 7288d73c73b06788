"""The persistent HiGHS session used by the cutting-plane hot path."""

import numpy as np
import pytest
from scipy import sparse

from repro.exceptions import InfeasibleError
from repro.solver import IncrementalLP


def _session():
    # max x0 + x1  s.t.  x0 + x1 <= 4, x0 <= 3  (c is minimisation form)
    return IncrementalLP(
        c=np.array([-1.0, -1.0]),
        col_lower=np.zeros(2),
        col_upper=np.full(2, np.inf),
        a_ub=sparse.csr_matrix(np.array([[1.0, 1.0], [1.0, 0.0]])),
        b_ub=np.array([4.0, 3.0]),
    )


class TestIncrementalLP:
    def test_initial_solve(self):
        values = _session().solve()
        assert values.sum() == pytest.approx(4.0)

    def test_add_rows_resolves(self):
        session = _session()
        session.solve()
        session.add_rows(sparse.csr_matrix(np.array([[0.0, 1.0]])), np.array([1.0]))
        values = session.solve()
        assert values[1] <= 1.0 + 1e-9
        assert values.sum() == pytest.approx(4.0)

    def test_delete_rows_restores_relaxation(self):
        session = _session()
        session.add_rows(
            sparse.csr_matrix(np.array([[1.0, 1.0]])), np.array([2.0])
        )
        assert session.solve().sum() == pytest.approx(2.0)
        session.delete_rows([2])
        assert session.solve().sum() == pytest.approx(4.0)

    def test_row_bookkeeping(self):
        session = _session()
        assert session.num_rows == 2
        session.add_rows(sparse.csr_matrix(np.array([[0.0, 1.0]])), np.array([1.0]))
        assert session.num_rows == 3
        session.delete_rows([2])
        assert session.num_rows == 2

    def test_infeasible_detected(self):
        session = IncrementalLP(
            c=np.array([-1.0]),
            col_lower=np.array([2.0]),
            col_upper=np.array([np.inf]),
            a_ub=sparse.csr_matrix(np.array([[1.0]])),
            b_ub=np.array([1.0]),
        )
        with pytest.raises(InfeasibleError):
            session.solve()

    def test_basic_row_mask_and_values(self):
        session = _session()
        values = session.solve()
        mask = session.basic_row_mask()
        activities = session.row_values()
        assert mask.shape == (2,) and activities.shape == (2,)
        # row activities must match A @ x at the optimum
        np.testing.assert_allclose(
            activities, np.array([values.sum(), values[0]]), atol=1e-9
        )
