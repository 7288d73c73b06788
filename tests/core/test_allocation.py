"""Allocation metrics: throughput, envy, sharing-incentive, utilisation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Allocation, ProblemInstance, SpeedupMatrix
from repro.exceptions import ValidationError


@pytest.fixture
def instance():
    return ProblemInstance(SpeedupMatrix([[1, 2], [1, 4]]), [1.0, 1.0])


class TestValidation:
    def test_shape_mismatch(self, instance):
        with pytest.raises(ValidationError):
            Allocation(np.zeros((3, 2)), instance)

    def test_negative_share_rejected(self, instance):
        with pytest.raises(ValidationError):
            Allocation([[-0.5, 0], [0, 0]], instance)

    def test_over_capacity_rejected(self, instance):
        with pytest.raises(ValidationError):
            Allocation([[1.0, 0.6], [0.0, 0.6]], instance)

    def test_tiny_negative_clipped(self, instance):
        allocation = Allocation([[-1e-9, 0.0], [0.0, 0.0]], instance)
        assert allocation.matrix.min() >= 0.0


def _reference_validation(matrix, instance, tol=1e-6):
    """The checks as first written, one numpy call per step: the oracle."""
    array = np.asarray(matrix, dtype=float)
    if array.shape != (instance.num_users, instance.num_gpu_types):
        return "shape"
    if np.any(array < -tol):
        return "negative"
    used = array.sum(axis=0)
    if np.any(used > instance.capacities + tol):
        return f"capacity {np.flatnonzero(used > instance.capacities + tol).tolist()}"
    return np.clip(array, 0.0, None).tobytes()


_EDGE_VALUES = (-0.0, 0.0, np.nan, np.inf, -np.inf, -5e-7, -1e-6, -2e-6, 1e-300)


class TestValidationMatchesTheReference:
    """Same verdict and byte-equal ``matrix`` as the reference checks."""

    @given(
        entries=st.lists(
            st.one_of(
                st.sampled_from(_EDGE_VALUES),
                st.floats(-1.0, 3.0, allow_nan=False),
            ),
            min_size=6,
            max_size=6,
        ),
        scale=st.sampled_from([1.0, 1.0 + 5e-7, 1.0 + 2e-6, 1.0 - 1e-12]),
        fill=st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    def test_random_matrices(self, entries, scale, fill):
        instance = ProblemInstance(
            SpeedupMatrix([[1, 2], [1, 3], [1, 5]]), [2.0, 1.0]
        )
        matrix = np.array(entries).reshape(3, 2)
        if fill:  # a column summing to its capacity, or just past it
            column = np.abs(matrix[:, 1])
            total = column.sum()
            if np.isfinite(total) and total > 0:
                matrix[:, 1] = column * (scale / total)
        expected = _reference_validation(matrix, instance)
        try:
            got = Allocation(matrix, instance).matrix.tobytes()
        except ValidationError as exc:
            got = str(exc)
        if isinstance(expected, bytes):
            assert got == expected
        elif expected == "negative":
            assert got == "allocation contains negative shares"
        else:
            assert got.endswith(expected.split(" ", 1)[1])

    def test_shape_verdict_and_copy(self, instance):
        for shape in ((2, 3), (1, 2), (0, 2)):
            with pytest.raises(ValidationError, match="shape"):
                Allocation(np.zeros(shape), instance)
        source = np.array([[0.5, 0.0], [0.5, 1.0]])
        allocation = Allocation(source, instance)
        assert allocation.matrix is not source
        assert not np.shares_memory(allocation.matrix, source)


class TestMetrics:
    def test_user_throughput(self, instance):
        allocation = Allocation([[1.0, 0.25], [0.0, 0.75]], instance)
        np.testing.assert_allclose(allocation.user_throughput(), [1.5, 3.0])

    def test_user_throughput_by_name(self, instance):
        allocation = Allocation([[1.0, 0.0], [0.0, 1.0]], instance)
        assert allocation.user_throughput("user2") == pytest.approx(4.0)

    def test_total_efficiency(self, instance):
        allocation = Allocation([[1.0, 0.25], [0.0, 0.75]], instance)
        assert allocation.total_efficiency() == pytest.approx(4.5)

    def test_cross_throughput(self, instance):
        allocation = Allocation([[1.0, 0.0], [0.0, 1.0]], instance)
        cross = allocation.cross_throughput()
        # user1 on user2's share: speedup [1,2] . [0,1] = 2
        assert cross[0, 1] == pytest.approx(2.0)
        assert cross[1, 0] == pytest.approx(1.0)

    def test_envy_matrix_diagonal_zero(self, instance):
        allocation = Allocation([[0.5, 0.5], [0.5, 0.5]], instance)
        envy = allocation.envy_matrix()
        np.testing.assert_allclose(np.diag(envy), 0.0)

    def test_envy_matrix_detects_envy(self, instance):
        # user1 holds nothing: it envies user2
        allocation = Allocation([[0.0, 0.0], [1.0, 1.0]], instance)
        envy = allocation.envy_matrix()
        assert envy[0, 1] == pytest.approx(3.0)

    def test_sharing_incentive_gap(self, instance):
        allocation = Allocation([[0.5, 0.5], [0.5, 0.5]], instance)
        # equal split is exactly the SI reference point
        np.testing.assert_allclose(allocation.sharing_incentive_gap(), 0.0, atol=1e-12)

    def test_utilisation(self, instance):
        allocation = Allocation([[0.5, 0.0], [0.25, 1.0]], instance)
        np.testing.assert_allclose(allocation.utilisation(), [0.75, 1.0])

    def test_gpu_types_used(self, instance):
        allocation = Allocation([[1.0, 0.0], [0.0, 1.0]], instance)
        assert allocation.gpu_types_used(0) == [0]
        assert allocation.gpu_types_used("user2") == [1]

    def test_repr_contains_allocator_name(self, instance):
        allocation = Allocation(
            [[0.0, 0.0], [0.0, 0.0]], instance, allocator_name="x"
        )
        assert "x" in repr(allocation)
