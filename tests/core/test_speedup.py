"""SpeedupMatrix validation and derived-matrix operations."""

import numpy as np
import pytest

from repro.core import SpeedupMatrix
from repro.exceptions import ValidationError


class TestValidation:
    def test_basic_construction(self):
        matrix = SpeedupMatrix([[1, 2], [1, 3]])
        assert matrix.num_users == 2
        assert matrix.num_gpu_types == 2

    def test_default_names(self):
        matrix = SpeedupMatrix([[1, 2], [1, 3]])
        assert matrix.users == ["user1", "user2"]
        assert matrix.gpu_types == ["gpu1", "gpu2"]

    def test_custom_names(self):
        matrix = SpeedupMatrix([[1, 2]], users=["alice"], gpu_types=["a", "b"])
        assert matrix.users == ["alice"]

    def test_name_count_mismatch(self):
        with pytest.raises(ValidationError):
            SpeedupMatrix([[1, 2]], users=["a", "b"])
        with pytest.raises(ValidationError):
            SpeedupMatrix([[1, 2]], gpu_types=["only-one"])

    def test_normalisation_divides_by_first_column(self):
        matrix = SpeedupMatrix([[2, 4], [5, 10]])
        np.testing.assert_allclose(matrix.values, [[1, 2], [1, 2]])

    def test_normalise_off_keeps_raw_values(self):
        matrix = SpeedupMatrix([[2, 4]], normalise=False)
        np.testing.assert_allclose(matrix.values, [[2, 4]])

    def test_non_monotone_row_rejected(self):
        with pytest.raises(ValidationError):
            SpeedupMatrix([[1, 0.5]])

    def test_non_monotone_allowed_when_disabled(self):
        matrix = SpeedupMatrix([[1, 0.5]], require_monotone=False, normalise=False)
        assert matrix.num_users == 1

    def test_non_positive_rejected(self):
        with pytest.raises(ValidationError):
            SpeedupMatrix([[0, 1]])
        with pytest.raises(ValidationError):
            SpeedupMatrix([[1, -2]])

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            SpeedupMatrix([[1, np.nan]])

    def test_wrong_dimensionality_rejected(self):
        with pytest.raises(ValidationError):
            SpeedupMatrix([1, 2, 3])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            SpeedupMatrix(np.zeros((0, 2)))

    def test_values_are_read_only(self):
        matrix = SpeedupMatrix([[1, 2]])
        with pytest.raises(ValueError):
            matrix.values[0, 0] = 9.0


class TestAccessors:
    def test_row_by_index(self):
        matrix = SpeedupMatrix([[1, 2], [1, 3]])
        np.testing.assert_allclose(matrix.row(1), [1, 3])

    def test_row_by_name(self):
        matrix = SpeedupMatrix([[1, 2], [1, 3]], users=["a", "b"])
        np.testing.assert_allclose(matrix.row("b"), [1, 3])

    def test_row_returns_copy(self):
        matrix = SpeedupMatrix([[1, 2]])
        row = matrix.row(0)
        row[0] = 99.0
        assert matrix.values[0, 0] == 1.0

    def test_unknown_user_name(self):
        matrix = SpeedupMatrix([[1, 2]])
        with pytest.raises(ValidationError):
            matrix.row("nobody")

    def test_index_out_of_range(self):
        matrix = SpeedupMatrix([[1, 2]])
        with pytest.raises(ValidationError):
            matrix.row(5)


class TestDerivedMatrices:
    def test_with_row_replaces_one_row(self):
        matrix = SpeedupMatrix([[1, 2], [1, 3]])
        replaced = matrix.with_row(0, [1, 2.5])
        np.testing.assert_allclose(replaced.values[0], [1, 2.5])
        np.testing.assert_allclose(replaced.values[1], [1, 3])
        # original untouched
        np.testing.assert_allclose(matrix.values[0], [1, 2])

    def test_with_row_shape_check(self):
        matrix = SpeedupMatrix([[1, 2]])
        with pytest.raises(ValidationError):
            matrix.with_row(0, [1, 2, 3])

    def test_replicated_counts(self):
        matrix = SpeedupMatrix([[1, 2], [1, 3]])
        replicated = matrix.replicated([2, 1])
        assert replicated.num_users == 3
        np.testing.assert_allclose(replicated.values[0], replicated.values[1])

    def test_replicated_names_distinguish_copies(self):
        matrix = SpeedupMatrix([[1, 2], [1, 3]], users=["a", "b"])
        replicated = matrix.replicated([2, 1])
        assert replicated.users == ["a#0", "a#1", "b"]

    def test_replicated_rejects_bad_counts(self):
        matrix = SpeedupMatrix([[1, 2], [1, 3]])
        with pytest.raises(ValidationError):
            matrix.replicated([1])
        with pytest.raises(ValidationError):
            matrix.replicated([0, 1])

    def test_repr(self):
        assert "users=2" in repr(SpeedupMatrix([[1, 2], [1, 3]]))
