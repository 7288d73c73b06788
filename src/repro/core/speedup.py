"""Speedup matrices: the scheduler's view of tenant workloads (§2.3).

A :class:`SpeedupMatrix` holds one row per tenant and one column per GPU
type.  Following the paper, columns are ordered from slowest to fastest GPU
type and every row is normalised so the slowest type has speedup 1; the
paper assumes hardware evolution makes the slowest type consistent across
jobs, which translates to rows being non-decreasing left to right.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import ValidationError


class SpeedupMatrix:
    """Normalised per-tenant, per-GPU-type training throughput.

    Parameters
    ----------
    values:
        ``(num_users, num_gpu_types)`` array of positive throughputs.
    users:
        Optional tenant names (defaults to ``user1..userN``).
    gpu_types:
        Optional GPU type names, slowest first (defaults to ``gpu1..gpuK``).
    normalise:
        When true (default), each row is divided by its first entry so the
        slowest GPU type has speedup exactly 1, matching the paper's
        convention ``w_l^1 = 1``.
    require_monotone:
        When true (default), reject rows that decrease left to right —
        GPU types must be ordered slowest-to-fastest for every tenant
        (footnote 1 in the paper).
    """

    def __init__(
        self,
        values: Sequence[Sequence[float]] | np.ndarray,
        users: Optional[Sequence[str]] = None,
        gpu_types: Optional[Sequence[str]] = None,
        normalise: bool = True,
        require_monotone: bool = True,
    ):
        array = np.asarray(values, dtype=float)
        if array.ndim != 2:
            raise ValidationError(f"speedup matrix must be 2-D, got shape {array.shape}")
        if array.size == 0:
            raise ValidationError("speedup matrix must not be empty")
        if not np.isfinite(array).all():
            raise ValidationError("speedup matrix contains non-finite entries")
        if (array <= 0).any():
            raise ValidationError("speedups must be strictly positive")

        if normalise:
            array = array / array[:, :1]

        if require_monotone and np.any(np.diff(array, axis=1) < -1e-12):
            raise ValidationError(
                "speedup rows must be non-decreasing (order GPU types slowest first)"
            )

        self._adopt(array, users, gpu_types)

    @classmethod
    def checked(
        cls,
        values: np.ndarray,
        users: Optional[Sequence[str]] = None,
        gpu_types: Optional[Sequence[str]] = None,
    ) -> "SpeedupMatrix":
        """A matrix over ``values`` as they are: a 2-D float array its
        caller has checked finite and positive (and normalised, if it
        should be), owned from here on, not copied or tested again."""
        matrix = cls.__new__(cls)
        matrix._adopt(values, users, gpu_types)
        return matrix

    def _adopt(self, array: np.ndarray, users, gpu_types) -> None:
        self._values = array
        num_users, num_types = array.shape
        self.users: List[str] = (
            list(users) if users is not None else [f"user{i + 1}" for i in range(num_users)]
        )
        self.gpu_types: List[str] = (
            list(gpu_types)
            if gpu_types is not None
            else [f"gpu{j + 1}" for j in range(num_types)]
        )
        if len(self.users) != num_users:
            raise ValidationError(
                f"{len(self.users)} user names for {num_users} matrix rows"
            )
        if len(self.gpu_types) != num_types:
            raise ValidationError(
                f"{len(self.gpu_types)} GPU type names for {num_types} matrix columns"
            )

    # -- accessors ---------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        """The ``(num_users, num_gpu_types)`` float array (read-only view)."""
        view = self._values.view()
        view.setflags(write=False)
        return view

    @property
    def num_users(self) -> int:
        return self._values.shape[0]

    @property
    def num_gpu_types(self) -> int:
        return self._values.shape[1]

    def row(self, user: int | str) -> np.ndarray:
        """The speedup vector of one tenant, by index or name."""
        return self._values[self.user_index(user)].copy()

    def user_index(self, user: int | str) -> int:
        if isinstance(user, str):
            try:
                return self.users.index(user)
            except ValueError:
                raise ValidationError(f"unknown user {user!r}") from None
        if not 0 <= user < self.num_users:
            raise ValidationError(f"user index {user} out of range")
        return int(user)

    # -- derived matrices ---------------------------------------------------
    def with_row(self, user: int | str, new_row: Sequence[float]) -> "SpeedupMatrix":
        """A copy with one tenant's speedup vector replaced.

        Used by the strategy-proofness auditor to model a lying tenant.
        """
        index = self.user_index(user)
        values = self._values.copy()
        row = np.asarray(new_row, dtype=float)
        if row.shape != (self.num_gpu_types,):
            raise ValidationError(
                f"replacement row has shape {row.shape}, "
                f"expected ({self.num_gpu_types},)"
            )
        values[index] = row
        return SpeedupMatrix(
            values,
            users=self.users,
            gpu_types=self.gpu_types,
            normalise=False,
            require_monotone=False,
        )

    def replicated(self, counts: Sequence[int]) -> "SpeedupMatrix":
        """Replicate each row ``counts[l]`` times (weighted OEF, §4.2.3)."""
        counts_list = [int(c) for c in counts]
        if len(counts_list) != self.num_users:
            raise ValidationError("one replication count per user is required")
        if any(c < 1 for c in counts_list):
            raise ValidationError("replication counts must be >= 1")
        rows = []
        users = []
        for index, count in enumerate(counts_list):
            for copy in range(count):
                rows.append(self._values[index])
                users.append(f"{self.users[index]}#{copy}" if count > 1 else self.users[index])
        return SpeedupMatrix(
            np.vstack(rows), users=users, gpu_types=self.gpu_types,
            normalise=False, require_monotone=False,
        )

    def __repr__(self) -> str:
        return (
            f"SpeedupMatrix(users={self.num_users}, gpu_types={self.num_gpu_types})"
        )
