"""DL training jobs as the simulator executes them.

A job is ``num_workers`` data-parallel workers training for
``total_iterations`` iterations.  Its ground-truth per-worker throughput on
each GPU type (iterations/second) comes from the workload model zoo; the
scheduler only ever sees the *profiled* speedup vector, which may carry
error (Fig. 10b).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import SimulationError, ValidationError

SPEEDUP_SHAPE_RTOL = 1e-9  #: a given ``speedups`` vs the throughput's own shape


class JobState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    FINISHED = "finished"


@dataclass
class Job:
    """One DL training job owned by a tenant."""

    job_id: int
    tenant: str
    model_name: str
    num_workers: int
    total_iterations: float
    true_throughput: np.ndarray  # iterations/sec per worker, per GPU type
    submit_time: float = 0.0
    # elastic jobs (§8) may run on any worker count in
    # [min_workers, num_workers]; num_workers is then the *maximum*
    elastic: bool = False
    min_workers: int = 1
    # read-only speedup shape (slowest type = 1); the throughput's by default
    speedups: Optional[np.ndarray] = None

    state: JobState = JobState.PENDING
    done_iterations: float = 0.0
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    starvation_rounds: int = 0
    rounds_scheduled: int = 0
    # the throughput as Python floats, derived once like ``speedups``: the
    # placer and the simulator read one per placed job per round
    rates: Tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.true_throughput = np.asarray(self.true_throughput, dtype=float)
        if self.num_workers < 1:
            raise ValidationError(f"job {self.job_id}: num_workers must be >= 1")
        if not 1 <= self.min_workers <= self.num_workers:
            raise ValidationError(
                f"job {self.job_id}: min_workers must lie in [1, num_workers]"
            )
        if self.total_iterations <= 0:
            raise ValidationError(f"job {self.job_id}: total_iterations must be > 0")
        throughput = self.true_throughput
        if throughput.ndim != 1 or not throughput.size or throughput.min() <= 0:
            raise ValidationError(
                f"job {self.job_id}: throughput must be a positive vector"
            )
        shape = throughput / throughput[0]
        if self.speedups is not None:
            given = np.asarray(self.speedups, dtype=float)
            if given.shape != shape.shape or given[0] != 1.0 or (
                abs(given - shape) > SPEEDUP_SHAPE_RTOL * shape
            ).any():
                raise ValidationError(f"job {self.job_id}: inconsistent speedups")
            shape = given.copy() if given.flags.writeable else given
        self.speedups = shape
        self.speedups.setflags(write=False)
        self.rates = tuple(throughput.tolist())

    def __setstate__(self, state: dict) -> None:
        # unpickled arrays come back writable; keep the profile frozen
        self.__dict__.update(state)
        self.speedups.setflags(write=False)

    # -- profile views ---------------------------------------------------------
    @property
    def speedup_vector(self) -> np.ndarray:
        """Ground-truth speedups, normalised to the slowest GPU type."""
        return self.speedups

    @property
    def remaining_iterations(self) -> float:
        return max(0.0, self.total_iterations - self.done_iterations)

    @property
    def is_finished(self) -> bool:
        return self.state is JobState.FINISHED

    @property
    def jct(self) -> Optional[float]:
        """Job completion time (finish - submit), once finished."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.submit_time

    # -- execution --------------------------------------------------------------
    def advance(self, now: float, iterations_per_second: float, duration: float) -> float:
        """Run the job for up to ``duration`` seconds at the given speed.

        Returns the elapsed time actually used (shorter than ``duration``
        when the job finishes mid-round, so JCTs interpolate within a
        scheduling round).  :meth:`~repro.cluster.placement.JobTable.advance`
        applies the same rule to a round's placed jobs.
        """
        if self.state is JobState.FINISHED:
            raise SimulationError(f"job {self.job_id} already finished")
        if iterations_per_second < 0 or duration < 0:
            raise SimulationError("negative progress rate or duration")
        if self.start_time is None:
            self.start_time = now
        self.state = JobState.RUNNING
        self.rounds_scheduled += 1

        if iterations_per_second == 0:
            return duration
        time_to_finish = self.remaining_iterations / iterations_per_second
        if time_to_finish <= duration:
            self.done_iterations = self.total_iterations
            self.state = JobState.FINISHED
            self.finish_time = now + time_to_finish
            return time_to_finish
        self.done_iterations += iterations_per_second * duration
        return duration

    def starve(self) -> None:
        """Record one round without any allocated GPU."""
        if self.state is not JobState.FINISHED:
            self.starvation_rounds += 1
            self.state = JobState.PENDING


def make_job(
    job_id: int,
    tenant: str,
    model_name: str,
    throughput: Sequence[float],
    num_workers: int = 1,
    total_iterations: float = 10_000.0,
    submit_time: float = 0.0,
    elastic: bool = False,
    min_workers: int = 1,
    speedups: Optional[Sequence[float]] = None,
) -> Job:
    """Convenience constructor used by workload generators and tests."""
    return Job(
        job_id=job_id,
        tenant=tenant,
        model_name=model_name,
        num_workers=num_workers,
        total_iterations=total_iterations,
        true_throughput=np.asarray(throughput, dtype=float),
        submit_time=submit_time,
        elastic=elastic,
        min_workers=min_workers,
        speedups=speedups,
    )
