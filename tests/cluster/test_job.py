"""Job lifecycle: progress, completion interpolation, starvation."""

import pickle

import numpy as np
import pytest

from repro.cluster import Job, JobState, make_job
from repro.cluster.job import SPEEDUP_SHAPE_RTOL
from repro.exceptions import SimulationError, ValidationError


def _job(**overrides):
    defaults = dict(
        job_id=1,
        tenant="t",
        model_name="vgg16",
        throughput=[2.0, 3.0, 4.0],
        num_workers=1,
        total_iterations=100.0,
        submit_time=0.0,
    )
    defaults.update(overrides)
    return make_job(**defaults)


class TestValidation:
    def test_basic(self):
        job = _job()
        assert job.state == JobState.PENDING
        assert job.remaining_iterations == 100.0

    def test_zero_workers_rejected(self):
        with pytest.raises(ValidationError):
            _job(num_workers=0)

    def test_non_positive_iterations_rejected(self):
        with pytest.raises(ValidationError):
            _job(total_iterations=0.0)

    def test_non_positive_throughput_rejected(self):
        with pytest.raises(ValidationError):
            _job(throughput=[1.0, 0.0])

    def test_speedup_vector_normalised(self):
        job = _job(throughput=[2.0, 3.0, 4.0])
        np.testing.assert_allclose(job.speedup_vector, [1.0, 1.5, 2.0])

    def test_empty_throughput_rejected(self):
        with pytest.raises(ValidationError):
            _job(throughput=[])


class TestSpeedups:
    """``Job.speedups``: the stored shape, validated against the throughput."""

    THROUGHPUT = np.array([3.1, 4.3, 5.9]) * 1.05

    def test_default_is_the_per_job_division_bit_for_bit(self):
        job = _job(throughput=self.THROUGHPUT)
        expected = self.THROUGHPUT / self.THROUGHPUT[0]
        assert job.speedups.tobytes() == expected.tobytes()
        assert job.speedup_vector is job.speedups
        assert not job.speedups.flags.writeable

    def test_a_given_shape_is_kept_even_where_the_division_differs(self):
        base = np.array([3.1, 4.3, 5.9])
        canonical = base / base[0]
        job = _job(throughput=self.THROUGHPUT, speedups=canonical)
        assert job.speedups.tobytes() == canonical.tobytes()
        # the jittered division lands elsewhere in the last bits: the
        # reason a generator hands its jobs the model's vector
        assert not np.array_equal(self.THROUGHPUT / self.THROUGHPUT[0], canonical)

    def test_a_read_only_array_is_shared_and_a_writable_one_copied(self):
        frozen = np.array([1.0, 1.5, 2.0])
        frozen.setflags(write=False)
        assert _job(speedups=frozen).speedups is frozen
        writable = np.array([1.0, 1.5, 2.0])
        job = _job(speedups=writable)
        assert job.speedups is not writable and writable.flags.writeable
        assert not job.speedups.flags.writeable

    def test_writing_through_the_stored_vector_raises(self):
        job = _job()
        with pytest.raises(ValueError):
            job.speedups[1] = 9.0

    @pytest.mark.parametrize(
        "speedups",
        [
            [1.0, 1.5],  # one entry short
            [1.0, 1.5, 2.0, 2.5],  # one entry long
            [[1.0, 1.5, 2.0]],  # right size, wrong shape
            [2.0, 3.0, 4.0],  # the throughput itself, slot 0 not 1
            [1.0 + 1e-12, 1.5, 2.0],  # inside the tolerance, but slot 0 is not 1
            [1.0, 1.5, 2.0 * (1 + 1e-6)],  # the shape, bent beyond the tolerance
            [1.0, 2.0, 1.5],  # another shape altogether
        ],
    )
    def test_an_inconsistent_shape_raises(self, speedups):
        with pytest.raises(ValidationError):
            _job(throughput=[2.0, 3.0, 4.0], speedups=speedups)

    def test_agreement_within_the_named_tolerance_is_accepted(self):
        nudged = [1.0, 1.5 * (1 + SPEEDUP_SHAPE_RTOL / 2), 2.0]
        job = _job(throughput=[2.0, 3.0, 4.0], speedups=nudged)
        assert job.speedups[1] == nudged[1]

    def test_pickle_round_trip_keeps_values_sharing_and_read_only(self):
        shared = np.array([1.0, 1.5, 2.0])
        shared.setflags(write=False)
        jobs = [_job(job_id=i, speedups=shared) for i in range(2)]
        copies = pickle.loads(pickle.dumps(jobs))
        for job in copies:
            assert job.speedups.tobytes() == shared.tobytes()
            assert not job.speedups.flags.writeable
        # one array in, one array out: the memo keeps the sharing
        assert copies[0].speedups is copies[1].speedups
        assert copies[0].true_throughput.tobytes() == jobs[0].true_throughput.tobytes()


class TestProgress:
    def test_partial_progress(self):
        job = _job()
        used = job.advance(now=0.0, iterations_per_second=1.0, duration=30.0)
        assert used == 30.0
        assert job.done_iterations == pytest.approx(30.0)
        assert job.state == JobState.RUNNING
        assert job.start_time == 0.0

    def test_finish_interpolates_within_round(self):
        job = _job(total_iterations=50.0)
        used = job.advance(now=300.0, iterations_per_second=1.0, duration=300.0)
        assert used == pytest.approx(50.0)
        assert job.is_finished
        assert job.finish_time == pytest.approx(350.0)
        assert job.jct == pytest.approx(350.0)

    def test_zero_rate_consumes_round(self):
        job = _job()
        used = job.advance(now=0.0, iterations_per_second=0.0, duration=300.0)
        assert used == 300.0
        assert job.done_iterations == 0.0

    def test_advance_after_finish_rejected(self):
        job = _job(total_iterations=1.0)
        job.advance(0.0, 10.0, 10.0)
        with pytest.raises(SimulationError):
            job.advance(300.0, 10.0, 10.0)

    def test_negative_rate_rejected(self):
        job = _job()
        with pytest.raises(SimulationError):
            job.advance(0.0, -1.0, 10.0)

    def test_start_time_set_once(self):
        job = _job()
        job.advance(0.0, 0.1, 300.0)
        job.advance(300.0, 0.1, 300.0)
        assert job.start_time == 0.0

    def test_rounds_scheduled_counter(self):
        job = _job()
        job.advance(0.0, 0.1, 300.0)
        job.advance(300.0, 0.1, 300.0)
        assert job.rounds_scheduled == 2

    def test_jct_none_before_finish(self):
        job = _job()
        assert job.jct is None


class TestStarvation:
    def test_starve_increments(self):
        job = _job()
        job.starve()
        job.starve()
        assert job.starvation_rounds == 2

    def test_starve_after_finish_is_noop(self):
        job = _job(total_iterations=1.0)
        job.advance(0.0, 10.0, 10.0)
        job.starve()
        assert job.starvation_rounds == 0

    def test_starve_resets_state_to_pending(self):
        job = _job()
        job.advance(0.0, 0.1, 300.0)
        job.starve()
        assert job.state == JobState.PENDING
