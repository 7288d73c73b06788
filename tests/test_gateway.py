"""Gateway pipeline: envelopes, stages, composition, admission, coalescing."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.core import Allocation, CooperativeOEF, ProblemInstance, SpeedupMatrix
from repro.gateway import (
    AdmissionMiddleware,
    CacheMiddleware,
    CoalesceMiddleware,
    Gateway,
    MetricsMiddleware,
    Middleware,
    Overloaded,
    Request,
    RequestShed,
    Response,
    SolverMiddleware,
    bare_pipeline,
    deadline_in,
    default_pipeline,
    instance_fingerprint,
)
from repro.exceptions import ValidationError
from repro.workloads.generator import random_instance


@pytest.fixture
def gateway() -> Gateway:
    return Gateway(default_pipeline())


class _Recorder(Middleware):
    """Test stage: records every request/response passing through."""

    name = "recorder"

    def __init__(self):
        self.requests = []
        self.responses = []

    def handle(self, request, next):
        self.requests.append(request)
        response = next(request)
        self.responses.append(response)
        return response


def _wait_for_parked_follower(coalesce, key, timeout: float = 5.0) -> None:
    """Until a follower's event hangs on ``key`` in the in-flight table."""
    deadline = time.monotonic() + timeout
    while coalesce._inflight.get(key) is None:
        assert time.monotonic() < deadline, "no follower parked on the leader"
        time.sleep(0.001)


class _Blocking(Middleware):
    """Terminal test stage that waits for an event before answering."""

    name = "blocking"

    def __init__(self, release: threading.Event):
        self.release = release
        self.calls = 0
        self._lock = threading.Lock()

    def handle(self, request, next):
        with self._lock:
            self.calls += 1
        self.release.wait(10.0)
        return Response(scheduler=request.scheduler)


class TestEnvelope:
    def test_request_is_frozen(self, paper_instance):
        request = Request(instance=paper_instance)
        with pytest.raises(AttributeError):
            request.scheduler = "gavel"

    def test_response_properties(self):
        ok = Response(scheduler="x", disposition="cache-hit")
        assert ok.ok and ok.from_cache and not ok.shed
        shed = Overloaded(scheduler="x", disposition="shed-deadline")
        assert not shed.ok and shed.shed and shed.allocation is None
        assert shed.status == "overloaded"

    def test_deadline_in_is_monotonic_future(self):
        assert deadline_in(5.0) > time.monotonic()


class TestFingerprintIsInjectiveOverNames:
    @staticmethod
    def _fingerprint(users, gpu_types=("slow", "fast"), values=((1, 2), (1, 3))):
        from repro.core.instance import ProblemInstance
        from repro.core.speedup import SpeedupMatrix

        matrix = SpeedupMatrix(
            np.asarray(values, dtype=float),
            users=list(users),
            gpu_types=list(gpu_types),
            normalise=False,
            require_monotone=False,
        )
        return instance_fingerprint(
            ProblemInstance(matrix, np.ones(len(gpu_types)))
        )

    @pytest.mark.parametrize(
        "one,other",
        [
            (["a\x1fb", "c"], ["a", "b\x1fc"]),  # the old joining separator
            ([1, 2], ["1", "2"]),                # str() of a name is not the name
            (['a","b', "c"], ["a", 'b","c']),    # nor does a JSON-ish one fool it
        ],
    )
    def test_names_that_used_to_collide(self, one, other):
        assert self._fingerprint(one) != self._fingerprint(other)
        assert self._fingerprint(one) == self._fingerprint(list(one))

    def test_a_name_cannot_move_between_users_and_gpu_types(self):
        # 2x3 and 3x2 of the same six values, names summing to the same five
        wide = self._fingerprint(["a", "b"], ["c", "d", "e"], [[1, 2, 3], [1, 2, 3]])
        tall = self._fingerprint(["a", "b", "c"], ["d", "e"], [[1, 2], [3, 1], [2, 3]])
        assert wide != tall


class TestGatewaySolve:
    def test_cold_then_cached(self, gateway, paper_instance):
        first = gateway.solve(paper_instance, "oef-coop")
        second = gateway.solve(paper_instance, "cooperative")  # alias
        assert first.disposition == "cold" and second.disposition == "cache-hit"
        assert second.cache_hits == 1 and second.cache_misses == 1
        assert first.fingerprint == second.fingerprint
        direct = CooperativeOEF().allocate(paper_instance)
        np.testing.assert_array_equal(second.allocation.matrix, direct.matrix)

    def test_accepts_prebuilt_request(self, gateway, paper_instance):
        response = gateway.solve(Request(instance=paper_instance, scheduler="max-min"))
        assert response.scheduler == "max-min" and response.ok

    def test_stage_timings_cover_the_pipeline(self, gateway, paper_instance):
        response = gateway.solve(paper_instance, "max-min")
        stages = [name for name, _ in response.stage_timings]
        assert stages == [
            "admission", "metrics", "coalesce", "cache", "solver",
        ]
        assert all(seconds >= 0.0 for _, seconds in response.stage_timings)
        # inclusive timings: outer stages cover the inner ones
        timings = dict(response.stage_timings)
        assert timings["admission"] >= timings["solver"]

    def test_cache_hit_skips_the_solver_stage(self, gateway, paper_instance):
        gateway.solve(paper_instance, "max-min")
        hit = gateway.solve(paper_instance, "max-min")
        assert "solver" not in dict(hit.stage_timings)

    def test_uncacheable_options_raise_before_solving(self, gateway, paper_instance):
        with pytest.raises(TypeError, match="cannot be cached"):
            gateway.solve(paper_instance, "max-min", options={"rng": object()})
        ok = gateway.solve(
            paper_instance, "max-min", options={}, use_cache=False
        )
        assert ok.disposition == "cold"

    def test_bare_pipeline_never_caches(self, paper_instance):
        gateway = Gateway(bare_pipeline())
        first = gateway.solve(paper_instance, "oef-coop")
        second = gateway.solve(paper_instance, "oef-coop")
        assert first.disposition == second.disposition == "cold"
        assert gateway.cache_info().entries == 0

    def test_bare_matches_default_bitwise(self, paper_instance):
        bare = Gateway(bare_pipeline())
        full = Gateway(default_pipeline())
        for scheduler in ("oef-coop", "oef-noncoop", "max-min", "gavel"):
            a = bare.solve(paper_instance, scheduler)
            b = full.solve(paper_instance, scheduler)
            np.testing.assert_array_equal(a.allocation.matrix, b.allocation.matrix)

    def test_pipeline_without_terminal_raises(self, paper_instance):
        gateway = Gateway([CacheMiddleware()])
        with pytest.raises(RuntimeError, match="terminal"):
            gateway.solve(paper_instance, "max-min")


class TestPipelineComposition:
    def test_use_inserts_above_terminal_by_default(self, gateway):
        recorder = _Recorder()
        gateway.use(recorder)
        assert gateway.pipeline[-2] is recorder

    def test_use_before_and_after_anchors(self, gateway):
        first = _Recorder()
        gateway.use(first, before="cache")
        names = [stage.name for stage in gateway.pipeline]
        assert names.index("recorder") == names.index("cache") - 1
        second = _Recorder()
        gateway.use(second, after=SolverMiddleware)
        assert gateway.pipeline[-1] is second

    def test_use_rejects_double_anchor(self, gateway):
        with pytest.raises(ValueError, match="at most one"):
            gateway.use(_Recorder(), before="cache", after="solver")

    def test_remove_stage(self, gateway, paper_instance):
        gateway.remove(MetricsMiddleware)
        assert gateway.find(MetricsMiddleware) is None
        assert gateway.solve(paper_instance, "max-min").ok

    def test_custom_stage_sees_requests_and_responses(self, gateway, paper_instance):
        recorder = _Recorder()
        gateway.use(recorder, before="solver")
        gateway.solve(paper_instance, "max-min")
        gateway.solve(paper_instance, "max-min")  # cache hit: stage not reached
        assert len(recorder.requests) == 1
        assert recorder.responses[0].disposition == "cold"

    def test_describe_lists_stages_in_order(self, gateway):
        rows = gateway.describe()
        assert [row["stage"] for row in rows] == [
            "admission", "metrics", "coalesce", "cache", "solver",
        ]
        assert rows[-1]["terminal"] == "yes"

    def test_find_by_name_and_class(self, gateway):
        assert gateway.find("cache") is gateway.find(CacheMiddleware)
        assert gateway.find("nope") is None


class TestWarmTierIsGone:
    def test_incremental_is_not_a_solve_argument(self, gateway, paper_instance):
        with pytest.raises(TypeError):
            gateway.solve(paper_instance, "oef-coop", incremental=True)
        with pytest.raises(TypeError):
            Request(paper_instance, "oef-coop", prev_result=None)

    def test_envelope_and_stats_carry_no_warm_fields(self, gateway, paper_instance):
        response = gateway.solve(paper_instance, "oef-coop")
        for name in ("warm", "warm_state", "result"):
            assert not hasattr(response, name)
        for name in ("warm_hits", "structural_hits", "warm_entries"):
            assert not hasattr(gateway.cache_info(), name)

    def test_there_is_no_composed_lp_prefetch(self, gateway, paper_instance):
        assert not hasattr(Request(paper_instance), "presolved")
        with pytest.raises(TypeError):
            gateway.solve_batch([Request(paper_instance)], lp_batch=True)


class TestAdmission:
    def test_expired_deadline_is_shed(self, gateway, paper_instance):
        response = gateway.solve(
            paper_instance, "max-min", deadline=time.monotonic() - 1.0
        )
        assert isinstance(response, Overloaded)
        assert response.disposition == "shed-deadline"
        # nothing was solved or cached
        assert gateway.cache_info().entries == 0

    def test_future_deadline_is_admitted(self, gateway, paper_instance):
        response = gateway.solve(paper_instance, "max-min", deadline=deadline_in(30))
        assert response.ok

    def test_zero_capacity_sheds_everything(self, paper_instance):
        gateway = Gateway(default_pipeline(max_in_flight=0))
        response = gateway.solve(paper_instance, "max-min")
        assert response.disposition == "shed-capacity"
        assert "in flight" in response.reason

    def test_priority_bypasses_capacity_shedding(self, paper_instance):
        gateway = Gateway(default_pipeline(max_in_flight=0))
        response = gateway.solve(paper_instance, "max-min", priority=1)
        assert response.ok

    def test_counters_exact_under_8_thread_hammer(self):
        """Admission counters must account every request exactly once."""
        release = threading.Event()
        admission = AdmissionMiddleware(max_in_flight=3)
        blocking = _Blocking(release)
        gateway = Gateway([admission, blocking])
        num_threads = 8
        per_thread = 5
        barrier = threading.Barrier(num_threads)
        outcomes: list = []
        errors: list = []
        lock = threading.Lock()

        def worker():
            try:
                barrier.wait()
                for _ in range(per_thread):
                    response = gateway.dispatch(
                        Request(instance=None, scheduler="noop")
                    )
                    with lock:
                        outcomes.append(response.status)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(num_threads)]
        for thread in threads:
            thread.start()
        time.sleep(0.05)
        release.set()
        for thread in threads:
            thread.join()

        assert not errors
        total = num_threads * per_thread
        stats = admission.stats()
        assert len(outcomes) == total
        assert stats["admitted"] + stats["shed_capacity"] == total
        assert stats["admitted"] == blocking.calls
        assert stats["admitted"] == sum(1 for s in outcomes if s == "ok")
        assert stats["shed_capacity"] >= 1  # the bound actually bit
        assert stats["in_flight"] == 0  # every admit was released
        assert stats["shed_deadline"] == 0


class TestCoalesce:
    def test_concurrent_identical_requests_solve_once(self, paper_instance):
        gateway = Gateway(default_pipeline())
        num_threads = 6
        barrier = threading.Barrier(num_threads)
        results: list = []
        errors: list = []
        lock = threading.Lock()

        def worker():
            try:
                barrier.wait()
                response = gateway.solve(paper_instance, "oef-coop")
                with lock:
                    results.append(response)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors and len(results) == num_threads
        stats = gateway.cache_info()
        # the leader misses; coalesced followers retry into the cache
        assert stats.misses + stats.hits == num_threads
        coalesce = gateway.find(CoalesceMiddleware)
        assert coalesce.stats()["coalesced"] <= stats.hits
        reference = results[0].allocation.matrix
        for response in results[1:]:
            np.testing.assert_array_equal(response.allocation.matrix, reference)

    def test_follower_waits_for_leader_then_hits_cache(self, paper_instance):
        """Deterministic leader/follower handoff through the coalesce stage."""
        entered = threading.Event()
        release = threading.Event()

        class _SlowSolver(Middleware):
            name = "slow-solver"

            def __init__(self):
                self.calls = 0

            def handle(self, request, next):
                self.calls += 1
                entered.set()
                release.wait(10.0)
                matrix = np.zeros((request.instance.num_users, 2))
                from repro.core import Allocation

                allocation = Allocation(
                    matrix, request.instance, allocator_name="slow"
                )
                return Response(
                    scheduler=request.scheduler,
                    allocation=allocation,
                    fingerprint="slow",
                )

        solver = _SlowSolver()
        gateway = Gateway(
            [CoalesceMiddleware(), CacheMiddleware(), solver]
        )
        request = Request(instance=paper_instance, scheduler="max-min", key="k")
        responses: list = []

        leader = threading.Thread(
            target=lambda: responses.append(gateway.dispatch(request))
        )
        leader.start()
        assert entered.wait(5.0)  # the leader is inside the terminal stage
        follower = threading.Thread(
            target=lambda: responses.append(gateway.dispatch(request))
        )
        follower.start()
        coalesce = gateway.find(CoalesceMiddleware)
        _wait_for_parked_follower(coalesce, "k")
        release.set()
        leader.join()
        follower.join()

        assert solver.calls == 1  # the follower never solved
        assert len(responses) == 2
        assert {r.disposition for r in responses} == {"cold", "cache-hit"}
        assert coalesce.stats() == {"coalesced": 1, "in_flight": 0}

    def test_each_key_solves_once_under_thread_contention(self, paper_instance):
        """Stress: a lost leader mark or event would solve a key twice or
        leave a follower parked."""

        class _CountingSolver(Middleware):
            name = "counting-solver"

            def __init__(self):
                self.calls = {}
                self._lock = threading.Lock()

            def handle(self, request, next):
                with self._lock:
                    self.calls[request.key] = self.calls.get(request.key, 0) + 1
                time.sleep(0.0005)  # long enough for twins to arrive
                allocation = Allocation(
                    np.zeros((3, 2)), request.instance, allocator_name="count"
                )
                return Response(
                    scheduler=request.scheduler, allocation=allocation,
                    fingerprint="count",
                )

        solver = _CountingSolver()
        gateway = Gateway([CoalesceMiddleware(), CacheMiddleware(), solver])
        keys = [f"k{index}" for index in range(4)]
        num_threads, rounds = 8, 40
        barrier = threading.Barrier(num_threads)
        answered = []

        def worker(offset):
            barrier.wait(timeout=10.0)
            for round_index in range(rounds):
                key = keys[(offset + round_index) % len(keys)]
                request = Request(
                    instance=paper_instance, scheduler="max-min", key=key
                )
                answered.append(gateway.dispatch(request).ok)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(offset,))
                for offset in range(num_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert all(not thread.is_alive() for thread in threads)
        assert len(answered) == num_threads * rounds and all(answered)
        assert solver.calls == {key: 1 for key in keys}
        assert gateway.find(CoalesceMiddleware).stats()["in_flight"] == 0

    def test_a_lone_request_builds_no_event(self, gateway, paper_instance, monkeypatch):
        built = []
        real_event = threading.Event

        def counted_event():
            built.append(1)
            return real_event()

        monkeypatch.setattr(threading, "Event", counted_event)
        assert gateway.solve(paper_instance, "max-min").disposition == "cold"
        assert gateway.solve(paper_instance, "max-min").from_cache
        assert built == []
        assert gateway.find(CoalesceMiddleware).stats() == {
            "coalesced": 0, "in_flight": 0,
        }

    def test_uncached_requests_are_not_coalesced(self, gateway, paper_instance):
        gateway.solve(paper_instance, "max-min", use_cache=False)
        assert gateway.find(CoalesceMiddleware).stats()["coalesced"] == 0


class TestMetrics:
    def test_histograms_by_disposition_and_stage(self, gateway, paper_instance):
        gateway.solve(paper_instance, "max-min")
        gateway.solve(paper_instance, "max-min")
        rows = {row["name"]: row for row in gateway.metrics_snapshot()}
        assert rows["cold"]["samples"] == 1
        assert rows["cache-hit"]["samples"] == 1
        assert rows["stage:solver"]["samples"] == 1  # hit skipped the solver
        assert rows["stage:cache"]["samples"] == 2
        for row in rows.values():
            assert row["p95"] >= row["p50"] >= 0.0

    @pytest.mark.parametrize(
        "samples, rows",
        [
            (
                [1.0, 2.0, 3.0],
                [
                    {
                        "name": "cold",
                        "mean": 2.0,
                        "p50": 2.0,
                        "p95": 2.9,
                        "samples": 3,
                        "total_observations": 3,
                    }
                ],
            ),
            ([], []),
            (
                [0.5],
                [
                    {
                        "name": "cold",
                        "mean": 0.5,
                        "p50": 0.5,
                        "p95": 0.5,
                        "samples": 1,
                        "total_observations": 1,
                    }
                ],
            ),
            (
                [3.0, 1.0, 2.0],
                [
                    {
                        "name": "cold",
                        "mean": 2.0,
                        "p50": 2.0,
                        "p95": 2.9,
                        "samples": 3,
                        "total_observations": 3,
                    }
                ],
            ),
            (
                [float(i) for i in range(1, 21)],
                [
                    {
                        "name": "cold",
                        "mean": 10.5,
                        "p50": 10.5,
                        "p95": 19.05,
                        "samples": 20,
                        "total_observations": 20,
                    }
                ],
            ),
            (
                [2.0, 2.0, 2.0, 2.0],
                [
                    {
                        "name": "cold",
                        "mean": 2.0,
                        "p50": 2.0,
                        "p95": 2.0,
                        "samples": 4,
                        "total_observations": 4,
                    }
                ],
            ),
            (
                [0.25, 0.75],
                [
                    {
                        "name": "cold",
                        "mean": 0.5,
                        "p50": 0.5,
                        "p95": 0.725,
                        "samples": 2,
                        "total_observations": 2,
                    }
                ],
            ),
        ],
    )
    def test_snapshot_statistics(self, samples, rows):
        metrics = MetricsMiddleware()
        for seconds in samples:
            metrics.record("cold", seconds)
        assert metrics.snapshot() == rows

    def test_snapshot_window_keeps_the_latest_samples_and_counts_all(self):
        metrics = MetricsMiddleware(max_samples=2)
        for seconds in (9.0, 1.0, 3.0):
            metrics.record("cold", seconds)
        (row,) = metrics.snapshot()
        assert (row["mean"], row["samples"], row["total_observations"]) == (2.0, 2, 3)

    def test_snapshot_rows_are_sorted_by_label(self):
        metrics = MetricsMiddleware()
        for label in ("stage:solver", "cold", "cache-hit", "stage:cache"):
            metrics.record(label, 1.0)
        assert [row["name"] for row in metrics.snapshot()] == [
            "cache-hit", "cold", "stage:cache", "stage:solver",
        ]

    def test_reset_clears_histograms(self, gateway, paper_instance):
        gateway.solve(paper_instance, "max-min")
        gateway.find(MetricsMiddleware).reset()
        assert gateway.metrics_snapshot() == []

    def test_shed_dispositions_are_recorded_despite_admission_ordering(
        self, paper_instance
    ):
        # admission answers above the metrics stage; the gateway still
        # feeds the shed disposition into the histograms
        gateway = Gateway(default_pipeline(max_in_flight=0))
        gateway.solve(paper_instance, "max-min")
        rows = {row["name"]: row for row in gateway.metrics_snapshot()}
        assert rows["shed-capacity"]["samples"] == 1


class TestCachePoisoning:
    def test_mutating_a_response_does_not_poison_the_cache(
        self, gateway, paper_instance
    ):
        gateway.solve(paper_instance, "max-min")
        hit = gateway.solve(paper_instance, "max-min")
        before = hit.allocation.matrix.tobytes()
        # a hit shares the stored read-only array: a stray write raises
        with pytest.raises(ValueError, match="read-only"):
            hit.allocation.matrix[:] = 0.0
        clean = gateway.solve(paper_instance, "max-min")
        assert clean.from_cache
        assert clean.allocation.matrix.tobytes() == before
        assert clean.allocation.total_efficiency() > 0


class TestCacheHitContract:
    """A hit is a lookup: the stored read-only array, the caller's instance."""

    def test_hit_shares_the_stored_read_only_matrix(self, gateway, paper_instance):
        cold = gateway.solve(paper_instance, "oef-coop")
        first = gateway.solve(paper_instance, "oef-coop")
        second = gateway.solve(paper_instance, "oef-coop")
        assert cold.allocation.matrix.flags.writeable  # the solver's own array
        assert not first.allocation.matrix.flags.writeable
        assert first.allocation.matrix is second.allocation.matrix
        assert first.allocation.matrix is not cold.allocation.matrix
        with pytest.raises(ValueError):
            first.allocation.matrix[0, 0] = 1.0
        again = gateway.solve(paper_instance, "oef-coop").allocation.matrix
        assert again.tobytes() == cold.allocation.matrix.tobytes()

    def test_hit_is_bound_to_the_callers_instance(self, gateway, paper_instance):
        gateway.solve(paper_instance, "max-min")
        twin = ProblemInstance(
            SpeedupMatrix([[1, 2], [1, 3], [1, 4]]), [1.0, 1.0]
        )  # equal content, another object
        hit = gateway.solve(twin, "max-min")
        assert hit.from_cache
        assert hit.allocation.instance is twin
        assert hit.allocation.allocator_name == "max-min"

    def test_validating_init_runs_per_stored_entry_not_per_hit(
        self, gateway, paper_instance, monkeypatch
    ):
        calls = []
        validating = Allocation.__init__

        def counted(self, *args, **kwargs):
            calls.append(1)
            validating(self, *args, **kwargs)

        monkeypatch.setattr(Allocation, "__init__", counted)
        Gateway(bare_pipeline()).solve(paper_instance, "max-min")
        per_solve = len(calls)
        calls.clear()
        gateway.solve(paper_instance, "max-min")
        assert len(calls) == per_solve  # storing the entry builds none
        calls.clear()
        for _ in range(5):
            assert gateway.solve(paper_instance, "max-min").from_cache
        assert calls == []


    def test_a_reused_key_of_another_shape_is_refused(self):
        gateway = Gateway()
        first = Request(random_instance(3, 2, seed=0), scheduler="max-min", key="k")
        assert gateway.dispatch(first).disposition == "cold"
        other = Request(random_instance(4, 2, seed=1), scheduler="max-min", key="k")
        with pytest.raises(ValidationError, match="'k'"):
            gateway.dispatch(other)
        # the entry stays, and still answers its own shape
        assert gateway.dispatch(first).disposition == "cache-hit"


class TestBatchThroughGateway:
    def test_parallel_batch_matches_serial(self):
        instances = [random_instance(4, 3, seed=seed) for seed in range(3)]
        requests = [
            Request(instance=instance, scheduler=name)
            for instance in instances
            for name in ("oef-coop", "max-min")
        ]
        serial = Gateway(default_pipeline()).solve_batch(requests)
        parallel = Gateway(default_pipeline()).solve_batch(
            requests, backend="thread", max_workers=2
        )
        for a, b in zip(serial, parallel):
            assert a.scheduler == b.scheduler
            np.testing.assert_allclose(
                a.allocation.matrix, b.allocation.matrix, atol=1e-9
            )

    def test_batch_without_cache_stage_still_solves(self, paper_instance):
        gateway = Gateway(bare_pipeline())
        responses = gateway.solve_batch(
            [Request(instance=paper_instance, scheduler="max-min")] * 2,
            backend="thread",
        )
        assert all(r.disposition == "cold" for r in responses)
        assert all(r.cache_hits == 0 for r in responses)

    def test_batch_accepts_bare_triples(self, paper_instance):
        gateway = Gateway(default_pipeline())
        responses = gateway.solve_batch([(paper_instance, "max-min", {})])
        assert responses[0].scheduler == "max-min"

    def test_expired_deadline_sheds_on_every_backend(self, paper_instance):
        """A batch answers exactly like serial calls: deadlines still shed."""
        expired = Request(
            instance=paper_instance,
            scheduler="max-min",
            deadline=time.monotonic() - 1.0,
        )
        fresh = Request(instance=paper_instance, scheduler="oef-coop")
        serial = Gateway(default_pipeline()).solve_batch([expired, fresh])
        parallel = Gateway(default_pipeline()).solve_batch(
            [expired, fresh], backend="thread", max_workers=2
        )
        for responses in (serial, parallel):
            assert responses[0].disposition == "shed-deadline"
            assert responses[0].allocation is None
            assert responses[1].ok and responses[1].allocation is not None

    def test_bounded_admission_applies_to_parallel_batches(self, recwarn):
        """A bounded pipeline fans out: shed items are typed, in their slots."""
        instances = [random_instance(6, 3, seed=seed) for seed in range(6)]
        requests = [Request(instance, "oef-coop") for instance in instances]
        for responses in (
            Gateway(default_pipeline(max_in_flight=0)).solve_batch(requests),
            Gateway(default_pipeline(max_in_flight=0)).solve_batch(
                requests, backend="thread", max_workers=2
            ),
        ):
            assert all(isinstance(r, Overloaded) for r in responses)
            assert all(r.disposition == "shed-capacity" for r in responses)
        gateway = Gateway(default_pipeline(max_in_flight=1))
        responses = gateway.solve_batch(requests, backend="thread", max_workers=4)
        assert len(responses) == len(requests)
        stats = gateway.find(AdmissionMiddleware).stats()
        assert stats["admitted"] + stats["shed_capacity"] == len(requests)
        assert stats["admitted"] >= 1 and stats["in_flight"] == 0
        reference = Gateway(bare_pipeline())
        for instance, response in zip(instances, responses):
            if response.ok:  # admitted: the right answer, in the right slot
                np.testing.assert_allclose(
                    response.allocation.matrix,
                    reference.solve(instance, "oef-coop").allocation.matrix,
                    atol=1e-9,
                )
            else:
                assert isinstance(response, Overloaded)
                assert response.retry_after_s > 0
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize(
        "how",
        [{}, {"backend": "serial"}, {"backend": "thread"}, {"backend": "auto"}],
        ids=["default", "serial", "thread", "auto"],
    )
    def test_custom_stages_see_batched_requests(self, how, recwarn):
        """gateway.use() stages see every batch item on every backend."""
        recorder = _Recorder()
        gateway = Gateway(default_pipeline())
        gateway.use(recorder, before="solver")
        instances = [random_instance(5, 3, seed=seed) for seed in range(4)]
        gateway.solve_batch(
            [Request(instance, "oef-noncoop") for instance in instances],
            max_workers=2,
            **how,
        )
        assert sorted(r.fingerprint for r in recorder.requests) == sorted(
            Gateway().solve(instance).fingerprint for instance in instances
        )
        assert len(recorder.responses) == len(instances)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("how", [{"backend": "thread"}], ids=["thread"])
    def test_custom_request_key_cannot_corrupt_the_batch_cache(
        self, paper_instance, how
    ):
        """A batch honours ``Request.key`` exactly as ``dispatch`` does: the
        entry lives under the custom key and only under it."""
        gateway = Gateway(default_pipeline())
        keyed = Request(instance=paper_instance, scheduler="oef-coop", key=b"round-1")
        [first] = gateway.solve_batch([keyed], **how)
        assert first.disposition == "cold"
        [again] = gateway.solve_batch([keyed], **how)
        assert again.from_cache
        assert again.scheduler == "oef-coop"
        assert isinstance(again.fingerprint, str) and len(again.fingerprint) == 64
        np.testing.assert_array_equal(
            again.allocation.matrix, first.allocation.matrix
        )
        # the content identity was never written, so a plain solve misses
        assert gateway.solve(paper_instance, "oef-coop").disposition == "cold"

    @pytest.mark.parametrize("how", [{"backend": "thread"}], ids=["thread"])
    def test_audit_tap_samples_batch_responses(self, how):
        """Batch items pass the audit stage like any singleton solve."""
        from repro.auditor import AuditMiddleware, AuditWorker

        audited = []
        worker = AuditWorker(
            None, audit_fn=lambda instance, scheduler: audited.append(scheduler)
        )
        tap = AuditMiddleware(1.0, worker=worker)
        gateway = Gateway(default_pipeline(audit=tap))
        instances = [random_instance(4, 3, seed=seed) for seed in range(3)]
        try:
            responses = gateway.solve_batch(
                [Request(instance, "oef-noncoop") for instance in instances], **how
            )
            assert all(response.ok for response in responses)
            assert tap.stats()["captured"] == len(instances)
            assert worker.drain(timeout=5.0)
            assert audited == ["oef-noncoop"] * len(instances)
            # a hot pass is settled at the tap: nothing re-reaches the worker
            again = gateway.solve_batch(
                [Request(instance, "oef-noncoop") for instance in instances], **how
            )
            assert all(response.disposition == "cache-hit" for response in again)
            for response, first in zip(again, responses):
                np.testing.assert_array_equal(
                    response.allocation.matrix, first.allocation.matrix
                )
            assert worker.drain(timeout=5.0)
            assert audited == ["oef-noncoop"] * len(instances)
            assert worker.stats()["duplicates"] == 0
        finally:
            worker.stop(timeout=5.0)


class TestOneBatchPath:
    """The lane planner is gone: a batch is the pipeline, mapped."""

    def test_planner_surface_is_removed(self):
        from repro import scheduler_info

        cache = CacheMiddleware()
        assert not [name for name in dir(cache) if name.endswith("_unlocked")]
        assert not hasattr(cache, "lock")
        assert not hasattr(CoalesceMiddleware, "note_coalesced")
        for name in ("_execute_pending", "_plan_batch", "_assemble_batch"):
            assert not hasattr(Gateway, name)
        info = scheduler_info("oef-coop")
        assert not hasattr(info, "picklable")
        assert not hasattr(info, "max_isolation")

    def test_process_backend_is_rejected_for_solves(self, gateway, paper_instance):
        from repro.exceptions import ValidationError

        requests = [Request(paper_instance, "max-min")] * 2
        for backend in ("process", "PROCESS"):
            with pytest.raises(ValidationError, match='"thread"'):
                gateway.solve_batch(requests, backend=backend)
        with pytest.raises(ValidationError, match='"thread"'):
            gateway.compare(paper_instance, ["max-min"], backend="process")
        assert gateway.cache_info().misses == 0  # nothing was solved

    def test_register_scheduler_rejects_picklable(self):
        from repro.registry import SchedulerRegistry, register_scheduler

        with pytest.raises(TypeError, match="picklable"):
            register_scheduler(
                name="never-registered",
                picklable=False,
                registry=SchedulerRegistry(),
            )


class TestOneFrontDoor:
    """The legacy service facade is gone; its behaviour lives here."""

    def test_facade_module_and_names_are_removed(self):
        import repro

        with pytest.raises(ModuleNotFoundError):
            import repro.service  # noqa: F401
        for name in ("SchedulingService", "SolveRequest", "SolveResult"):
            assert name not in repro.__all__
            assert not hasattr(repro, name)

    def test_pipeline_is_authoritative_for_the_cache_bound(self):
        gateway = Gateway(default_pipeline(max_cache_entries=7))
        assert gateway.cache_info().max_entries == 7

    def test_prebuilt_request_rejects_extra_arguments(self, gateway, paper_instance):
        request = Request(paper_instance, "max-min")
        for kwargs in (
            {"use_cache": False},
            {"deadline": deadline_in(30)},
            {"options": {}},
            {"priority": 1},
            {"scheduler": "oef-coop", "priority": 1},
        ):
            with pytest.raises(TypeError, match="prebuilt Request"):
                gateway.solve(request, **kwargs)
        with pytest.raises(TypeError, match="prebuilt Request"):
            gateway.solve(request, "drf")
        assert gateway.cache_info().misses == 0  # nothing was solved
        assert gateway.solve(request).scheduler == "max-min"

    def test_allocator_view_raises_typed_shed(self, paper_instance):
        gateway = Gateway(default_pipeline(max_in_flight=0))
        with pytest.raises(RequestShed, match="gateway shed the request") as shed:
            gateway.allocator("max-min").allocate(paper_instance)
        assert isinstance(shed.value.response, Overloaded)
        assert shed.value.response.disposition == "shed-capacity"
        assert shed.value.response.retry_after_s > 0
        # audit and compare solve through the same view
        with pytest.raises(RequestShed):
            gateway.audit(paper_instance, "max-min", sp_trials=1)
        with pytest.raises(RequestShed):
            gateway.compare(paper_instance, ["max-min"])

    def test_allocator_view_shares_the_cache(self, gateway, paper_instance):
        view = gateway.allocator("gavel", slack=0.5)
        assert view.name == "gavel"
        matrix = view.allocate(paper_instance).matrix
        hit = gateway.solve(paper_instance, "gavel", options={"slack": 0.5})
        assert hit.from_cache
        np.testing.assert_array_equal(hit.allocation.matrix, matrix)

class TestUseErrorPaths:
    """Composition mistakes must fail loudly, not corrupt the pipeline."""

    def test_unknown_before_anchor_raises(self, gateway):
        with pytest.raises(ValueError, match="no pipeline stage matches"):
            gateway.use(_Recorder(), before="no-such-stage")
        # the failed insert left the pipeline untouched
        assert gateway.find("recorder") is None

    def test_unknown_after_anchor_raises(self, gateway):
        with pytest.raises(ValueError, match="no pipeline stage matches"):
            gateway.use(_Recorder(), after="no-such-stage")

    def test_unknown_class_anchor_raises(self, gateway):
        class _Absent(Middleware):
            name = "absent"

            def handle(self, request, next):  # pragma: no cover
                return next(request)

        with pytest.raises(ValueError, match="no pipeline stage matches"):
            gateway.use(_Recorder(), before=_Absent)

    def test_duplicate_instance_insertion_raises(self, gateway):
        recorder = _Recorder()
        gateway.use(recorder)
        with pytest.raises(ValueError, match="already in the pipeline"):
            gateway.use(recorder, before="cache")
        # stages hold per-stage state, so a *second instance* is the
        # documented way to run the same stage class twice
        gateway.use(_Recorder(), before="cache")
        names = [stage.name for stage in gateway.pipeline]
        assert names.count("recorder") == 2

    def test_duplicate_seed_stage_rejected_too(self, gateway):
        cache = gateway.find(CacheMiddleware)
        with pytest.raises(ValueError, match="already in the pipeline"):
            gateway.use(cache, after="solver")

    def test_pipeline_still_solves_after_rejected_insert(
        self, gateway, paper_instance
    ):
        recorder = _Recorder()
        gateway.use(recorder)
        with pytest.raises(ValueError):
            gateway.use(recorder)
        assert gateway.solve(paper_instance, "max-min").ok


class TestCoalesceLeaderRaises:
    def test_followers_released_and_answered_when_leader_raises(
        self, paper_instance
    ):
        """A raising leader must not wedge followers behind its event."""
        entered = threading.Event()
        release = threading.Event()
        boom = RuntimeError("leader exploded")

        class _ExplodingSolver(Middleware):
            name = "exploding"

            def __init__(self):
                self.calls = 0
                self._lock = threading.Lock()

            def handle(self, request, next):
                with self._lock:
                    self.calls += 1
                    first = self.calls == 1
                if first:
                    entered.set()
                    release.wait(10.0)
                    raise boom
                return Response(scheduler=request.scheduler)

        solver = _ExplodingSolver()
        gateway = Gateway([CoalesceMiddleware(), solver])
        request = Request(instance=paper_instance, scheduler="max-min", key="k")
        outcomes: list = []
        lock = threading.Lock()

        def dispatch():
            try:
                response = gateway.dispatch(request)
                with lock:
                    outcomes.append(response)
            except RuntimeError as exc:
                with lock:
                    outcomes.append(exc)

        leader = threading.Thread(target=dispatch)
        leader.start()
        assert entered.wait(5.0)
        followers = [threading.Thread(target=dispatch) for _ in range(3)]
        for thread in followers:
            thread.start()
        _wait_for_parked_follower(gateway.find(CoalesceMiddleware), "k")
        release.set()
        leader.join(timeout=5.0)
        for thread in followers:
            thread.join(timeout=5.0)
        assert not leader.is_alive()
        assert all(not t.is_alive() for t in followers)  # nobody wedged

        errors = [o for o in outcomes if isinstance(o, Exception)]
        answers = [o for o in outcomes if isinstance(o, Response)]
        assert errors == [boom]  # exactly the leader propagated the failure
        # followers re-entered the downstream chain and solved for real
        assert len(answers) == 3
        assert all(response.ok for response in answers)
        assert solver.calls == 4  # leader + 3 independent follower solves
        # the in-flight table is clean: a new request leads immediately
        assert gateway.dispatch(request).ok


class TestRetryAfterHint:
    def test_shed_capacity_carries_positive_hint(self, paper_instance):
        gateway = Gateway(default_pipeline(max_in_flight=0))
        response = gateway.solve(paper_instance, "max-min")
        assert isinstance(response, Overloaded)
        assert response.retry_after_s >= 0.05  # at least the floor

    def test_shed_deadline_carries_hint(self, gateway, paper_instance):
        response = gateway.solve(
            paper_instance, "max-min", deadline=time.monotonic() - 1.0
        )
        assert isinstance(response, Overloaded)
        assert response.retry_after_s > 0

    def test_hint_scales_with_observed_latency(self):
        admission = AdmissionMiddleware(max_in_flight=1, retry_after_floor=0.01)

        class _Sleepy(Middleware):
            name = "sleepy"

            def handle(self, request, next):
                time.sleep(0.05)
                return Response(scheduler=request.scheduler)

        gateway = Gateway([admission, _Sleepy()])
        cold_hint = admission.retry_after_hint()
        assert cold_hint == pytest.approx(0.01)  # floor before any samples
        for _ in range(3):
            gateway.dispatch(Request(instance=None, scheduler="noop"))
        warmed_hint = admission.retry_after_hint()
        assert warmed_hint >= 0.04  # EWMA tracked the ~50ms downstream
        assert admission.stats()["retry_after_hint_s"] == pytest.approx(
            warmed_hint, rel=0.5
        )

    def test_reset_clears_the_ewma(self):
        admission = AdmissionMiddleware(max_in_flight=1, retry_after_floor=0.01)

        class _Sleepy(Middleware):
            name = "sleepy"

            def handle(self, request, next):
                time.sleep(0.05)
                return Response(scheduler=request.scheduler)

        gateway = Gateway([admission, _Sleepy()])
        gateway.dispatch(Request(instance=None, scheduler="noop"))
        assert admission.retry_after_hint() > 0.01  # EWMA has a sample
        admission.reset()
        assert admission.retry_after_hint() == pytest.approx(0.01)  # floor

    def test_validation_rejects_negative_floor(self):
        with pytest.raises(ValueError):
            AdmissionMiddleware(retry_after_floor=-0.1)


class TestAdmissionStats:
    def test_stage_stats_surface_counters(self, paper_instance):
        gateway = Gateway(default_pipeline(max_in_flight=4))
        assert gateway.solve(paper_instance, "max-min").ok
        info = gateway.find(AdmissionMiddleware).stats()
        assert info["admitted"] == 1
        assert info["shed_capacity"] == 0
        assert info["in_flight"] == 0
        assert info["retry_after_hint_s"] > 0

    def test_no_admission_stage_means_no_stats(self):
        assert Gateway(bare_pipeline()).find(AdmissionMiddleware) is None
