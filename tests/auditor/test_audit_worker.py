"""The asynchronous audit worker: classification and failure isolation.

The fault-injection wall: a check that raises, hangs past its deadline,
or touches a torn-down gateway must become an ``error`` verdict in the
ledger and never an exception anywhere else; a full queue drops, a
broken ledger write is counted, and drain/stop always flush in-flight
audits.
"""

import threading
import time

import pytest

from repro.auditor.ledger import AuditLedger
from repro.auditor.schema import PROPERTY_KEYS
from repro.auditor.worker import (
    EXPECTED_PROPERTIES,
    SEEN_KEYS_BOUND,
    AuditWorker,
    classify_marks,
)
from repro.core import ProblemInstance, SpeedupMatrix


@pytest.fixture
def instance():
    return ProblemInstance(SpeedupMatrix([[1, 2], [1, 3], [1, 4]]), [1.0, 1.0])


def _marks(**overrides):
    marks = {key: "yes" for key in PROPERTY_KEYS}
    marks.update(overrides)
    return marks


class _StubReport:
    def __init__(self, marks):
        self._marks = marks

    def as_row(self):
        return {"scheduler": "stub", **self._marks}


def _stub_worker(marks=None, **kwargs):
    """A worker whose audit body is a canned report (fast, deterministic)."""
    marks = _marks() if marks is None else marks
    kwargs.setdefault("audit_fn", lambda instance, scheduler: _StubReport(marks))
    return AuditWorker(None, **kwargs)


class TestClassifyMarks:
    def test_all_expected_held_is_a_pass(self):
        verdict, violations = classify_marks("oef-coop", _marks(SP="no"))
        assert verdict == "pass"  # oef-coop never promised SP
        assert violations == []

    def test_expected_property_marked_no_is_a_fail(self):
        verdict, violations = classify_marks("oef-coop", _marks(EF="no"))
        assert verdict == "fail"
        assert violations == ["EF"]

    def test_unknown_scheduler_is_held_to_everything(self):
        marks = _marks(EF="no", SI="no")
        verdict, violations = classify_marks("unfair-grab", marks)
        assert verdict == "fail"
        assert violations == ["EF", "SI"]

    def test_na_marks_never_violate(self):
        verdict, violations = classify_marks(
            "oef-noncoop", _marks(SP="n/a")
        )
        assert verdict == "pass"
        assert violations == []

    def test_custom_expected_table(self):
        table = {"gavel": ("PE",)}
        verdict, violations = classify_marks(
            "gavel", _marks(PE="no", SI="no"), expected=table
        )
        assert (verdict, violations) == ("fail", ["PE"])

    def test_every_expected_table_entry_uses_known_keys(self):
        for scheduler, promised in EXPECTED_PROPERTIES.items():
            assert set(promised) <= set(PROPERTY_KEYS), scheduler


class TestVerdicts:
    def test_pass_record(self, instance):
        worker = _stub_worker(marks=_marks(SP="no"))
        assert worker.submit(instance, "oef-coop", "fp-1")
        assert worker.stop()
        (record,) = worker.records()
        assert record["verdict"] == "pass"
        assert record["scheduler"] == "oef-coop"
        assert record["violations"] == []
        assert record["error"] is None if "error" in record else True
        assert worker.stats()["passed"] == 1

    def test_fail_record_names_expected_violations(self, instance):
        worker = _stub_worker(marks=_marks(EF="no", SP="no"))
        worker.submit(instance, "oef-coop", "fp-1")
        worker.stop()
        (record,) = worker.records()
        assert record["verdict"] == "fail"
        assert record["violations"] == ["EF"]
        assert worker.stats()["failed"] == 1

    def test_custom_check_failure_is_a_violation(self, instance):
        worker = _stub_worker(marks=_marks(SP="no"))
        worker.add_check("min-share", lambda allocator, inst: False)
        worker.submit(instance, "oef-coop", "fp-1")
        worker.stop()
        (record,) = worker.records()
        assert record["verdict"] == "fail"
        assert "min-share" in record["violations"]

    def test_custom_check_pass_changes_nothing(self, instance):
        worker = _stub_worker(marks=_marks(SP="no"))
        worker.add_check("min-share", lambda allocator, inst: True)
        worker.submit(instance, "oef-coop", "fp-1")
        worker.stop()
        assert worker.records()[0]["verdict"] == "pass"


class TestFaultInjection:
    def test_raising_audit_becomes_error_verdict(self, instance):
        def boom(inst, scheduler):
            raise RuntimeError("synthetic audit crash")

        worker = AuditWorker(None, audit_fn=boom)
        worker.submit(instance, "oef-coop", "fp-1")
        assert worker.stop()  # no exception escapes the worker thread
        (record,) = worker.records()
        assert record["verdict"] == "error"
        assert "synthetic audit crash" in record["error"]
        assert record["properties"] == {key: "n/a" for key in PROPERTY_KEYS}
        assert worker.stats()["errors"] == 1

    def test_hang_past_deadline_becomes_error_verdict(self, instance):
        release = threading.Event()

        def hang(inst, scheduler):
            release.wait(10.0)
            return _StubReport(_marks())

        worker = AuditWorker(None, audit_fn=hang, deadline_s=0.05)
        worker.submit(instance, "oef-coop", "fp-1")
        try:
            assert worker.stop(timeout=5.0)
            (record,) = worker.records()
            assert record["verdict"] == "error"
            assert "TimeoutError" in record["error"]
        finally:
            release.set()  # unblock the abandoned daemon thread

    def test_torn_down_gateway_becomes_error_verdict(self, instance):
        from repro.gateway import Gateway, default_pipeline

        gateway = Gateway(default_pipeline())

        def audits_via_gateway(inst, scheduler):
            response = gateway.solve(inst, scheduler)
            return _StubReport(_marks(PE="yes" if response.ok else "no"))

        worker = AuditWorker(None, audit_fn=audits_via_gateway)
        # tear the gateway down before the audit runs
        gateway.solve = None
        worker.submit(instance, "oef-coop", "fp-1")
        worker.stop()
        (record,) = worker.records()
        assert record["verdict"] == "error"
        assert "TypeError" in record["error"]

    def test_raising_custom_check_becomes_error_verdict(self, instance):
        worker = _stub_worker()
        worker.add_check(
            "broken", lambda allocator, inst: (_ for _ in ()).throw(ValueError("x"))
        )
        worker.submit(instance, "oef-coop", "fp-1")
        worker.stop()
        assert worker.records()[0]["verdict"] == "error"

    def test_unknown_scheduler_becomes_error_verdict(self, instance):
        worker = _stub_worker()
        worker.submit(instance, "no-such-scheduler", "fp-1")
        worker.stop()
        (record,) = worker.records()
        assert record["verdict"] == "error"

    def test_broken_ledger_write_is_counted_not_raised(self, instance, tmp_path):
        class _BrokenLedger(AuditLedger):
            def append(self, record):
                raise OSError("disk full")

        worker = AuditWorker(
            _BrokenLedger(str(tmp_path)),
            audit_fn=lambda inst, scheduler: _StubReport(_marks(SP="no")),
        )
        worker.submit(instance, "oef-coop", "fp-1")
        worker.stop()
        assert worker.stats()["ledger_errors"] == 1
        assert len(worker.records()) == 1  # kept in memory regardless


class TestQueueDiscipline:
    def test_duplicates_are_counted_not_requeued(self, instance):
        worker = _stub_worker(marks=_marks(SP="no"))
        assert worker.submit(instance, "oef-coop", "fp-1")
        assert not worker.submit(instance, "oef-coop", "fp-1")
        assert worker.submit(instance, "gavel", "fp-1")  # scheduler is keyed
        worker.stop()
        stats = worker.stats()
        assert stats["duplicates"] == 1
        assert stats["audited"] == 2

    def test_seen_keys_stay_bounded(self, instance):
        # a long run samples ever new keys; the dedup set is cleared when
        # full, as the middleware's settled-key set is
        keys = SEEN_KEYS_BOUND + 10
        worker = _stub_worker(max_queue=keys)
        try:
            for index in range(keys):
                assert worker.submit(instance, "oef-coop", f"fp-{index}")
                assert len(worker._seen) <= SEEN_KEYS_BOUND
        finally:
            worker.stop()
        assert worker.stats()["audited"] == keys

    def test_full_queue_drops_instead_of_blocking(self, instance):
        gate = threading.Event()

        def slow(inst, scheduler):
            gate.wait(10.0)
            return _StubReport(_marks(SP="no"))

        worker = AuditWorker(None, audit_fn=slow, max_queue=1)
        try:
            worker.submit(instance, "oef-coop", "fp-busy")  # being audited
            time.sleep(0.05)  # let the thread dequeue it
            worker.submit(instance, "oef-coop", "fp-queued")
            start = time.perf_counter()
            admitted = worker.submit(instance, "oef-coop", "fp-dropped")
            elapsed = time.perf_counter() - start
            assert not admitted
            assert elapsed < 0.5  # never blocked on the full queue
            assert worker.stats()["dropped"] == 1
        finally:
            gate.set()
            assert worker.stop(timeout=5.0)
        # a dropped key is forgotten, so it can be resubmitted later
        follow_up = _stub_worker()
        assert follow_up.submit(instance, "oef-coop", "fp-dropped")
        follow_up.stop()

    def test_submit_after_stop_is_dropped(self, instance):
        worker = _stub_worker()
        worker.stop()
        assert not worker.submit(instance, "oef-coop", "fp-1")
        assert worker.stats()["dropped"] == 1

    def test_stop_is_idempotent(self, instance):
        worker = _stub_worker()
        worker.submit(instance, "oef-coop", "fp-1")
        assert worker.stop()
        assert worker.stop()

    def test_records_are_copies(self, instance):
        worker = _stub_worker(marks=_marks(SP="no"))
        worker.submit(instance, "oef-coop", "fp-1")
        worker.stop()
        worker.records()[0]["verdict"] = "tampered"
        assert worker.records()[0]["verdict"] == "pass"


class TestLedgerIntegration:
    def test_records_land_in_the_scenario_stream(self, instance, tmp_path):
        ledger = AuditLedger(str(tmp_path))
        worker = AuditWorker(
            ledger,
            scenario="steady",
            audit_fn=lambda inst, scheduler: _StubReport(_marks(SP="no")),
        )
        worker.submit(instance, "oef-coop", "fp-1")
        worker.stop()
        (record,) = ledger.records("steady")
        assert record["scheduler"] == "oef-coop"
        assert record["verdict"] == "pass"
        assert record["seed"] == worker.seed

    def test_real_audit_round_trip(self, instance, tmp_path):
        """No stubs: the full property suite through worker + ledger."""
        ledger = AuditLedger(str(tmp_path))
        worker = AuditWorker(ledger, scenario="live", sp_trials=1)
        worker.submit(instance, "oef-coop", "fp-real")
        assert worker.stop(timeout=30.0)
        (record,) = ledger.records("live")
        assert record["verdict"] == "pass"
        assert record["properties"]["PE"] == "yes"
        assert record["properties"]["EF"] == "yes"
        assert record["elapsed_s"] > 0


class TestSyncAsyncParity:
    """``Gateway.audit`` and the continuous auditor share one audit policy."""

    def test_gateway_audit_equals_worker_parameters_for_every_scheduler(self):
        from repro.core import audit_allocator
        from repro.gateway import Gateway
        from repro.registry import REGISTRY
        from repro.workloads.generator import random_instance

        # seed 0: Gandiva_fair's greedy trades leave a PE residual between
        # 1e-5 and its registered 0.02, so a second tolerance would show
        drifted = random_instance(6, 3, seed=0, devices_per_type=4.0)
        worker = AuditWorker(sp_trials=1)
        try:
            for scheduler in REGISTRY.names():
                parameters = worker.audit_parameters(scheduler)
                direct = audit_allocator(
                    REGISTRY.create(scheduler), drifted, **parameters
                )
                served = Gateway().audit(
                    drifted, scheduler, sp_trials=1, seed=worker.seed
                )
                assert served.as_row() == direct.as_row(), scheduler
        finally:
            worker.stop()

    def test_gandiva_tolerance_is_registered_once(self):
        from repro.registry import scheduler_info

        assert scheduler_info("gandiva-fair").pe_tolerance == 0.02
        assert scheduler_info("oef-coop").pe_tolerance == 1e-5
