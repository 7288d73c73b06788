"""``repro/audit-v1`` record validation."""

import pytest

from repro.auditor.schema import (
    AUDIT_SCHEMA,
    PROPERTY_KEYS,
    validate_audit_record,
)
from repro.exceptions import SchemaError


def _record(**overrides):
    record = {
        "schema": AUDIT_SCHEMA,
        "created_unix": 1722300000.0,
        "scenario": "steady",
        "scheduler": "oef-coop",
        "fingerprint": "abc123",
        "seed": 7,
        "verdict": "pass",
        "properties": {
            "PE": "yes",
            "EF": "yes",
            "SI": "yes",
            "SP": "no",
            "optimal efficiency": "yes",
        },
        "violations": [],
        "elapsed_s": 0.01,
        "error": None,
    }
    record.update(overrides)
    return record


class TestValidRecords:
    def test_pass_record_validates_unchanged(self):
        record = _record()
        assert validate_audit_record(record) is record

    def test_fail_record_needs_a_violation(self):
        record = _record(verdict="fail", violations=["EF"])
        validate_audit_record(record)

    def test_error_record_carries_message_and_na_marks(self):
        record = _record(
            verdict="error",
            properties={key: "n/a" for key in PROPERTY_KEYS},
            error="RuntimeError: gateway torn down",
        )
        validate_audit_record(record)

    def test_custom_check_names_are_legal_violations(self):
        record = _record(verdict="fail", violations=["min-share-check"])
        validate_audit_record(record)


class TestRejectedRecords:
    @pytest.mark.parametrize(
        "overrides, path",
        [
            ({"schema": "repro/bench-v1"}, "schema"),
            ({"created_unix": "yesterday"}, "created_unix"),
            ({"created_unix": True}, "created_unix"),
            ({"scenario": ""}, "scenario"),
            ({"scheduler": "   "}, "scheduler"),
            ({"fingerprint": None}, "fingerprint"),
            ({"seed": 1.5}, "seed"),
            ({"seed": True}, "seed"),
            ({"verdict": "maybe"}, "verdict"),
            ({"properties": ["PE"]}, "properties"),
            ({"violations": "EF"}, "violations"),
            ({"violations": [""]}, "violations[0]"),
            ({"elapsed_s": -0.1}, "elapsed_s"),
            ({"error": "spurious"}, "error"),
        ],
    )
    def test_bad_field_names_its_path(self, overrides, path):
        with pytest.raises(SchemaError) as excinfo:
            validate_audit_record(_record(**overrides))
        assert excinfo.value.path == path
        assert str(excinfo.value).startswith(f"{path}: ")

    def test_missing_property_mark(self):
        properties = {key: "yes" for key in PROPERTY_KEYS}
        del properties["SP"]
        with pytest.raises(SchemaError) as excinfo:
            validate_audit_record(_record(properties=properties))
        assert excinfo.value.path == "properties.SP"

    def test_unknown_property_key(self):
        properties = dict(_record()["properties"], karma="yes")
        with pytest.raises(SchemaError) as excinfo:
            validate_audit_record(_record(properties=properties))
        assert "karma" in str(excinfo.value)

    def test_bad_property_mark(self):
        properties = dict(_record()["properties"], PE="maybe")
        with pytest.raises(SchemaError) as excinfo:
            validate_audit_record(_record(properties=properties))
        assert excinfo.value.path == "properties.PE"

    def test_fail_verdict_without_violations(self):
        with pytest.raises(SchemaError) as excinfo:
            validate_audit_record(_record(verdict="fail", violations=[]))
        assert excinfo.value.path == "violations"

    def test_error_verdict_without_message(self):
        record = _record(
            verdict="error",
            properties={key: "n/a" for key in PROPERTY_KEYS},
        )
        with pytest.raises(SchemaError) as excinfo:
            validate_audit_record(record)
        assert excinfo.value.path == "error"

    def test_non_mapping_record(self):
        with pytest.raises(SchemaError):
            validate_audit_record(["not", "a", "record"])
