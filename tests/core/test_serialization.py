"""JSON round-trips for instances and allocations."""

import json

import numpy as np
import pytest

from repro.core import (
    CooperativeOEF,
    allocation_from_dict,
    allocation_to_dict,
    instance_from_dict,
    instance_to_dict,
    load_allocation,
    load_instance,
    save_allocation,
    save_instance,
)
from repro.exceptions import ValidationError


class TestInstanceRoundTrip:
    def test_dict_round_trip(self, paper_instance):
        payload = instance_to_dict(paper_instance)
        restored = instance_from_dict(payload)
        np.testing.assert_allclose(
            restored.speedups.values, paper_instance.speedups.values
        )
        np.testing.assert_allclose(restored.capacities, paper_instance.capacities)
        assert restored.speedups.users == paper_instance.speedups.users

    def test_file_round_trip(self, paper_instance, tmp_path):
        path = tmp_path / "instance.json"
        save_instance(paper_instance, path)
        restored = load_instance(path)
        np.testing.assert_allclose(
            restored.speedups.values, paper_instance.speedups.values
        )

    def test_payload_is_json_serialisable(self, paper_instance):
        json.dumps(instance_to_dict(paper_instance))

    def test_wrong_schema_rejected(self, paper_instance):
        payload = instance_to_dict(paper_instance)
        payload["schema"] = "repro/instance-v99"
        with pytest.raises(ValidationError):
            instance_from_dict(payload)

    def test_missing_field_rejected(self, paper_instance):
        payload = instance_to_dict(paper_instance)
        del payload["capacities"]
        with pytest.raises(ValidationError):
            instance_from_dict(payload)

    @pytest.mark.parametrize("field", ["users", "gpu_types"])
    @pytest.mark.parametrize("names", [[1, 2], ["a", None], "ab", {"a": 1}])
    def test_names_must_be_strings(self, paper_instance, field, names):
        payload = instance_to_dict(paper_instance)
        payload[field] = names
        with pytest.raises(ValidationError, match=field):
            instance_from_dict(payload)

    def test_names_stay_optional(self, paper_instance):
        payload = instance_to_dict(paper_instance)
        del payload["users"], payload["gpu_types"]
        assert instance_from_dict(payload).num_users == paper_instance.num_users


class TestAllocationRoundTrip:
    def test_dict_round_trip(self, paper_instance):
        allocation = CooperativeOEF().allocate(paper_instance)
        payload = allocation_to_dict(allocation)
        restored = allocation_from_dict(payload)
        np.testing.assert_allclose(restored.matrix, allocation.matrix)
        assert restored.allocator_name == "oef-coop"
        assert restored.total_efficiency() == pytest.approx(
            allocation.total_efficiency()
        )

    def test_file_round_trip(self, paper_instance, tmp_path):
        allocation = CooperativeOEF().allocate(paper_instance)
        path = tmp_path / "allocation.json"
        save_allocation(allocation, path)
        restored = load_allocation(path)
        np.testing.assert_allclose(restored.matrix, allocation.matrix)

    def test_payload_contains_metrics(self, paper_instance):
        allocation = CooperativeOEF().allocate(paper_instance)
        payload = allocation_to_dict(allocation)
        assert payload["total_efficiency"] == pytest.approx(4.5)
        assert len(payload["user_throughput"]) == 3

    def test_wrong_schema_rejected(self, paper_instance):
        allocation = CooperativeOEF().allocate(paper_instance)
        payload = allocation_to_dict(allocation)
        payload["schema"] = "nope"
        with pytest.raises(ValidationError):
            allocation_from_dict(payload)
