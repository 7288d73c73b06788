"""The fingerprint stream hashes the bytes it always hashed.

A round's ``actual`` bytes are ``repr(sorted(actual.items())).encode()``;
the stream takes each entry's text from a memo instead of formatting it
again, and works out the ``estimated`` dict's bytes and sorted tenants once
per dict.  These tests run the encoder the stream replaced beside it, byte
for byte, on hand-made rounds and on random ones, and check that a distilled
record is what :func:`distill_round` returns on an order built afresh.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.scenarios.runner as runner_module
from repro.cluster.metrics import RoundMetrics
from repro.cluster.simulator import ClusterSimulator
from repro.fleet import FleetSimulator, make_fleet_scenario
from repro.scenarios.runner import _FingerprintStream, distill_round

TOTAL_DEVICES = 24


def _reference_observe(digest, record, round_metrics) -> None:
    """The stream's round encoder before the entry-text memo."""
    digest.update(
        repr(
            (
                record.round_index,
                record.time,
                record.active_tenants,
                record.total_throughput,
                record.utilization,
                record.jain,
                record.envy,
                record.starved_jobs,
            )
        ).encode()
    )
    digest.update(repr(sorted(round_metrics.estimated.items())).encode())
    digest.update(repr(sorted(round_metrics.actual.items())).encode())


def _fresh_order(estimated, weights):
    """The round's active tenants sorted and their weights, built anew."""
    active = sorted(estimated)
    return active, [weights.get(name, 1.0) for name in active]


def _assert_same_bytes(rounds, weights=None) -> _FingerprintStream:
    """Feed ``(estimated, actual)`` rounds to a stream and to the reference;
    the digests must agree after every round."""
    weights = weights or {}
    stream = _FingerprintStream(weights)
    reference = hashlib.sha256()
    with np.errstate(all="ignore"):
        for index, (estimated, actual) in enumerate(rounds):
            metrics = RoundMetrics(index, 300.0 * index, estimated, actual)
            order = stream.active_order(estimated)
            record = distill_round(metrics, order, TOTAL_DEVICES)
            fresh = distill_round(metrics, _fresh_order(estimated, weights), TOTAL_DEVICES)
            assert repr(record) == repr(fresh)  # repr: nan != nan
            stream.observe_round(record, metrics)
            _reference_observe(reference, record, metrics)
            assert stream._digest.hexdigest() == reference.hexdigest(), index
    return stream


class TestEntryTexts:
    def test_signed_zeros_keep_their_own_text(self):
        estimated = {"a": 1.0}
        _assert_same_bytes(
            [(estimated, {"a": 0.0}), (estimated, {"a": -0.0}), (estimated, {"a": 0.0})]
        )

    def test_an_int_equal_to_a_cached_float_is_printed_as_an_int(self):
        estimated = {"a": 1.0, "b": 2.0}
        _assert_same_bytes(
            [
                (estimated, {"a": 1.0, "b": 2.0}),
                (estimated, {"a": 1, "b": True}),
                (estimated, {"a": np.float64(1.0), "b": 2.0}),
                (estimated, {"a": 1.0, "b": 2.0}),
            ]
        )

    def test_nan_and_infinities(self):
        nan = math.nan
        estimated = {"a": 1.0, "b": 1.0}
        _assert_same_bytes(
            [
                (estimated, {"a": nan, "b": math.inf}),
                (estimated, {"a": nan, "b": -math.inf}),
                (estimated, {"a": float("nan"), "b": math.inf}),
            ]
        )

    def test_names_that_need_escaping(self):
        names = ["it's", 'say "hi"', "back\\slash", "tab\there", "new\nline", "ünï"]
        estimated = dict.fromkeys(names, 1.0)
        actual = {name: 0.5 + index for index, name in enumerate(names)}
        _assert_same_bytes([(estimated, actual), (estimated, dict(actual))])

    def test_a_full_memo_starts_over(self, monkeypatch):
        monkeypatch.setattr(runner_module, "ENTRY_TEXT_MEMO_MAX", 8)
        estimated = dict.fromkeys("abcde", 1.0)
        rounds = [
            (estimated, {name: 0.25 * (index % 7 + 1) for name in "abcde"})
            for index in range(20)
        ]
        stream = _assert_same_bytes(rounds)
        assert 0 < len(stream._texts) <= 8

    def test_the_default_bound_holds_past_it(self):
        names = [f"tenant-{index:03d}" for index in range(100)]
        estimated = dict.fromkeys(names, 1.0)
        rounds = [
            (estimated, {name: step + index / 128 for index, name in enumerate(names)})
            for step in range(45)
        ]
        rounds.append(rounds[-1])  # one more round answered from the memo
        stream = _assert_same_bytes(rounds)
        assert 0 < len(stream._texts) <= runner_module.ENTRY_TEXT_MEMO_MAX

    def test_a_new_estimated_dict_is_encoded_afresh(self):
        first = {"a": 1.0, "b": 2.0}
        _assert_same_bytes(
            [
                (first, {"a": 1.0}),
                (first, {"a": 1.0}),
                ({"b": 2.0, "c": 0.5}, {"b": 1.5, "c": 0.5}),
                (first, {"a": 1.0, "b": 2.0}),
            ],
            weights={"a": 2.0, "c": 0.5},
        )


_names = st.sampled_from(["a", "b", "it's", "c\n", "ü"])
_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, 1, 2, True, 0.5]),
    st.integers(-3, 3),
)


class TestRandomRounds:
    @settings(max_examples=60, deadline=None)
    @given(
        rounds=st.lists(
            st.tuples(
                st.booleans(),  # reuse the previous round's estimated dict
                st.dictionaries(_names, st.floats(0.0, 10.0), min_size=1),
                st.dictionaries(_names, _values),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_bytes_equal_the_reference(self, rounds):
        fed = []
        for reuse, estimated, actual in rounds:
            if reuse and fed:
                estimated = fed[-1][0]
            fed.append((estimated, actual))
        _assert_same_bytes(fed, weights={"a": 2.0, "ü": 0.5})


class TestDistilledRecords:
    def test_each_record_is_a_fresh_distill_across_epochs_and_reweights(
        self, monkeypatch
    ):
        seen = {"rounds": 0, "estimated": set(), "reweights": 0}
        distill = runner_module.distill_round
        streams = []  # each replay's weights, as its stream holds them
        stream_init = runner_module._FingerprintStream.__init__

        def recording(stream, weights):
            streams.append(weights)
            stream_init(stream, weights)

        def checked(round_metrics, order, total_devices):
            record = distill(round_metrics, order, total_devices)
            fresh = _fresh_order(round_metrics.estimated, streams[-1])
            assert record == distill(round_metrics, fresh, total_devices)
            seen["rounds"] += 1
            seen["estimated"].add(id(round_metrics.estimated))
            return record

        set_weight = ClusterSimulator.set_tenant_weight

        def counting(simulator, name, weight):
            seen["reweights"] += simulator.tenants[name].weight != float(weight)
            set_weight(simulator, name, weight)

        monkeypatch.setattr(runner_module, "distill_round", checked)
        monkeypatch.setattr(runner_module._FingerprintStream, "__init__", recording)
        monkeypatch.setattr(ClusterSimulator, "set_tenant_weight", counting)
        fleet = make_fleet_scenario("tenant-swarm", seed=2, regions=2, rounds=12)
        FleetSimulator(fleet, backend="serial").run()
        assert seen["rounds"] > 12
        assert len(seen["estimated"]) > 2  # more than one epoch per region
        assert seen["reweights"] > 0  # a QuotaUpdate changed a weight
