"""Unit tests for the pure wire layer: protocol schemas + HTTP/1.1 codec."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.serialization import instance_to_dict
from repro.gateway import Overloaded, Request, instance_fingerprint
from repro.registry import REGISTRY
from repro.server import http11
from repro.server.protocol import (
    MAX_BATCH_ITEMS,
    ProtocolError,
    WIRE_SCHEMA,
    error_payload,
    json_bytes,
    overloaded_payload,
    parse_audit,
    parse_batch,
    parse_compare,
    parse_json,
    parse_solve,
    response_payload,
    retry_after_header,
    served_block,
    split_served,
)


@pytest.fixture
def registry():
    return REGISTRY


@pytest.fixture
def instance_dict(paper_instance):
    return instance_to_dict(paper_instance)


# -- json / error scaffolding -----------------------------------------------
class TestJsonScaffolding:
    def test_json_bytes_is_canonical(self):
        a = json_bytes({"b": 1, "a": {"y": 2, "x": 3}})
        b = json_bytes({"a": {"x": 3, "y": 2}, "b": 1})
        assert a == b
        assert b" " not in a  # compact separators

    def test_parse_json_rejects_empty_and_garbage(self):
        with pytest.raises(ProtocolError) as exc:
            parse_json(b"")
        assert exc.value.status == 400 and exc.value.code == "empty-body"
        with pytest.raises(ProtocolError) as exc:
            parse_json(b"{nope")
        assert exc.value.code == "bad-json"
        with pytest.raises(ProtocolError) as exc:
            parse_json(b"[1, 2]")
        assert exc.value.code == "bad-json"

    def test_error_payload_shape(self):
        payload = error_payload("overloaded", "busy", retry_after_s=0.5)
        assert payload["schema"] == WIRE_SCHEMA
        assert payload["error"]["code"] == "overloaded"
        assert payload["error"]["retry_after_s"] == 0.5

    def test_protocol_error_payload_roundtrip(self):
        exc = ProtocolError(413, "body-too-large", "too big")
        assert exc.payload()["error"]["code"] == "body-too-large"
        assert exc.status == 413


# -- solve parsing ----------------------------------------------------------
class TestParseSolve:
    def test_minimal_body_fills_defaults(self, instance_dict, registry, paper_instance):
        request = parse_solve({"instance": instance_dict}, registry)
        assert isinstance(request, Request)
        assert request.scheduler == registry.resolve("oef-coop")
        assert request.use_cache is True
        assert request.priority == 0
        assert request.deadline is None
        # the fingerprint is precomputed here — it is the shard routing key
        assert request.fingerprint == instance_fingerprint(paper_instance)

    def test_scheduler_alias_resolved(self, instance_dict, registry):
        request = parse_solve(
            {"instance": instance_dict, "scheduler": "coop"}, registry
        )
        assert request.scheduler == "oef-coop"

    def test_unknown_field_rejected_with_allowed_list(self, instance_dict, registry):
        with pytest.raises(ProtocolError) as exc:
            parse_solve(
                {"instance": instance_dict, "sheduler": "oef-coop"}, registry
            )
        assert exc.value.code == "unknown-field"
        assert "sheduler" in exc.value.message
        assert "scheduler" in exc.value.message  # the allowed list names it

    def test_missing_instance(self, registry):
        with pytest.raises(ProtocolError) as exc:
            parse_solve({"scheduler": "oef-coop"}, registry)
        assert exc.value.code == "missing-instance"

    def test_bad_instance_payload(self, registry):
        with pytest.raises(ProtocolError) as exc:
            parse_solve({"instance": {"schema": "bogus"}}, registry)
        assert exc.value.status == 400
        assert exc.value.code == "bad-instance"

    def test_unknown_scheduler(self, instance_dict, registry):
        with pytest.raises(ProtocolError) as exc:
            parse_solve(
                {"instance": instance_dict, "scheduler": "no-such"}, registry
            )
        assert exc.value.code == "unknown-scheduler"

    @pytest.mark.parametrize(
        "field,value,code",
        [
            ("scheduler", 7, "bad-scheduler"),
            ("options", [1], "bad-options"),
            ("priority", "high", "bad-priority"),
            ("priority", True, "bad-priority"),
            ("use_cache", "yes", "bad-use-cache"),
            ("deadline_in", -1, "bad-deadline"),
            ("deadline_in", True, "bad-deadline"),
        ],
    )
    def test_field_type_validation(self, instance_dict, registry, field, value, code):
        with pytest.raises(ProtocolError) as exc:
            parse_solve({"instance": instance_dict, field: value}, registry)
        assert exc.value.code == code

    @pytest.mark.parametrize(
        "scheduler,options",
        [
            ("oef-coop", {"nope": 1}),  # TypeError in the constructor
            ("oef-coop", {"method": "bogus"}),  # ValueError
            ("oef-noncoop", {"backend": "simplex"}),  # an option that left in 3.0
        ],
        ids=["unknown-option", "bad-value", "removed-option"],
    )
    def test_options_the_scheduler_refuses_are_a_typed_400(
        self, instance_dict, registry, scheduler, options
    ):
        body = {"instance": instance_dict, "scheduler": scheduler, "options": options}
        with pytest.raises(ProtocolError) as exc:
            parse_solve(body, registry)
        assert (exc.value.status, exc.value.code) == (400, "bad-options")
        # one bad member refuses the whole batch before anything streams
        with pytest.raises(ProtocolError) as exc:
            parse_batch({"requests": [{"instance": instance_dict}, body]}, registry)
        assert (exc.value.status, exc.value.code) == (400, "bad-options")
        assert "requests[1]" in exc.value.message

    def test_deadline_in_becomes_absolute(self, instance_dict, registry):
        request = parse_solve(
            {"instance": instance_dict, "deadline_in": 30}, registry
        )
        import time

        assert request.deadline is not None
        assert request.deadline > time.monotonic()


# -- batch / audit / compare parsing ---------------------------------------
class TestParseOthers:
    def test_batch_preserves_order(self, instance_dict, registry):
        payload = {"requests": [{"instance": instance_dict}] * 3}
        requests = parse_batch(payload, registry)
        assert len(requests) == 3
        assert all(isinstance(r, Request) for r in requests)

    def test_batch_rejects_empty_and_non_list(self, registry):
        for bad in ({"requests": []}, {"requests": "x"}, {}):
            with pytest.raises(ProtocolError) as exc:
                parse_batch(bad, registry)
            assert exc.value.code == "bad-batch"

    def test_batch_item_error_names_the_index(self, instance_dict, registry):
        payload = {"requests": [{"instance": instance_dict}, {"bogus": 1}]}
        with pytest.raises(ProtocolError) as exc:
            parse_batch(payload, registry)
        assert "requests[1]" in exc.value.message

    def test_batch_too_large_is_413(self, instance_dict, registry):
        payload = {"requests": [{"instance": instance_dict}] * (MAX_BATCH_ITEMS + 1)}
        with pytest.raises(ProtocolError) as exc:
            parse_batch(payload, registry)
        assert exc.value.status == 413

    def test_audit_defaults_and_validation(self, instance_dict, registry):
        instance, scheduler, sp_trials, seed = parse_audit(
            {"instance": instance_dict}, registry
        )
        assert scheduler == registry.resolve("oef-coop")
        assert (sp_trials, seed) == (4, 0)
        with pytest.raises(ProtocolError) as exc:
            parse_audit({"instance": instance_dict, "sp_trials": -1}, registry)
        assert exc.value.code == "bad-sp-trials"

    def test_compare_names_resolved_or_none(self, instance_dict, registry):
        instance, names = parse_compare({"instance": instance_dict}, registry)
        assert names is None
        instance, names = parse_compare(
            {"instance": instance_dict, "schedulers": ["oef-coop"]}, registry
        )
        assert names == [registry.resolve("oef-coop")]
        with pytest.raises(ProtocolError):
            parse_compare(
                {"instance": instance_dict, "schedulers": "oef-coop"}, registry
            )


    @pytest.mark.parametrize(
        "parse, body, status, code",
        [
            (parse_audit, {}, 400, "missing-instance"),
            (parse_audit, {"instance": []}, 400, "missing-instance"),
            (parse_audit, {"instance": {}}, 400, "bad-instance"),
            (parse_audit, {"scheduler": 7}, 400, "bad-scheduler"),
            (parse_audit, {"scheduler": "no-such"}, 400, "unknown-scheduler"),
            (parse_audit, {"sp_trials": "4"}, 400, "bad-sp-trials"),
            (parse_audit, {"sp_trials": 2.0}, 400, "bad-sp-trials"),
            (parse_audit, {"sp_trials": True}, 400, "bad-sp-trials"),
            (parse_audit, {"seed": -1}, 400, "bad-seed"),
            (parse_audit, {"seed": "0"}, 400, "bad-seed"),
            (parse_audit, {"sp_trial": 4}, 400, "unknown-field"),
            (parse_compare, {}, 400, "missing-instance"),
            (parse_compare, {"schedulers": "oef-coop"}, 400, "bad-schedulers"),
            (parse_compare, {"schedulers": [7]}, 400, "bad-schedulers"),
            (parse_compare, {"schedulers": ["no-such"]}, 400, "unknown-scheduler"),
            (parse_compare, {"scheduler": ["oef-coop"]}, 400, "unknown-field"),
            (parse_solve, {}, 400, "missing-instance"),
            (parse_solve, {"instance": "paper"}, 400, "missing-instance"),
            (parse_solve, {"instance": {}}, 400, "bad-instance"),
            (parse_solve, {"options": None}, 400, "bad-options"),
            (parse_solve, {"priority": 1.5}, 400, "bad-priority"),
            (parse_solve, {"deadline_in": "soon"}, 400, "bad-deadline"),
            (parse_solve, {"use_cache": 1}, 400, "bad-use-cache"),
            (parse_batch, {"requests": {}}, 400, "bad-batch"),
            (parse_batch, {"requests": [1]}, 400, "bad-batch"),
            (parse_batch, {"requests": None}, 400, "bad-batch"),
            (parse_batch, {"request": []}, 400, "unknown-field"),
        ],
        ids=lambda value: getattr(value, "__name__", None),
    )
    def test_bad_body_is_a_typed_error(
        self, instance_dict, registry, parse, body, status, code
    ):
        # ``{}`` stays empty; any other non-batch body gets the paper
        # instance unless it names its own
        if parse is not parse_batch and body and "instance" not in body:
            body = {"instance": instance_dict, **body}
        with pytest.raises(ProtocolError) as exc:
            parse(body, registry)
        assert (exc.value.status, exc.value.code) == (status, code)
        assert exc.value.payload() == error_payload(code, exc.value.message)


# -- overload serialisation -------------------------------------------------
class TestOverloadWire:
    def test_overloaded_payload_carries_hint(self):
        shed = Overloaded(
            scheduler="oef-coop",
            disposition="shed-capacity",
            reason="4 requests already in flight",
            retry_after_s=0.75,
        )
        payload = overloaded_payload(shed)
        assert payload["error"]["code"] == "overloaded"
        assert payload["error"]["retry_after_s"] == 0.75
        assert payload["error"]["disposition"] == "shed-capacity"

    @pytest.mark.parametrize(
        "hint,header", [(0.0, "1"), (0.2, "1"), (1.0, "1"), (1.2, "2"), (7.0, "7")]
    )
    def test_retry_after_header_is_integer_ceiling(self, hint, header):
        shed = Overloaded(scheduler="s", retry_after_s=hint)
        assert retry_after_header(shed) == header


# -- the body cut around ``served`` -----------------------------------------
class TestSplitServed:
    def test_any_served_block_splices_to_the_canonical_body(self, paper_instance):
        from repro.gateway import Gateway

        gateway = Gateway()
        cold = gateway.solve(Request(instance=paper_instance))
        hit = gateway.solve(Request(instance=paper_instance))
        payload = response_payload(hit)
        assert payload["served"] == served_block(hit)
        prefix, suffix = split_served(payload, json_bytes(payload))
        assert prefix.endswith(b'"schema":"repro/serve-v1","served":')
        assert suffix == b',"status":"ok"}'
        # the same entry answered ``cold``'s instance: only ``served`` differs
        assert prefix + json_bytes(served_block(cold)) + suffix == json_bytes(
            response_payload(cold)
        )

    @pytest.mark.parametrize(
        "payload",
        [
            {"a": '"served":{', "served": {"n": 1}, "z": [1, {"served": 2}]},
            {"z": "\u00e9", "t": None, "served": 1.5, "a": 0, "A": {"served": 3}},
        ],
    )
    def test_split_is_by_structure_not_by_search(self, payload):
        prefix, suffix = split_served(payload, json_bytes(payload))
        for served in (payload["served"], {"other": [1, 2]}, "text"):
            assert prefix + json_bytes(served) + suffix == json_bytes(
                {**payload, "served": served}
            )

    def test_what_does_not_reassemble_is_refused(self):
        payload = {"a": 1, "served": {"n": 1}, "z": 2}
        assert split_served(payload, json_bytes(payload)) is not None
        assert split_served(payload, json_bytes(payload) + b" ") is None
        assert split_served(payload, json_bytes({**payload, "a": 2})) is None
        # ``served`` first or last is not the wire shape: refused, not mis-cut
        for lopsided in ({"a": 1, "served": 2}, {"served": 2, "z": 1}, {"served": 2}):
            assert split_served(lopsided, json_bytes(lopsided)) is None


# -- http/1.1 codec ---------------------------------------------------------
def _parse_request(data: bytes, **kwargs):
    """Run the request parser over a pre-fed stream in a fresh loop."""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await http11.read_request(reader, **kwargs)

    return asyncio.run(go())


def _parse_response(data: bytes):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await http11.read_response(reader)

    return asyncio.run(go())


class TestHttp11:
    def test_parse_simple_post(self):
        wire = (
            b"POST /solve?x=1 HTTP/1.1\r\nHost: h\r\n"
            b"Content-Length: 2\r\n\r\n{}"
        )
        request = _parse_request(wire)
        assert request.method == "POST"
        assert request.path == "/solve"
        assert request.query == {"x": "1"}
        assert request.body == b"{}"
        assert not request.wants_close

    def test_clean_eof_returns_none(self):
        assert _parse_request(b"") is None

    @pytest.mark.parametrize(
        "wire,status",
        [
            (b"BROKEN\r\n\r\n", 400),
            (b"GET / HTTP/9.9\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n", 400),
            (b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 400),
            (b"POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
            (b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501),
            (b"GET / HTTP/1.1\r\nHost: h", 400),
            (b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}", 400),
            (b"GET  / HTTP/1.1\r\n\r\n", 400),
        ],
    )
    def test_malformed_inputs_map_to_typed_errors(self, wire, status):
        with pytest.raises(ProtocolError) as exc:
            _parse_request(wire)
        assert exc.value.status == status

    @pytest.mark.parametrize(
        "wire, attribute, expected",
        [
            (b"get /x HTTP/1.1\r\n\r\n", "method", "GET"),
            (b"GET /x HTTP/1.0\r\n\r\n", "path", "/x"),
            (b"GET ?a=1 HTTP/1.1\r\n\r\n", "path", "/"),
            (b"GET /x?a=1&a=2&b=3 HTTP/1.1\r\n\r\n", "query", {"a": "2", "b": "3"}),
            (b"GET / HTTP/1.1\r\nX-Thing:  v  \r\n\r\n", "headers", {"x-thing": "v"}),
            (b"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n", "wants_close", True),
            (b"GET / HTTP/1.1\r\nConnection: keep-alive\r\n\r\n", "wants_close", False),
            (b"POST / HTTP/1.1\r\nContent-Length: 0\r\n\r\n", "body", b""),
        ],
        ids=[
            "method-upper-cased", "http-1.0", "empty-path", "last-query-value-wins",
            "header-names-folded", "connection-close", "keep-alive", "empty-body",
        ],
    )
    def test_request_head_is_normalised(self, wire, attribute, expected):
        assert getattr(_parse_request(wire), attribute) == expected

    def test_oversized_body_is_413(self):
        wire = b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n" + b"x" * 100
        with pytest.raises(ProtocolError) as exc:
            _parse_request(wire, max_body=10)
        assert exc.value.status == 413

    def test_response_roundtrip(self):
        body = json_bytes({"ok": True})
        wire = http11.response_bytes(200, body, headers={"Retry-After": "3"})
        status, headers, parsed = _parse_response(wire)
        assert status == 200
        assert headers["retry-after"] == "3"
        assert parsed == body

    def test_chunked_roundtrip(self):
        wire = (
            http11.chunked_head(200)
            + http11.chunk(b'{"a":1}\n')
            + http11.chunk(b'{"b":2}\n')
            + http11.last_chunk()
        )
        status, headers, body = _parse_response(wire)
        assert status == 200
        assert headers["transfer-encoding"] == "chunked"
        lines = [json.loads(line) for line in body.splitlines()]
        assert lines == [{"a": 1}, {"b": 2}]
