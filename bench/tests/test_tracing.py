"""Span arithmetic, parent links, and wrappers that always come off again."""

import types

import pytest

from tracing import Span, Tracer


def _tracer_with(spans):
    tracer = Tracer()
    tracer.spans = [Span(*fields) for fields in spans]
    return tracer


def test_self_time_is_duration_minus_children():
    tracer = _tracer_with(
        [
            ("root", 0.0, 10.0, -1, 1),
            ("a", 1.0, 4.0, 0, 1),
            ("b", 2.0, 3.0, 1, 1),
            ("a", 5.0, 9.0, 0, 1),
        ]
    )
    assert tracer.self_times() == [3.0, 2.0, 1.0, 4.0]
    totals = tracer.totals()
    assert (totals["a"].calls, totals["a"].total, totals["a"].self_time) == (2, 7.0, 6.0)
    # self times of everything under a root add up to the root's duration
    assert sum(layer.self_time for layer in totals.values()) == totals["root"].total


def test_nested_spans_link_to_their_parent_and_share_the_op():
    tracer = Tracer()
    tracer.op = 7
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    with tracer.span("next"):
        pass
    assert [span.parent for span in tracer.spans] == [-1, 0, 0, -1]
    assert {span.op for span in tracer.spans} == {7}
    assert all(span.end >= span.start for span in tracer.spans)
    own = tracer.self_times()
    assert own[0] == pytest.approx(
        tracer.spans[0].duration - tracer.spans[1].duration - tracer.spans[2].duration
    )


def test_wrap_records_a_span_and_observes_counts():
    class Layer:
        def work(self, rows):
            return rows * 2

    tracer = Tracer()
    with tracer.installed([(Layer, "work", "layer.work", lambda args, out: (args[1], out))]):
        assert Layer().work(3) == 6
    assert tracer.data("layer.work") == [(3, 6)]


def test_originals_come_back_even_when_the_wrapped_call_raises():
    class Layer:
        def work(self):
            raise ValueError("boom")

    module = types.ModuleType("layer_module")
    module.helper = lambda: "plain"
    original, helper = Layer.__dict__["work"], module.helper
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.installed(
            [(Layer, "work", "layer.work", None), (module, "helper", "layer.helper", None)]
        ):
            assert module.helper() == "plain"
            assert Layer.__dict__["work"] is not original
            Layer().work()
    assert Layer.__dict__["work"] is original
    assert module.helper is helper
    # the failed call still closed its span
    assert [span.name for span in tracer.spans] == ["layer.helper", "layer.work"]
    assert tracer.spans[-1].end >= tracer.spans[-1].start


def test_a_bad_layer_list_leaves_nothing_patched():
    class Layer:
        def work(self):
            return 1

    class Child(Layer):
        pass

    original = Layer.__dict__["work"]
    with pytest.raises(KeyError):
        # Child inherits work(): patching it there would miss Layer's callers
        with Tracer().installed(
            [(Layer, "work", "layer.work", None), (Child, "work", "child.work", None)]
        ):
            pass
    assert Layer.__dict__["work"] is original


def test_every_declared_layer_resolves_and_restores():
    """The layer table names real, directly-bound public callables."""
    import layers

    groups = [layers.gateway_layers(), layers.simulator_layers(), layers.fleet_layers()]
    everything = layers.allocator_layers() + [layer for group in groups for layer in group]
    before = [vars(owner)[attr] for owner, attr, _name, _observe in everything]
    tracer = Tracer()
    with layers.install(tracer, *groups):
        assert all(
            vars(owner)[attr] is not original
            for (owner, attr, _n, _o), original in zip(everything, before)
        )
    assert [vars(owner)[attr] for owner, attr, _n, _o in everything] == before
    assert not any(attr.startswith("_") and not attr.startswith("__")
                   for _owner, attr, _n, _o in everything)
