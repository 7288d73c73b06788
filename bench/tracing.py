"""Spans recorded from the benchmark's side of each layer boundary.

No file under ``src/`` knows about tracing: a :class:`Tracer` swaps a
layer's *public* callable (a class attribute, or the module namespace that
binds a function) for a wrapper that records one span per call, and puts
the original back afterwards.  Spans stay in memory — name, start, end,
parent, and the id of the operation (request, round, repeat) they belong
to — and are reduced or written out only after the timed section.

A layer's **self time** is its spans' duration minus the part their child
spans cover.  Spans nest strictly (one thread, or one stack per thread), so
self times of all spans under a root add up to the root's duration exactly;
the root's own self time is what no wrapped layer accounts for.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: ``(owner, attribute, span name, observe)``: wrap ``owner.attribute``;
#: ``observe(args, result)``, when given, returns the span's ``data``.
Layer = Tuple[object, str, str, Optional[Callable]]


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: index of the enclosing span in ``Tracer.spans``, -1 for a root
    parent: int
    #: operation id shared by every span of one request / round / repeat
    op: int
    #: counts observed at the boundary (rows added, LP size, ...)
    data: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class LayerTotals:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op = 0
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._local.__dict__.setdefault("stack", [])
        span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op)
        stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    # -- wrapping public callables ------------------------------------------
    def replace(self, owner: object, attr: str, make: Callable) -> None:
        """Swap ``owner.attr`` for ``make(original)`` until :meth:`restore`.

        ``attr`` must be bound by ``owner`` itself (a class that defines the
        method, the module that imported the function): patching an
        inherited name would leave the real call site untouched.
        """
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        observe: Optional[Callable] = None,
    ) -> None:
        def make(original: Callable) -> Callable:
            @functools.wraps(original)
            def traced(*args, **kwargs):
                with self.span(name) as span:
                    result = original(*args, **kwargs)
                    if observe is not None:
                        span.data = observe(args, result)
                    return result

            return traced

        self.replace(owner, attr, make)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, layers: Iterable[Layer]) -> Iterator["Tracer"]:
        """Wrap every layer, and put every original back whatever happens."""
        try:
            for owner, attr, name, observe in layers:
                self.wrap(owner, attr, name, observe)
            yield self
        finally:
            self.restore()

    # -- reduction ---------------------------------------------------------
    def self_times(self) -> List[float]:
        """Self time of each span, in ``spans`` order."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.duration
        return own

    def totals(self) -> Dict[str, LayerTotals]:
        """Calls, inclusive time and self time per span name."""
        layers: Dict[str, LayerTotals] = {}
        for span, own in zip(self.spans, self.self_times()):
            layer = layers.setdefault(span.name, LayerTotals())
            layer.calls += 1
            layer.total += span.duration
            layer.self_time += own
        return layers

    def data(self, name: str) -> List[object]:
        return [span.data for span in self.spans if span.name == name]

    def write(self, path: str) -> None:
        """One JSON line per span, offsets relative to the first span."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span.name,
                            "start_us": round(1e6 * (span.start - origin), 3),
                            "end_us": round(1e6 * (span.end - origin), 3),
                            "parent": span.parent,
                            "op": span.op,
                        }
                    )
                    + "\n"
                )
