"""One declarative field-spec for every schema-tagged JSON record.

The repo keeps its claims — Table-1 audit verdicts, the fleet's
per-round Jain/envy stream, ingested traces — as JSON records carrying
a ``schema`` tag, and accepts JSON request bodies on the wire.
Each shape is described once, as a table of ``field -> check``, and the
rest is derived from it: validation before bytes land on write and per
line on read (:mod:`repro.jsonlio`), and the wire layer's typed 400s
(:mod:`repro.server.protocol`).  Stdlib-only: no ``jsonschema``.

A *check* is a callable that returns silently or raises
:class:`~repro.exceptions.SchemaError` — the one error type — with a
``path`` relative to the value it was handed.  Containers
(:func:`record`, :func:`list_of`) prefix their key or index on the way
out, so a failure deep inside a ledger line surfaces as
``record.rows[3].p95``.  Only cross-field rules ("``error`` iff the
verdict is ``error``") are code, registered beside the table
(:func:`register`).
"""

from __future__ import annotations

from typing import Callable, Collection, Dict, Mapping

from repro.exceptions import SchemaError

Check = Callable[[object], object]


def is_number(value: object) -> bool:
    # bool is an int subclass but "samples: true" is never a count
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _reject(expected: str, value: object) -> None:
    raise SchemaError("", f"expected {expected}, got {value!r}")


def check_at(path: str, check: Check, value: object) -> None:
    """Run ``check`` on ``value``, reporting a failure under ``path``."""
    try:
        check(value)
    except SchemaError as exc:
        tail = exc.path
        dot = "." if path and tail and not tail.startswith("[") else ""
        raise SchemaError(f"{path}{dot}{tail}", exc.message) from None


# -- scalar checks ------------------------------------------------------------
def const(expected: object) -> Check:
    def check(value: object) -> None:
        if value != expected:
            _reject(repr(expected), value)

    return check


def text(value: object) -> None:
    """A non-empty (after stripping) string."""
    if not (isinstance(value, str) and value.strip()):
        _reject("a non-empty string", value)


def instance_of(kind: type, noun: str) -> Check:
    def check(value: object) -> None:
        if not isinstance(value, kind):
            _reject(noun, value)

    return check


def _bounded(accepts, noun: str, ge, gt, le) -> Check:
    bounds = [
        f"{op} {bound}"
        for op, bound in ((">=", ge), (">", gt), ("<=", le))
        if bound is not None
    ]
    expected = " ".join([noun] + bounds)

    def check(value: object) -> None:
        # written as "not (all hold)" so NaN fails every bounded check
        if not (
            accepts(value)
            and (ge is None or value >= ge)
            and (gt is None or value > gt)
            and (le is None or value <= le)
        ):
            _reject(expected, value)

    return check


def number(ge=None, gt=None, le=None) -> Check:
    """An int or float (never a bool) within the given bounds."""
    return _bounded(is_number, "a number", ge, gt, le)


def integer(ge=None) -> Check:
    """An int (never a bool, never ``2.0``), optionally ``>= ge``."""
    return _bounded(is_int, "an integer", ge, None, None)


def choice(*allowed: object) -> Check:
    def check(value: object) -> None:
        if value not in allowed:
            _reject(f"one of {allowed}", value)

    return check


def nullable(inner: Check) -> Check:
    """``null`` (or, inside a record, an absent key) passes; else ``inner``."""

    def check(value: object) -> None:
        if value is not None:
            inner(value)

    return check


# -- containers ---------------------------------------------------------------
def list_of(item: Check, non_empty: bool = False) -> Check:
    def check(value: object) -> None:
        if not isinstance(value, list) or (non_empty and not value):
            _reject("a non-empty list" if non_empty else "a list", value)
        for index, element in enumerate(value):
            check_at(f"[{index}]", item, element)

    return check


def record(
    fields: Mapping[str, Check],
    optional: Collection[str] = (),
    closed: bool = False,
) -> Check:
    """An object whose ``fields`` each pass their check.

    A missing key is checked as ``None`` (so it fails unless its check
    is :func:`nullable`), except the keys named in ``optional``: those
    may be absent but must pass when present.  Keys outside ``fields``
    pass through unless the record is ``closed``.
    """
    items = [(key, check, key not in optional) for key, check in fields.items()]

    def check_record(value: object) -> None:
        if not isinstance(value, Mapping):
            _reject("an object", value)
        if closed and not value.keys() <= fields.keys():
            unknown = sorted(set(value) - set(fields))
            raise SchemaError(
                "",
                f"unknown field(s) {', '.join(unknown)} "
                f"(allowed: {', '.join(sorted(fields))})",
            )
        for key, check, required in items:
            if required or key in value:
                check_at(key, check, value.get(key))

    return check_record


# -- the registry -------------------------------------------------------------
#: schema tag -> validator, filled by :func:`register` at import time
SPECS: Dict[str, Check] = {}


def register(
    tag: str,
    fields: Mapping[str, Check],
    *rules: Callable[[Mapping[str, object]], None],
    optional: Collection[str] = (),
) -> Check:
    """Register the record shape for schema ``tag``; returns its validator.

    The table gains ``"schema": const(tag)``; ``rules`` are the
    cross-field checks, run once every field has passed (so they may
    index the record freely).  The validator returns the record.
    """
    spec = record({"schema": const(tag), **fields}, optional=optional)

    def validate_tagged(value):
        spec(value)
        for rule in rules:
            rule(value)
        return value

    SPECS[tag] = validate_tagged
    return validate_tagged


def validate(tag: str, value):
    """Validate ``value`` against the registered schema ``tag``."""
    return SPECS[tag](value)

