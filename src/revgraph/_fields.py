"""Config field tables: how each field is checked, read from JSON, written back and described.

A table of :class:`_Field` entries is the one statement of each field's type and bounds.
The dataclasses holding the fields run it on construction (:func:`_check_fields`) and
config documents are read through it, so both reject the same values with the same
field-named :class:`ValidationError`.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np


class ValidationError(ValueError):
    """A config field parsed fine but holds an unusable value."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")


def _check_band(f_min_hz, f_max_hz) -> None:
    """The rule every frequency band obeys: 0 < f_min < f_max < inf."""
    if not 0.0 < f_min_hz < f_max_hz < math.inf:
        raise ValueError(f"need 0 < f_min < f_max < inf, got ({f_min_hz}, {f_max_hz})")


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _integer(value) -> int:
    if type(value) is int:  # the common case, without the abstract-class check
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _named(check, value, name: str):
    """``check(value)``; a ValueError it raises names ``name``."""
    try:
        return check(value)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _array(value, shape: str, length: int | None = None) -> list:
    """A nonempty array, of exactly ``length`` entries when given."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if not isinstance(value, (list, tuple)) or not value or (
        length is not None and len(value) != length
    ):
        raise ValueError(f"expected {shape}, got {value!r}")
    return value


def _numbers(value, shape: str, length: int) -> tuple[float, ...]:
    return tuple(_number(v) for v in _array(value, shape, length))


def _pair(value) -> tuple[float, float]:
    low, high = _numbers(value, "[low, high]", 2)
    if not low < high:
        raise ValueError(f"expected low < high, got [{low:g}, {high:g}]")
    return low, high


def _points(value) -> tuple[tuple[float, ...], ...]:
    return tuple(_numbers(p, "[x, y, z]", 3) for p in _array(value, "a list of [x, y, z] points"))


def _instance_of(cls) -> Callable:
    def check(value):
        if not isinstance(value, cls):
            raise ValueError(f"expected a {cls.__name__}, got {value!r}")
        return value

    return check


def _lists(rows) -> list:
    return [list(row) for row in rows]


def _unchanged(value):
    return value


@dataclass(frozen=True)
class _Kind:
    """How one kind of field is checked, read from JSON, written back and described."""

    schema: dict
    check: Callable  # attribute value -> normalised attribute value; raises ValueError
    parse: Callable = _unchanged  # JSON value -> attribute value, before the check
    dump: Callable = _unchanged  # attribute value -> JSON value


def _array_schema(items, length: int | None = None) -> dict:
    if length is None:
        return {"type": "array", "minItems": 1, "items": items}
    return {"type": "array", "minItems": length, "maxItems": length, "items": items}


_INTEGER = _Kind({"type": "integer"}, _integer)
_NUMBER = _Kind({"type": "number"}, _number)
_PAIR = _Kind(_array_schema({"type": "number"}, 2), _pair, dump=list)
_POINTS = _Kind(_array_schema(_array_schema({"type": "number"}, 3)), _points, dump=_lists)

# JSON Schema bound keyword: (test a value must pass, its symbol, its interval bracket)
_BOUND_TESTS = {
    "minimum": (operator.ge, ">=", "["),
    "exclusiveMinimum": (operator.gt, ">", "("),
    "maximum": (operator.le, "<=", "]"),
    "exclusiveMaximum": (operator.lt, "<", ")"),
}


def _check_bounds(value, bounds: dict) -> None:
    if all(_BOUND_TESTS[key][0](value, bound) for key, bound in bounds.items()):
        return
    if len(bounds) == 1:
        ((key, bound),) = bounds.items()
        raise ValueError(f"must be {_BOUND_TESTS[key][1]} {bound:g}")
    raise ValueError(f"not in {_interval(bounds, ',')}")


def _interval(bounds: dict, sep: str = ", ") -> str:
    """A lower and an upper bound as an interval, such as ``(0, 1)``."""
    (low_key, low), (high_key, high) = bounds.items()
    return f"{_BOUND_TESTS[low_key][2]}{low:g}{sep}{high:g}{_BOUND_TESTS[high_key][2]}"


_UNIT_INTERVAL = {"minimum": 0, "maximum": 1}


@dataclass(frozen=True)
class _Field:
    """One config field: document key, kind, target attribute, description and bounds."""

    name: str
    kind: _Kind
    attr: str  # on the dataclass whose table holds the field
    description: str
    bounds: dict = field(default_factory=dict)  # JSON Schema keywords, lower bound first
    nullable: bool = False

    def parse(self, raw):
        """The attribute value a document entry gives."""
        return self.check(raw, self.kind.parse)

    def check(self, value, parse=_unchanged):
        """``parse(value)``, checked and normalised by the kind, then bounded; ValueErrors name this field."""
        if value is None and self.nullable:
            return None
        try:
            value = self.kind.check(parse(value))
            _check_bounds(value, self.bounds)
        except ValueError as exc:  # includes what Box and FrequencyGrid reject
            raise ValidationError(self.name, str(exc)) from exc
        return value

    def dump(self, value):
        return None if value is None else self.kind.dump(value)

    def schema(self, default) -> dict:
        kind = dict(self.kind.schema)
        if self.nullable:
            kind["type"] = [kind["type"], "null"]
        return {"description": self.description, **kind, **self.bounds, "default": default}


def _check_fields(instance, table) -> None:
    """Check every field of ``table`` on a frozen dataclass and store its normalised value."""
    for f in table:
        object.__setattr__(instance, f.attr, f.check(getattr(instance, f.attr)))
