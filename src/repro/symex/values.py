"""Symbolic value/expression model.

The symbolic executor labels data whose values are not dependent on
other data as *symbolic inputs* (paper §V-B): device references, device
attribute values, device events, user inputs, HTTP responses, constants
and modeled API return values.  All expressions built over them are
represented by the immutable tree types below; rule conditions are
quantifier-free first-order formulas over this language.

Every node serializes to and from plain JSON (a tagged-union encoding)
so rules can be stored on the HomeGuard backend (~6 KB per app, paper
§VIII-C) and shipped to the companion app.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

_COMPARISONS = {"==", "!=", "<", "<=", ">", ">="}
_LOGICAL = {"&&", "||"}


@dataclass(frozen=True, slots=True)
class SymExpr:
    """Base class for symbolic expressions."""

    def children(self) -> tuple["SymExpr", ...]:
        return ()

    def walk(self):
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass(frozen=True, slots=True)
class Const(SymExpr):
    """A literal constant (int, float, str, bool or None)."""

    value: Any

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True, slots=True)
class DeviceRef(SymExpr):
    """A device reference bound through an ``input`` declaration.

    ``name`` is the in-app variable name; ``capability`` the requested
    capability string; ``multiple`` marks list-valued inputs.
    """

    name: str
    capability: str
    multiple: bool = False

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class DeviceAttr(SymExpr):
    """The current value of a device attribute (``#DevState`` in the
    paper's Table II)."""

    device: DeviceRef
    attribute: str

    def children(self) -> tuple[SymExpr, ...]:
        return (self.device,)

    def __str__(self) -> str:
        return f"{self.device.name}.{self.attribute}"


@dataclass(frozen=True, slots=True)
class UserInput(SymExpr):
    """A non-device user input (number, enum, text, time, ...)."""

    name: str
    input_type: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class LocalVar(SymExpr):
    """A local variable occurrence inside a predicate.

    Predicates keep the paper's named form (``t > threshold1``); the
    accompanying data constraints record each version's definition, and
    the constraint builder reconnects them via equality.  ``version``
    disambiguates reassignments along a path (SSA-style).
    """

    name: str
    version: int = 0

    @property
    def display_name(self) -> str:
        return self.name

    @property
    def key(self) -> str:
        if self.version == 0:
            return self.name
        return f"{self.name}#{self.version}"

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class EventValue(SymExpr):
    """The value carried by the triggering event."""

    def __str__(self) -> str:
        return "evt.value"


@dataclass(frozen=True, slots=True)
class EventAttr(SymExpr):
    """A non-value event property (``evt.name``, ``evt.displayName``)."""

    attribute: str

    def __str__(self) -> str:
        return f"evt.{self.attribute}"


@dataclass(frozen=True, slots=True)
class StateVal(SymExpr):
    """A ``state``/``atomicState`` slot shared across executions."""

    name: str

    def __str__(self) -> str:
        return f"state.{self.name}"


@dataclass(frozen=True, slots=True)
class LocationAttr(SymExpr):
    """A platform location property (``location.mode`` etc.)."""

    attribute: str

    def __str__(self) -> str:
        return f"location.{self.attribute}"


@dataclass(frozen=True, slots=True)
class TimeVal(SymExpr):
    """A time-dependent symbolic input (``now()``, sunrise, sunset...)."""

    kind: str

    def __str__(self) -> str:
        return f"time.{self.kind}"


@dataclass(frozen=True, slots=True)
class CallExpr(SymExpr):
    """An uninterpreted function application.

    Used for modeled APIs whose return values are fresh symbolic inputs
    (HTTP responses, random numbers, unmodeled helpers).
    """

    function: str
    args: tuple[SymExpr, ...] = ()

    def children(self) -> tuple[SymExpr, ...]:
        return self.args

    def __str__(self) -> str:
        rendered = ", ".join(str(arg) for arg in self.args)
        return f"{self.function}({rendered})"


@dataclass(frozen=True, slots=True)
class BinExpr(SymExpr):
    """A binary operation: comparison, arithmetic or logical."""

    op: str
    left: SymExpr
    right: SymExpr

    def children(self) -> tuple[SymExpr, ...]:
        return (self.left, self.right)

    @property
    def is_comparison(self) -> bool:
        return self.op in _COMPARISONS

    @property
    def is_logical(self) -> bool:
        return self.op in _LOGICAL

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True, slots=True)
class NotExpr(SymExpr):
    """Logical negation."""

    operand: SymExpr

    def children(self) -> tuple[SymExpr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"!({self.operand})"


@dataclass(frozen=True, slots=True)
class ListVal(SymExpr):
    """A (possibly symbolic) list value."""

    items: tuple[SymExpr, ...] = ()

    def children(self) -> tuple[SymExpr, ...]:
        return self.items

    def __str__(self) -> str:
        return "[" + ", ".join(str(item) for item in self.items) + "]"


@dataclass(frozen=True, slots=True)
class Concat(SymExpr):
    """String concatenation / GString assembly."""

    parts: tuple[SymExpr, ...] = ()

    def children(self) -> tuple[SymExpr, ...]:
        return self.parts

    def __str__(self) -> str:
        return "+".join(str(part) for part in self.parts)


# ----------------------------------------------------------------------
# Convenience constructors and helpers


def conjoin(terms: list[SymExpr]) -> SymExpr | None:
    """AND together a list of formulas (None for the empty list)."""
    result: SymExpr | None = None
    for term in terms:
        result = term if result is None else BinExpr("&&", result, term)
    return result


def negate(expr: SymExpr) -> SymExpr:
    """Logical negation with double-negation elimination and comparison
    flipping, keeping path conditions small."""
    if isinstance(expr, NotExpr):
        return expr.operand
    if isinstance(expr, BinExpr) and expr.is_comparison:
        flipped = {
            "==": "!=",
            "!=": "==",
            "<": ">=",
            "<=": ">",
            ">": "<=",
            ">=": "<",
        }[expr.op]
        return BinExpr(flipped, expr.left, expr.right)
    return NotExpr(expr)


# ----------------------------------------------------------------------
# JSON serialization (tagged union)

_NODE_TYPES = {
    "const": Const,
    "device": DeviceRef,
    "attr": DeviceAttr,
    "input": UserInput,
    "local": LocalVar,
    "event": EventValue,
    "eventattr": EventAttr,
    "state": StateVal,
    "location": LocationAttr,
    "time": TimeVal,
    "call": CallExpr,
    "bin": BinExpr,
    "not": NotExpr,
    "list": ListVal,
    "concat": Concat,
}

_TYPE_TAGS = {cls: tag for tag, cls in _NODE_TYPES.items()}


def to_json(expr: SymExpr) -> dict:
    """Encode a symbolic expression as a JSON-able dict."""
    tag = _TYPE_TAGS[type(expr)]
    if isinstance(expr, Const):
        return {"t": tag, "v": expr.value}
    if isinstance(expr, DeviceRef):
        return {
            "t": tag,
            "name": expr.name,
            "capability": expr.capability,
            "multiple": expr.multiple,
        }
    if isinstance(expr, DeviceAttr):
        return {"t": tag, "device": to_json(expr.device), "attribute": expr.attribute}
    if isinstance(expr, UserInput):
        return {"t": tag, "name": expr.name, "inputType": expr.input_type}
    if isinstance(expr, LocalVar):
        return {"t": tag, "name": expr.name, "version": expr.version}
    if isinstance(expr, EventValue):
        return {"t": tag}
    if isinstance(expr, EventAttr):
        return {"t": tag, "attribute": expr.attribute}
    if isinstance(expr, StateVal):
        return {"t": tag, "name": expr.name}
    if isinstance(expr, LocationAttr):
        return {"t": tag, "attribute": expr.attribute}
    if isinstance(expr, TimeVal):
        return {"t": tag, "kind": expr.kind}
    if isinstance(expr, CallExpr):
        return {
            "t": tag,
            "function": expr.function,
            "args": [to_json(arg) for arg in expr.args],
        }
    if isinstance(expr, BinExpr):
        return {
            "t": tag,
            "op": expr.op,
            "left": to_json(expr.left),
            "right": to_json(expr.right),
        }
    if isinstance(expr, NotExpr):
        return {"t": tag, "operand": to_json(expr.operand)}
    if isinstance(expr, ListVal):
        return {"t": tag, "items": [to_json(item) for item in expr.items]}
    if isinstance(expr, Concat):
        return {"t": tag, "parts": [to_json(part) for part in expr.parts]}
    raise TypeError(f"cannot serialize {type(expr).__name__}")


def from_json(data: dict) -> SymExpr:
    """Decode :func:`to_json` output back into a symbolic expression."""
    tag = data["t"]
    if tag == "const":
        return Const(data["v"])
    if tag == "device":
        return DeviceRef(data["name"], data["capability"], data.get("multiple", False))
    if tag == "attr":
        device = from_json(data["device"])
        assert isinstance(device, DeviceRef)
        return DeviceAttr(device, data["attribute"])
    if tag == "input":
        return UserInput(data["name"], data["inputType"])
    if tag == "local":
        return LocalVar(data["name"], data.get("version", 0))
    if tag == "event":
        return EventValue()
    if tag == "eventattr":
        return EventAttr(data["attribute"])
    if tag == "state":
        return StateVal(data["name"])
    if tag == "location":
        return LocationAttr(data["attribute"])
    if tag == "time":
        return TimeVal(data["kind"])
    if tag == "call":
        return CallExpr(
            data["function"], tuple(from_json(arg) for arg in data["args"])
        )
    if tag == "bin":
        return BinExpr(data["op"], from_json(data["left"]), from_json(data["right"]))
    if tag == "not":
        return NotExpr(from_json(data["operand"]))
    if tag == "list":
        return ListVal(tuple(from_json(item) for item in data["items"]))
    if tag == "concat":
        return Concat(tuple(from_json(part) for part in data["parts"]))
    raise ValueError(f"unknown expression tag: {tag!r}")
