"""Declared shapes of the JSON artifacts, and one validator for all of them.

Each artifact -- ``report.json``, the adaptive plan, ``BENCH_campaign.json``,
``BENCH_hotpath.json`` -- declares its shape once, next to its emitter, as a
tree of the node kinds below.  :func:`validate` raises ``ValueError`` naming
the first offending path (``groups[0].qof.success_rate must be ...``).

* A ``bool`` is never an :class:`Int` or a :class:`Number`.
* Objects are *closed*: an undeclared key is an error unless the object
  declares ``rest=`` (a string-keyed map whose values share one schema).

Every writer validates its own output, so an emitter and its declaration
cannot drift apart silently: an undeclared emitted key fails at emit time, as
does a declared required key that is no longer emitted.  Cross-field
invariants stay as plain code after the :func:`validate` call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional, Tuple, Union


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


class Node:
    """Base of the node kinds: ``check`` raises ``ValueError`` on a mismatch."""

    nullable: bool

    def expected(self) -> str:
        raise NotImplementedError

    def accepts(self, value: Any) -> bool:
        raise NotImplementedError

    def check(self, value: Any, path: str) -> None:
        if (value is None and self.nullable) or self.accepts(value):
            return
        shown = repr(value)
        shown = shown if len(shown) <= 60 else shown[:57] + "..."
        expected = self.expected() + (" or null" if self.nullable else "")
        raise ValueError(f"{path or 'document'} must be {expected}, got {shown}")


@dataclass(frozen=True)
class Int(Node):
    """An integer ``>= minimum`` (``minimum=None``: any integer)."""

    minimum: Optional[int] = 0
    nullable: bool = False

    def expected(self) -> str:
        return "an integer" + ("" if self.minimum is None else f" >= {self.minimum}")

    def accepts(self, value: Any) -> bool:
        return (
            isinstance(value, int)
            and not isinstance(value, bool)
            and (self.minimum is None or value >= self.minimum)
        )


@dataclass(frozen=True)
class Number(Node):
    """A finite int or float within optional bounds (``exclusive``: both open)."""

    minimum: Optional[float] = None
    maximum: Optional[float] = None
    exclusive: bool = False
    nullable: bool = False

    def expected(self) -> str:
        low, high = self.minimum, self.maximum
        if low is not None and high is not None:
            left, right = "()" if self.exclusive else "[]"
            return f"a finite number in {left}{low:g}, {high:g}{right}"
        if low is not None:
            return f"a finite number {'>' if self.exclusive else '>='} {low:g}"
        if high is not None:
            return f"a finite number {'<' if self.exclusive else '<='} {high:g}"
        return "a finite number"

    def accepts(self, value: Any) -> bool:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        low, high = self.minimum, self.maximum
        if self.exclusive:
            in_range = (low is None or value > low) and (high is None or value < high)
        else:
            in_range = (low is None or value >= low) and (high is None or value <= high)
        return in_range and (isinstance(value, int) or math.isfinite(value))


@dataclass(frozen=True)
class Str(Node):
    """A string (``non_empty``: at least one character)."""

    non_empty: bool = False
    nullable: bool = False

    def expected(self) -> str:
        return "a non-empty string" if self.non_empty else "a string"

    def accepts(self, value: Any) -> bool:
        return isinstance(value, str) and (bool(value) or not self.non_empty)


@dataclass(frozen=True)
class Bool(Node):
    """``true`` or ``false``."""

    nullable: bool = False

    def expected(self) -> str:
        return "a boolean"

    def accepts(self, value: Any) -> bool:
        return isinstance(value, bool)


@dataclass(frozen=True)
class OneOf(Node):
    """One of fixed values, compared type-exactly (a constant when only one)."""

    values: Tuple[Any, ...]
    nullable: bool = False

    def expected(self) -> str:
        if len(self.values) == 1:
            return repr(self.values[0])
        return f"one of {list(self.values)}"

    def accepts(self, value: Any) -> bool:
        return any(type(value) is type(v) and value == v for v in self.values)


@dataclass(frozen=True)
class ListOf(Node):
    """A list of ``item`` values with ``min_items <= len <= max_items``."""

    item: Node
    min_items: int = 0
    max_items: Optional[int] = None
    nullable: bool = False

    def expected(self) -> str:
        low, high = self.min_items, self.max_items
        if high == low:
            return f"a list of {low} items"
        if high is not None:
            return f"a list of {low} to {high} items"
        return f"a list of at least {low} item(s)" if low else "a list"

    def accepts(self, value: Any) -> bool:
        return (
            isinstance(value, list)
            and len(value) >= self.min_items
            and (self.max_items is None or len(value) <= self.max_items)
        )

    def check(self, value: Any, path: str) -> None:
        super().check(value, path)
        for index, item in enumerate(value or ()):
            self.item.check(item, f"{path}[{index}]")


@dataclass(frozen=True)
class Object(Node):
    """A closed object: ``fields`` (all required but ``optional``), plus other
    string keys only when ``rest`` declares their shared value schema."""

    fields: Mapping[str, Node] = field(default_factory=dict)
    optional: Tuple[str, ...] = ()
    rest: Optional[Node] = None
    nullable: bool = False

    def expected(self) -> str:
        return "an object"

    def accepts(self, value: Any) -> bool:
        return isinstance(value, dict)

    def check(self, value: Any, path: str) -> None:
        super().check(value, path)
        if value is None:
            return
        for key, node in self.fields.items():
            if key in value:
                node.check(value[key], _join(path, key))
            elif key not in self.optional:
                raise ValueError(f"{_join(path, key)} must be present")
        for key, item in value.items():
            if key in self.fields:
                continue
            if not isinstance(key, str) or self.rest is None:
                raise ValueError(f"{_join(path, str(key))} must not be present (undeclared key)")
            self.rest.check(item, _join(path, key))


def validate(schema: Node, document: Any, prefix: str = "") -> None:
    """Check ``document`` against ``schema``; the ``ValueError`` message is
    ``prefix`` plus ``"<path> must be ..."`` for the first mismatch."""
    try:
        schema.check(document, "")
    except ValueError as error:
        raise ValueError(f"{prefix}{error}") from None


def read_json(path: Union[str, Path], what: str) -> Any:
    """Parse the JSON file ``path``; an unreadable file raises ``ValueError``."""
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        raise ValueError(f"cannot read {what} {path}: {error}") from error


def write_json(path: Union[str, Path], document: Any) -> Path:
    """Write ``document`` as canonical JSON (sorted keys, no NaN); returns the
    path.  The bytes are a pure function of the content."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(document, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")
    return path
