"""The one reader of JSON input: a spec per document, typed values out.

A spec is
* a type: ``str``, ``int``, ``float``, ``bool``, ``dict`` (any object) or
  ``object`` (any value);
* ``[spec]``: an array whose every item is read by ``spec``;
* ``{field: spec}``: an object holding each field (unknown fields are
  ignored, and left out of the value read), where a field spec
  ``Optional(spec, default)`` lets the field be absent or null: it then
  reads as ``default`` would.

The number rule lives here alone: a boolean is no number, and a ``float``
may be written as an integer, which must then fit in a float.

A value that fits its spec as it is, such as an array whose items all
have exactly the item type or an object read by ``dict``, is returned
itself, not copied (a default too): callers must not mutate what they read.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .errors import FormatError

_NAMES = {str: "string", int: "integer", float: "number", bool: "boolean", dict: "object",
          list: "array"}


class Optional(NamedTuple):
    """An object field that may be absent or null, and then reads as ``default``
    would; a None default reads as None."""

    spec: object
    default: object = None


class _Misfit(Exception):
    """A value that does not fit its spec; ``path`` grows outward (``[i]``,
    ``.key``) as it unwinds."""

    def __init__(self, problem: str):
        super().__init__(problem)
        self.path: list[str] = []

    def message(self, where: str) -> str:
        where = (where + "".join(reversed(self.path))).lstrip(".")
        return f"{where or 'the document'} {self}"


def _typed(value, kind: type):
    """``value`` as a ``kind``, under the number rule."""
    if isinstance(value, bool) and kind in (int, float):
        raise _Misfit(f"is not a JSON {_NAMES[kind]}")
    if kind is float and isinstance(value, int):
        try:
            return float(value)
        except OverflowError:
            raise _Misfit("is too large a number") from None
    if isinstance(value, kind):
        return value
    raise _Misfit(f"is not a JSON {_NAMES[kind]}")


def _read(value, spec):
    # ``type(value) is spec`` holds only when ``spec`` is a type that
    # ``value`` has exactly: the common case, checked inline before a call.
    if type(spec) is type:
        return value if type(value) is spec else _typed(value, spec)
    if type(spec) is list:
        if type(value) is not list:
            _typed(value, list)
        (item,) = spec
        # An array of items that each have exactly the item type is read as
        # it is, in one pass in C; the walk below converts or names a misfit.
        if type(item) is type and set(map(type, value)) <= {item}:
            return value
        items = []
        try:
            for entry in value:
                items.append(entry if type(entry) is item else _read(entry, item))
        except _Misfit as exc:
            exc.path.append(f"[{len(items)}]")
            raise
        return items
    if type(value) is not dict:
        _typed(value, dict)
    fields, key = {}, ""
    try:
        for key, field in spec.items():
            given = value.get(key)
            if type(field) is Optional:
                if given is None and field.default is None:
                    fields[key] = None
                    continue
                field, given = field.spec, field.default if given is None else given
            elif given is None and key not in value:
                raise _Misfit("is missing")
            fields[key] = given if type(given) is field else _read(given, field)
    except _Misfit as exc:
        exc.path.append(f".{key}")
        raise
    return fields


def read(value, spec, where: str):
    """``value`` read by ``spec``; FormatError naming the path below ``where``
    of the first value that does not fit, as in ``nodes[0].parent_ids is not
    a JSON array``."""
    try:
        return _read(value, spec)
    except _Misfit as exc:
        raise FormatError(exc.message(where)) from None


def parse(text: str, spec, source, line: int | None = None):
    """The JSON ``text`` read by ``spec``.  Malformed text, or a value that
    does not fit, raises FormatError naming ``source`` and ``line`` (for
    malformed text without a ``line``, the line of the fault in ``text``).
    So does an integer longer than Python converts (4,300 digits by
    default) or nesting deeper than the recursion limit."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"malformed JSON ({exc.msg})", path=source,
                          line=exc.lineno if line is None else line) from None
    except ValueError:
        raise FormatError("malformed JSON (an integer of too many digits)", path=source,
                          line=line) from None
    except RecursionError:
        raise FormatError("malformed JSON (nested too deeply)", path=source, line=line) from None
    try:
        return _read(value, spec)
    except _Misfit as exc:
        raise FormatError(exc.message(""), path=source, line=line) from None
