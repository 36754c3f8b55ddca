"""One JSON loader and the shape checks for every JSON document objrepo reads.

A check is a function of one value that returns the value it accepts,
converted where its schema says how, or raises :class:`Invalid`. Record,
list and map checks add the key or index of a failing item to the error's
path, so a failure names where it is (``methods[0].params[1].name``).
:func:`check` and :func:`parse` raise an :class:`Invalid` as the format's
own error class.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, NamedTuple

from .validate import is_endpoint, is_mime, is_urn

Check = Callable[[object], object]


class Invalid(Exception):
    """``problem`` at ``path``, the keys and indexes from the checked value
    down; ``error``, when given, overrides the format's error class."""

    def __init__(self, problem: str, path: list | None = None, error: type | None = None):
        super().__init__(problem)
        self.problem = problem
        self.path = path or []
        self.error = error


def load(data: bytes, error: type[Exception], what: str):
    """The JSON value in ``data``; bad UTF-8 or JSON, an integer longer than
    ``int()`` converts and nesting deeper than the parser recurses are ``error``."""
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise error(f"{what}: not a JSON document ({exc})") from None


def check(schema: Check, value, error: type[Exception], what: str):
    """``schema(value)``, with a failure raised as ``error``."""
    try:
        return schema(value)
    except Invalid as exc:
        where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in exc.path)
        where = f"{where.removeprefix('.')}: " if where else ""
        raise (exc.error or error)(f"{what}: {where}{exc.problem}") from None


def parse(data: bytes, schema: Check, error: type[Exception], what: str):
    return check(schema, load(data, error, what), error, what)


def parse_file(path, schema: Check, error: type[Exception], what: str):
    """The document in the file at ``path``; an unreadable file is ``error`` too."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise error(f"{what} {path}: cannot read ({exc})") from None
    return parse(data, schema, error, f"{what} {path}")


def holds(predicate: Callable[[object], bool], problem: str) -> Check:
    """Accept the values ``predicate`` holds for."""

    def accept(value):
        if not predicate(value):
            raise Invalid(problem)
        return value

    return accept


def anything(value):
    return value


def one_of(*options: str) -> Check:
    """Accept one of the strings ``options``."""
    problem = "must be one of " + ", ".join(map(repr, options))
    return holds(lambda value: isinstance(value, str) and value in options, problem)


def integer(minimum: int) -> Check:
    """Accept an integer of at least ``minimum``; a boolean is not one."""
    problem = f"must be an integer of at least {minimum}"
    return holds(lambda value: type(value) is int and value >= minimum, problem)


def matches(pattern, problem: str) -> Check:
    return holds(lambda value: isinstance(value, str) and bool(pattern.match(value)), problem)


STRING = holds(lambda value: isinstance(value, str), "must be a string")
NON_EMPTY = holds(lambda value: isinstance(value, str) and value != "", "must not be empty")
URN = holds(is_urn, "must be a urn")
MIME = holds(is_mime, "must be a MIME type")
ENDPOINT = holds(is_endpoint, "must look like host:port")


def list_of(item: Check, non_empty: bool = False, unique: str | None = None) -> Check:
    """Accept a list (or tuple) of what ``item`` accepts; ``unique`` names a
    key that no two items may share."""
    problem = "must be a non-empty list" if non_empty else "must be a list"

    def accept(value):
        if not isinstance(value, (list, tuple)) or (non_empty and not value):
            raise Invalid(problem)
        out, seen = [], set()
        for i, raw in enumerate(value):
            try:
                out.append(item(raw))
            except Invalid as exc:
                exc.path.insert(0, i)
                raise
            if unique is not None:
                if raw[unique] in seen:
                    raise Invalid(f"duplicate {unique} {raw[unique]!r}", [i, unique])
                seen.add(raw[unique])
        return out

    return accept


def map_of(key: Check, item: Check, non_empty: bool = False) -> Check:
    """Accept an object whose keys ``key`` accepts and values ``item`` accepts."""
    problem = "must be a non-empty object" if non_empty else "must be an object"

    def accept(value):
        if not isinstance(value, dict) or (non_empty and not value):
            raise Invalid(problem)
        out = {}
        for k, raw in value.items():
            try:
                out[key(k)] = item(raw)
            except Invalid as exc:
                exc.path.insert(0, k)
                raise
        return out

    return accept


class optional(NamedTuple):
    """A record field that may be absent."""

    check: Check


def record(make: Callable, /, **fields: Check | optional) -> Check:
    """Accept an object with every field not marked :class:`optional` and no
    other key; returns ``make(**checked fields)``. Fields are checked in the
    order given; ``make`` may raise :class:`Invalid` for a problem across
    fields."""
    checks = {k: f.check if isinstance(f, optional) else f for k, f in fields.items()}
    needed = frozenset(k for k, f in fields.items() if not isinstance(f, optional))
    allowed = frozenset(checks)

    def accept(value):
        if not isinstance(value, dict):
            raise Invalid("must be an object")
        if not needed <= value.keys() <= allowed:
            raise Invalid(f"expected keys {'/'.join(checks)}, got {sorted(value)}")
        out = {}
        for key, field in checks.items():
            if key in value:
                try:
                    out[key] = field(value[key])
                except Invalid as exc:
                    exc.path.insert(0, key)
                    raise
        return make(**out)

    return accept
