"""JSON records read back: files, and dataclasses checked against their
fields. Every record the package reads (experiment configs, generator
configs, reports, run metadata, the sensor layout) goes through these
functions. Each raises the error class its caller names, with a one-line
message, so the CLI can map it to an exit code.

Values are typed strictly: a string is never read as a number, a boolean
is not an int, and only a float field takes an int (as its float). An
array field is a JSON list of numbers."""

from __future__ import annotations

import dataclasses
import functools
import json
import types
import typing
from pathlib import Path

import numpy as np


def read_json(path: Path, error: type[Exception], what: str):
    """The JSON value in the file at path."""
    if not path.exists():
        raise error(f"missing {what} file {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise error(f"malformed {what} {path}: {exc}") from exc


def json_object(d, error: type[Exception], label: str) -> dict:
    """d, which must be a JSON object; label names it in the message."""
    if not isinstance(d, dict):
        raise error(f"{label} must be a JSON object, got {type(d).__name__}")
    return d


def from_json(cls, d, error: type[Exception], what: str, path: str = ""):
    """An instance of dataclass cls from the JSON object d, which holds
    exactly cls's fields, each of its declared type (nested dataclasses
    alike). A float field takes any number, a tuple field an array. `what`
    names the record in messages; `path` is the field path of a nested d."""
    label = f"{what} field {path}" if path else what
    json_object(d, error, label)
    hints, names = _fields(cls)
    unknown = sorted(set(d) - set(names))
    if unknown:
        raise error(f"{label} has unknown key(s): {', '.join(unknown)}")
    missing = [name for name in names if name not in d]
    if missing:
        raise error(f"{label} is missing key(s): {', '.join(missing)}")
    prefix = f"{path}." if path else ""
    return cls(**{name: typed(d[name], hints[name], error, what, prefix + name)
                  for name in names})


@functools.cache
def _fields(cls) -> tuple[dict, tuple[str, ...]]:
    """The type hints and the field names of dataclass cls. Resolving the
    hints takes most of a small record's read, so it is done once per
    class."""
    return typing.get_type_hints(cls), tuple(f.name for f in dataclasses.fields(cls))


def typed(value, hint, error, what, path):
    """value as the type hint declares it: checked, with a float field's
    int converted, a tuple field's list made a tuple, an array field's
    list of numbers made an np.ndarray and a dataclass field's object
    built. `path` names the field in messages."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (hint,) = [a for a in args if a is not type(None)]
        return typed(value, hint, error, what, path)
    if hint is np.ndarray and not isinstance(value, np.ndarray):
        return np.array(typed(value, list[float], error, what, path))
    if dataclasses.is_dataclass(hint):
        return from_json(hint, value, error, what, path)
    if origin in (list, tuple):
        if not isinstance(value, list):
            raise error(f"{what} field {path} must be a list, got {value!r}")
        items = [typed(v, args[0], error, what, f"{path}[{i}]")
                 for i, v in enumerate(value)]
        return tuple(items) if origin is tuple else items
    if hint is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if not isinstance(value, origin or hint) or (isinstance(value, bool) and hint is not bool):
        raise error(f"{what} field {path} must be of type {hint.__name__}, got {value!r}")
    return value
