"""The JSON Lines reader behind every data loader."""

from __future__ import annotations

import json
from typing import Callable, TypeVar

from .errors import MalformedLine

T = TypeVar("T")


def read_json_lines(path: str, row: Callable[[dict], T]) -> list[T]:
    """row(obj) for the JSON object on each non-blank line, in file order.

    Bad JSON, a line that is not an object, or a missing or ill-typed field
    (a KeyError, TypeError or ValueError from `row`) raises MalformedLine
    naming the file and the line.
    """
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
                out.append(row(obj))
            except KeyError as exc:
                raise MalformedLine(path, lineno, f"missing key {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise MalformedLine(path, lineno, str(exc)) from exc
    return out


def text_field(obj: dict, key: str) -> str:
    """obj[key], which must be a JSON string; anything else is a TypeError naming the field."""
    value = obj[key]
    if not isinstance(value, str):
        raise TypeError(f"field {key!r} must be a string, got {json.dumps(value)}")
    return value


def int_field(obj: dict, key: str) -> int:
    """obj[key], which must be a JSON integer (not a bool, a float or a string);
    anything else is a TypeError naming the field."""
    value = obj[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"field {key!r} must be an integer, got {json.dumps(value)}")
    return value


def text_list(obj: dict, key: str) -> list[str]:
    """obj[key], which must be a JSON array of strings; anything else is a TypeError naming the field."""
    value = obj[key]
    if not (isinstance(value, list) and all(isinstance(item, str) for item in value)):
        raise TypeError(f"field {key!r} must be an array of strings, got {json.dumps(value)}")
    return value
