"""The one reader for input files: task sets, oracle scripts and trace files.

``read_json`` and ``read_json_lines`` turn a file into JSON values, and
``checked_field`` reads one field of a JSON object. Every failure, an
unreadable file included, is a ``MalformedInput``. The JSON is RFC 8259's:
``NaN``, ``Infinity`` and ``-Infinity``, which Python's ``json`` reads by
default, are rejected in every file. A field's type is checked exactly and
never coerced: ``true`` is not a number, ``"0.5"`` is not a number and
``9.7`` is not an integer. The task-set and script loaders call
``reject_unknown_keys`` on every object they read, so a misspelt optional
field is an error and not silently dropped.

A field's kind is a type, a tuple of alternatives, or a one-element list
``[kind]`` for a JSON list whose every item has that kind; ``[[int]]`` is a
list of lists of integers.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import AbstractSet

NUMBER = (int, float)
REQUIRED = object()  # the default of a field that must be present
# the largest integer that every JSON reader reads exactly (RFC 8259, section 6)
MAX_JSON_INT = 2 ** 53 - 1


class MalformedInput(ValueError):
    """An input file that cannot be read, or does not have the documented shape."""


def _read_text(path: str | Path, newline: str | None = None) -> str:
    # newline as for open: None reads every line ending as "\n", "" keeps them
    try:
        with open(path, encoding="utf-8", newline=newline) as file:
            return file.read()
    except OSError as exc:
        raise MalformedInput(f"{path}: not readable ({exc.strerror or exc})") from exc
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{path}: not UTF-8 text ({exc})") from exc


def _reject_constant(token: str):
    raise ValueError(f"{token} is not a JSON number")


# one decoder for every read: given any option, json.loads builds a new one
# per call
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def parse_json(text: str) -> object:
    """``json.loads`` without the ``NaN`` and ``Infinity`` tokens; raises
    ValueError on any text that is not JSON, and on a value nested deeper
    than the decoder can follow."""
    try:
        return _DECODER.decode(text)
    except RecursionError as exc:  # the decoder's message names the array or object
        raise ValueError(str(exc)) from None


def read_json(path: str | Path) -> object:
    """The JSON value a UTF-8 file holds."""
    text = _read_text(path)
    try:
        return parse_json(text)
    except ValueError as exc:  # bad syntax, a NaN token, an integer too long to convert
        raise MalformedInput(f"{path}: not valid JSON ({exc})") from exc


def read_json_lines(path: str | Path) -> list[tuple[int, object]]:
    """(line number, JSON value) for every non-blank line of a UTF-8 file.
    As in JSON Lines, a line ends at ``\\n`` alone: a ``\\r``, before it or
    anywhere else, is JSON whitespace, and a U+2028 inside a string is part
    of the string."""
    values = []
    for number, line in enumerate(_read_text(path, newline="").split("\n"), 1):
        if line.strip():
            # a line that is one JSON value and nothing else skips decode's
            # two whitespace scans; any other goes through parse_json, whose
            # error text is the line's
            try:
                value, end = _DECODER.raw_decode(line)
            except (ValueError, RecursionError):
                end = None
            if end != len(line):
                try:
                    value = parse_json(line)
                except ValueError as exc:  # the line's place is formatted only on failure
                    raise MalformedInput(f"{path} line {number}: not valid JSON ({exc})") \
                        from exc
            values.append((number, value))
    return values


def _has_kind(value: object, kind) -> bool:
    # exact types, so that a JSON true is never taken for a number
    if type(kind) is list:
        item_kind = kind[0]
        if type(value) is not list:
            return False
        if type(item_kind) is type:  # one C-level pass over a list of a plain type
            return set(map(type, value)) <= {item_kind}
        return all(_has_kind(item, item_kind) for item in value)
    if type(kind) is tuple:
        return type(value) in kind or any(_has_kind(value, option) for option in kind)
    return type(value) is kind


def reject_unknown_keys(data: object, known: AbstractSet[str], where: str) -> None:
    """MalformedInput naming ``where`` and every key of the JSON object
    ``data`` that is not in ``known``."""
    if not isinstance(data, dict):
        raise MalformedInput(f"{where} is not a JSON object: {data!r:.80}")
    if not data.keys() <= known:
        raise MalformedInput(f"{where}: unknown fields {sorted(data.keys() - known)}")


def checked_field(data: object, key: str, kind, where: str, default=REQUIRED):
    """``data[key]`` when ``data`` is a JSON object and the value has ``kind``;
    ``default``, when one is given, if the key is absent. Otherwise
    MalformedInput naming ``where`` the field was read."""
    if not isinstance(data, dict):
        raise MalformedInput(f"{where} is not a JSON object: {data!r:.80}")
    if key not in data:
        if default is REQUIRED:
            raise MalformedInput(f"{where} lacks the field {key!r}")
        return default
    value = data[key]
    if type(value) is not kind and not _has_kind(value, kind):
        raise MalformedInput(f"{where} field {key!r} is ill-typed: {value!r:.80}")
    return value
