"""Checked reading of the JSON files a user hands the package: module
files (`modules.load_module`) and stems files (`stems.StemsTable`).

Each check raises the error class its caller passes (`ModuleError` for
module files, `ValueError` for stems files) with one line that names the
field at fault and quotes its value.  Nothing is truncated: a float is no
integer, nor are true and false.  A key given twice in one object is
refused where json would keep the last value, and a file that is not
UTF-8 text, or text that is not JSON, is refused with the file's path."""

from __future__ import annotations

import json
import re

_KINDS = {int: "an integer", str: "a string", list: "a list", dict: "a JSON object"}


def _load(text: str, path: str, file: str, error: type[Exception]):
    """The JSON value of a file's text: `file` names the file's kind in a
    refusal of its content, and `path` names the file whose text is not
    JSON, with json's line and column."""
    def _json_object(pairs: list) -> dict:
        out = {}
        for key, value in pairs:
            if key in out:
                raise error(f"{file} gives the key {json.dumps(key)} twice in one object")
            out[key] = value
        return out

    try:
        return json.loads(text, object_pairs_hook=_json_object)
    except json.JSONDecodeError as exc:
        raise error(f"{file} {path} is not valid JSON: {exc.msg} "
                    f"(line {exc.lineno}, column {exc.colno})") from None


def _read(path: str, file: str, error: type[Exception]):
    """The JSON value of the file at `path` (`_load`), read as UTF-8, the
    encoding of JSON files; other bytes are refused with the file's path."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise error(f"{file} {path} is not UTF-8 text: {exc.reason} "
                        f"(byte {exc.start})") from None
    return _load(text, path, file, error)


def _of_kind(value, kind: type, what: str, error: type[Exception]):
    """value, refused unless it is of this kind."""
    if not isinstance(value, kind) or kind is int and isinstance(value, bool):
        raise error(f"{what} is {json.dumps(value)}, not {_KINDS[kind]}")
    return value


def _field(data, key: str, where: str, kind: type, error: type[Exception]):
    """The required field `key` of the object `where`, of this kind."""
    if key not in _of_kind(data, dict, where, error):
        raise error(f"{where} has no {key!r}")
    return _of_kind(data[key], kind, f"{where}'s {key!r}", error)


def _list_of(value, kind: type, what: str, error: type[Exception],
             item: str = "an item of") -> list:
    """The list `what`, each item of this kind."""
    return [_of_kind(x, kind, f"{item} {what}", error)
            for x in _of_kind(value, list, what, error)]


def _by_int_key(data, key: str, where: str, noun: str, error: type[Exception]) -> dict:
    """The required object `key` of `where`, keyed by integer `noun`: a
    key that is not decimal digits with an optional minus sign ("+1",
    " 1" and "1_0" are not), or that names an integer an earlier key
    named ("1" and "01"), is refused."""
    what, out = f"{where}'s {key!r}", {}
    for text, value in _field(data, key, where, dict, error).items():
        if not re.fullmatch(r"-?[0-9]+", text):
            raise error(f"{what} has the key {json.dumps(text)}, not an integer {noun}")
        k = int(text)
        if k in out:
            raise error(f"{what} names {noun} {k} twice")
        out[k] = value
    return out
