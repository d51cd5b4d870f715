"""The one reader for JSON input files, and the one owner of JSON kinds.

Configs, suites, results and datasets come from outside the program. Each
document's owner declares its fields once, as a table of name to kind, and
builds its objects from what `fields` (or `typed`, for one value) checked. A
kind is int, float (which also takes an integer), str, bool or list or dict
(a bool is neither an integer nor a number); [kind], a list of that kind; a
tuple of allowed strings; or (kind, None), which also takes null. A value of
another kind is a ValueError reading "field '<path>' must be <kind>, got
<value>", which `read_json` turns into the error that names the file. Checks a
kind cannot express, such as ranges and sums, stay with the document's owner
and raise `invalid` errors of the same form.
"""

from __future__ import annotations

import json
import reprlib

# kind -> (the Python types of its values, a value of it, values of it)
_KINDS = {int: ({int}, "an integer", "integers"), float: ({int, float}, "a number", "numbers"),
          str: ({str}, "a string", "strings"), bool: ({bool}, "true or false", "booleans"),
          list: ({list}, "a list", "lists"), dict: ({dict}, "an object", "objects")}


class JsonFileError(RuntimeError):
    """A JSON input file failed to parse; carries file and byte offset."""

    def __init__(self, path: str, offset: int, message: str):
        super().__init__(f"{path} @ byte {offset}: {message}")
        self.path = path
        self.offset = offset


def _holds(value, kind) -> bool:  # typed and fields test a plain type inline: a call fewer
    if type(kind) is type:
        return type(value) in _KINDS[kind][0]
    if type(kind) is list:
        if type(kind[0]) is type:  # one pass over the item types, not a Python loop
            return type(value) is list and set(map(type, value)) <= _KINDS[kind[0]][0]
        return type(value) is list and all(_holds(v, kind[0]) for v in value)
    if kind[-1] is None:
        return value is None or _holds(value, kind[0])
    return type(value) is str and value in kind


def _describe(kind) -> str:
    if type(kind) is type:
        return _KINDS[kind][1]
    if type(kind) is list:
        item = kind[0]
        return "a list of " + (_KINDS[item][2] if type(item) is type else f"({_describe(item)})")
    if kind[-1] is None:
        return f"{_describe(kind[0])} or null"
    return "one of " + ", ".join(kind)


def invalid(field: str, expected: str, value) -> ValueError:
    """The error for a field whose value is not what it must be."""
    return ValueError(f"field '{field}' must be {expected}, got {reprlib.repr(value)}")


def typed(value, kind, field: str):
    """value, or a ValueError naming field unless value is of the JSON kind `kind`."""
    if type(value) in _KINDS[kind][0] if type(kind) is type else _holds(value, kind):
        return value
    raise invalid(field, _describe(kind), value)


def fields(d, table: dict, path: str = "", defaults: dict | None = None) -> dict:
    """{name: value} for each field of table, checked against its kind, from the
    JSON object d at field path `path` ("" for a whole document). A field d lacks
    takes its value from defaults, or is a KeyError naming it."""
    typed(d, dict, path or "document")
    out = {}
    for name, kind in table.items():
        if name in d:
            out[name] = value = d[name]
            if not (type(value) in _KINDS[kind][0] if type(kind) is type else _holds(value, kind)):
                raise invalid(f"{path}.{name}" if path else name, _describe(kind), value)
        elif defaults is not None and name in defaults:
            out[name] = defaults[name]
        else:
            raise KeyError(name)
    return out


def _parsed(path: str, offset: int, text, parse, error: type[JsonFileError]):
    """parse() of the JSON object in text, which starts at byte offset of path."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:  # e.pos counts characters, not bytes
        raise error(path, offset + len(e.doc[:e.pos].encode()), e.msg) from e
    except UnicodeDecodeError as e:
        raise error(path, offset + e.start, "not UTF-8 text") from e
    if not isinstance(payload, dict):
        raise error(path, offset, "expected a JSON object")
    try:
        return parse(payload)
    except KeyError as e:
        raise error(path, offset, f"missing field {e.args[0]!r}") from e
    except (TypeError, ValueError) as e:
        raise error(path, offset, str(e)) from e


def read_json(path: str, parse=dict, error: type[JsonFileError] = JsonFileError):
    """parse() of the JSON object in path. Bad JSON, a top-level value that is not
    an object, and a field that parse() finds missing or rejects with a TypeError
    or ValueError are each an `error` naming the path, as is text that is not UTF-8."""
    with open(path, "rb") as f:
        return _parsed(path, 0, f.read(), parse, error)


def read_json_lines(path: str, first, rest) -> tuple:
    """(first(header), [rest(line), ...]) for a JSON Lines file: one JSON object
    per line, the first parsed by `first` and every later one by `rest`. Errors
    are those of read_json, at the byte offset of the line or of the bad
    character in it."""
    with open(path, "rb") as f:
        lines = f.readlines() or [b""]  # an empty file lacks its first object
    parsed, offset = [], 0
    for line in lines:
        text = line.rstrip(b"\r\n")  # a line cut short is bad where it ends, not past it
        parsed.append(_parsed(path, offset, text, rest if parsed else first, JsonFileError))
        offset += len(line)
    return parsed[0], parsed[1:]
