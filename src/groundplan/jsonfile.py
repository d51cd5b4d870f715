"""The one reader for JSON input files: configs, suites, results and datasets."""

from __future__ import annotations

import json


class JsonFileError(RuntimeError):
    """A JSON input file failed to parse; carries file and byte offset."""

    def __init__(self, path: str, offset: int, message: str):
        super().__init__(f"{path} @ byte {offset}: {message}")
        self.path = path
        self.offset = offset


def read_json(path: str, parse=dict, error: type[JsonFileError] = JsonFileError):
    """parse() of the JSON object in path.

    Bad JSON, a top-level value that is not an object, and a field that
    parse() finds missing or rejects with a TypeError or ValueError are each
    an `error` naming the path.
    """
    try:
        with open(path) as f:
            payload = json.load(f)
    except json.JSONDecodeError as e:  # e.pos counts characters, not bytes
        raise error(path, len(e.doc[:e.pos].encode()), e.msg) from e
    if not isinstance(payload, dict):
        raise error(path, 0, "expected a JSON object")
    try:
        return parse(payload)
    except KeyError as e:
        raise error(path, 0, f"missing field {e.args[0]!r}") from e
    except (TypeError, ValueError) as e:
        raise error(path, 0, str(e)) from e
