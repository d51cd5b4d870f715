"""Every JSON input is checked field by field when it is read.

Take a valid suite, dataset manifest, dataset record, results file, config or
episode trace, replace one value at any depth with a value of another JSON
type, and read it.
The reader raises a JsonFileError naming the file, or accepts the document
only where the field may hold that value (the fields that take null), and the
CLI exits 0 or 1 with `error: <file> @ byte ...`, never with a traceback.
"""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundplan import cli
from groundplan.cli import SETTINGS, _config_from_json, main
from groundplan.datasets import gen_plan_dataset, gen_refexp_dataset, read_dataset
from groundplan.evaluate import OnlineResult, VariationResult, eval_offline, result_from_json
from groundplan.executor import run_episode, summarize_trace_file, trace_to_jsonl
from groundplan.jsonfile import JsonFileError, read_json, typed
from groundplan.planners import ReplayPlanner, oracle_factory
from groundplan.scene import default_rig
from groundplan.tasks import builtin_suite, load_suite, task_to_json

# The field paths whose kind takes null, and so may take the other kind they allow.
NULLABLE = re.compile(r"(\.height|\.fixed_yaw|\.plan\[\d+\]\.(object|location)"
                      r"|^gt_plan\.(object|location)|^pair|\.error)$")
# For a value of each type, values of every other JSON type.
OTHER_TYPE = {type(None): [True, 0, "x", [], {}], bool: [None, 1, "x", [1], {"a": 1}],
              int: [None, False, "x", [1], {}], float: [None, True, "1.5", [], {"a": 1}],
              str: [None, False, 2, ["x"], {}], list: [None, True, 3, "x", {"a": []}],
              dict: [None, False, 1.5, "x", [{}]]}


def value_paths(doc, prefix=""):
    """(field path, container, key) for every value below the JSON value doc."""
    keyed = isinstance(doc, dict)
    for key, value in (doc.items() if keyed else enumerate(doc)):
        path = (f"{prefix}.{key}" if prefix else key) if keyed else f"{prefix}[{key}]"
        yield path, doc, key
        if isinstance(value, (dict, list)):
            yield from value_paths(value, path)


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """kind -> (a valid document, its file, its reader, the CLI arguments that read it)."""
    root = tmp_path_factory.mktemp("inputs")
    data = root / "data"
    gen_plan_dataset(builtin_suite()[:1], 1, 0, str(data), rig=default_rig(96))
    manifest = json.loads((data / "manifest.json").read_text())
    record = data / max(f for f in manifest["files"] if f.startswith("records/"))
    refexp = root / "refexp"
    gen_refexp_dataset(builtin_suite()[:1], 1, 0, str(refexp), rig=default_rig(96))
    refexp_record = next((refexp / "records").iterdir())
    _, records = read_dataset(str(data))
    offline = eval_offline(records, ReplayPlanner.from_records(records)).to_json()
    online = OnlineResult({"t+0": VariationResult([1.0, 0.5])}).to_json()
    config = {name: default for name, (_, default, *_) in SETTINGS.items()}

    def read_dataset_dir(_):
        return read_dataset(str(data))

    def read_results(path):
        return read_json(path, result_from_json)

    def report(path):
        return ["report", "--in", path]

    def eval_offline_cli(_):
        return ["eval-offline", "--data", str(data)]

    return {
        "suite": ({"tasks": [task_to_json(t) for t in builtin_suite()[:4]]},
                  root / "suite.json", load_suite,
                  lambda path: ["run-online", "--suite", path]),
        "manifest": (manifest, data / "manifest.json", read_dataset_dir, eval_offline_cli),
        "record": (json.loads(record.read_text()), record, read_dataset_dir, eval_offline_cli),
        "refexp": (json.loads(refexp_record.read_text()), refexp_record,
                   lambda _: read_dataset(str(refexp)),
                   lambda _: ["eval-offline", "--data", str(refexp)]),
        "offline": (offline, root / "offline.json", read_results, report),
        "online": (online, root / "online.json", read_results, report),
        "config": (config, root / "config.json",
                   lambda path: read_json(path, _config_from_json),
                   lambda path: ["--config", path, "check-grads", "--trials", "1"]),
    }


@pytest.mark.parametrize("kind", ["suite", "manifest", "record", "refexp", "offline", "online",
                                  "config"])
def test_a_value_of_another_json_type_is_a_file_error(documents, capsys, monkeypatch, kind):
    """Every field, each with a value of every other JSON type; which of a
    field's instances (which task, which camera, which run) is drawn."""
    # run-online reads the suite, then runs no episode.
    monkeypatch.setattr(cli, "eval_online", lambda suite, *a, **k: OnlineResult({}))
    doc, path, read, argv = documents[kind]
    original = path.read_bytes() if path.exists() else None
    fields: dict[str, list[str]] = {}
    for at, _, _ in value_paths(doc):
        fields.setdefault(re.sub(r"\[\d+\]", "[*]", at), []).append(at)

    def replaced(at, value) -> None:
        mutated = json.loads(json.dumps(doc))
        _, container, key = next(p for p in value_paths(mutated) if p[0] == at)
        container[key] = value
        path.write_text(json.dumps(mutated))
        try:
            read(str(path))
        except JsonFileError as e:
            assert e.path == str(path)
        else:
            assert NULLABLE.search(at), f"{kind} {at} = {value!r} was read without error"
        capsys.readouterr()
        rc = main(argv(str(path)))
        err = capsys.readouterr().err
        assert rc == 0 or (rc == 1 and err.startswith(f"error: {path} @ byte ")), err

    @settings(max_examples=2, deadline=None)
    @given(st.data())
    def check(data):
        for instances in fields.values():
            at = data.draw(st.sampled_from(instances))
            _, container, key = next(p for p in value_paths(doc) if p[0] == at)
            for value in OTHER_TYPE[type(container[key])]:
                replaced(at, value)

    try:
        check()
    finally:
        if original is not None:
            path.write_bytes(original)


def test_a_number_takes_an_integer_and_no_number_is_a_bool():
    assert typed(3, float, "x") == 3
    for kind in (int, float):
        with pytest.raises(ValueError, match="field 'x' must be"):
            typed(True, kind, "x")


@pytest.mark.parametrize("kind,value,expected", [
    (float, float("nan"), "a finite number"),
    (float, float("-inf"), "a finite number"),
    (float, 10**400, "a finite number"),  # an integer no float can hold
    ((float, None), float("inf"), "a finite number or null"),
    ([float], [0.5, float("inf")], "a list of finite numbers"),
    ([float], [0.5, "x", float("nan")], "a list of numbers"),
])
def test_a_number_is_finite(kind, value, expected):
    assert json.loads("1e999") == float("inf")
    with pytest.raises(ValueError, match=f"^field 'x' must be {re.escape(expected)}, got "):
        typed(value, kind, "x")
    assert typed(2**53, float, "x") == 2**53


# A trace line's fields that take null: a step's error, action and held id, and a
# motion step's delta and object id.
TRACE_NULLABLE = re.compile(r"^(error|action|gripper_held)$|\.(delta|object_id)$")


def test_a_trace_value_of_another_json_type_is_a_file_error(tmp_path, capsys):
    """`inspect` on a trace file with one value replaced, in the header or in a
    step line: the error names the file and the byte offset of that line."""
    path = tmp_path / "trace.jsonl"
    trace_to_jsonl(run_episode(builtin_suite()[0], 1, oracle_factory, rig=default_rig(96)),
                   str(path))
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) > 2
    fields: dict[tuple[bool, str], list[tuple[int, str]]] = {}
    for i, line in enumerate(lines):
        for at, _, _ in value_paths(line):
            fields.setdefault((i == 0, re.sub(r"\[\d+\]", "[*]", at)), []).append((i, at))

    def replaced(i, at, value) -> None:
        mutated = json.loads(json.dumps(lines))
        _, container, key = next(p for p in value_paths(mutated[i]) if p[0] == at)
        container[key] = value
        text = [json.dumps(line) + "\n" for line in mutated]
        path.write_text("".join(text))
        try:
            summarize_trace_file(str(path))
        except JsonFileError as e:
            assert (e.path, e.offset) == (str(path), len("".join(text[:i])))
        else:
            assert TRACE_NULLABLE.search(at), f"line {i} {at} = {value!r} was read without error"
        capsys.readouterr()
        rc = main(["inspect", "--trace", str(path)])
        err = capsys.readouterr().err
        assert rc == 0 or (rc == 1 and err.startswith(f"error: {path} @ byte ")), err

    @settings(max_examples=2, deadline=None)
    @given(st.data())
    def check(data):
        for instances in fields.values():
            i, at = data.draw(st.sampled_from(instances))
            _, container, key = next(p for p in value_paths(lines[i]) if p[0] == at)
            for value in OTHER_TYPE[type(container[key])]:
                replaced(i, at, value)

    check()
