from __future__ import annotations

import argparse
import json
import re
from pathlib import Path

import pytest

from groundplan import cli
from groundplan.cli import main
from groundplan.evaluate import OnlineResult, VariationResult, render_report
from groundplan.executor import run_episode, trace_to_jsonl
from groundplan.geometry import DbscanParams
from groundplan.planners import oracle_factory


@pytest.fixture(scope="module")
def plan_data(tmp_path_factory):
    data = tmp_path_factory.mktemp("cli") / "ds"
    assert main([
        "gen-data", "--kind", "plan", "--episodes", "1", "--seed", "0",
        "--resolution", "96", "--out", str(data),
    ]) == 0
    return data


def test_gen_data_and_eval_offline(tmp_path, capsys):
    data = tmp_path / "ds"
    rc = main([
        "gen-data", "--kind", "plan", "--episodes", "2", "--seed", "3",
        "--resolution", "96", "--out", str(data),
    ])
    assert rc == 0
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["kind"] == "plan"
    assert manifest["total_records"] > 0
    capsys.readouterr()

    rc = main(["eval-offline", "--data", str(data), "--planner", "oracle"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Act" in out and "100.0" in out


def test_eval_offline_json_to_file(plan_data, tmp_path):
    report = tmp_path / "report.json"
    rc = main([
        "eval-offline", "--data", str(plan_data), "--format", "json",
        "--out", str(report),
    ])
    assert rc == 0
    payload = json.loads(report.read_text())
    assert payload["type"] == "offline"


def test_run_online_and_report_roundtrip(tmp_path, capsys):
    results = tmp_path / "results.json"
    rc = main([
        "run-online", "--planner", "oracle", "--chunk", "5",
        "--episodes", "2", "--runs", "1", "--seed", "4",
        "--resolution", "96", "--format", "json", "--out", str(results),
    ])
    assert rc == 0
    payload = json.loads(results.read_text())
    assert payload["type"] == "online"
    assert all(v["mean"] == 1.0 for v in payload["variations"].values())

    rc = main(["report", "--in", str(results), "--format", "table"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "100.0±0.0" in out


def test_run_online_respects_config_file(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "episodes": 1, "runs": 1, "seed": 2, "resolution": 96, "chunk": 5,
    }))
    results = tmp_path / "r.json"
    rc = main([
        "--config", str(config), "run-online", "--planner", "oracle",
        "--format", "json", "--out", str(results),
    ])
    assert rc == 0
    assert json.loads(results.read_text())["type"] == "online"


def test_check_grads_passes(capsys):
    rc = main(["check-grads", "--trials", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "bce" in out and "dice" in out and "ok" in out


def test_inspect_trace(tmp_path, capsys, suite, small_rig):
    trace = run_episode(suite[0], 1, oracle_factory, chunk=5, rig=small_rig)
    path = tmp_path / "trace.jsonl"
    trace_to_jsonl(trace, str(path))
    rc = main(["inspect", "--trace", str(path)])
    assert rc == 0
    assert "terminal=success" in capsys.readouterr().out


def test_missing_dataset_exits_nonzero(tmp_path, capsys):
    rc = main(["eval-offline", "--data", str(tmp_path / "nope")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_eval_offline_rejects_a_refexp_dataset(tmp_path, capsys):
    data = tmp_path / "refexp"
    assert main([
        "gen-data", "--kind", "refexp", "--episodes", "1", "--seed", "0",
        "--resolution", "96", "--out", str(data),
    ]) == 0
    capsys.readouterr()
    assert main(["eval-offline", "--data", str(data)]) == 1
    assert capsys.readouterr().err.strip() == (
        f"error: {data}: eval-offline scores plan or long datasets, not 'refexp'"
    )


def test_eval_offline_corrupted_planner_loses_object_accuracy(plan_data, tmp_path):
    report = tmp_path / "report.json"
    rc = main([
        "eval-offline", "--data", str(plan_data), "--planner", "corrupted",
        "--p-wrong-object", "1.0", "--format", "json", "--out", str(report),
    ])
    assert rc == 0
    groups = json.loads(report.read_text())["groups"]
    assert groups and all(g["obj"] < 100.0 for g in groups.values())


@pytest.mark.parametrize("command", ["eval-offline", "run-online"])
def test_config_sticky_reaches_corruption_config(plan_data, tmp_path, monkeypatch, command):
    real, seen = cli.CorruptionConfig, []
    monkeypatch.setattr(cli, "CorruptionConfig", lambda **kw: seen.append(real(**kw)) or seen[-1])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "planner": "corrupted", "sticky": True,
        "episodes": 1, "runs": 1, "resolution": 96,
    }))
    args = ["--config", str(config), command, "--out", str(tmp_path / "r.txt")]
    if command == "eval-offline":
        args += ["--data", str(plan_data)]
    assert main(args) == 0
    assert [c.transient for c in seen] == [False]


@pytest.mark.parametrize("content", [None, '{"episodes": 1, "se'])
def test_unreadable_config_exits_nonzero(tmp_path, capsys, content):
    config = tmp_path / "config.json"
    if content is not None:
        config.write_text(content)
    rc = main(["--config", str(config), "check-grads", "--trials", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(config) in err
    if content is not None:
        assert "@ byte 16" in err


def test_eval_offline_reads_the_dataset_once(plan_data, monkeypatch):
    from groundplan import datasets

    real, calls = datasets.read_dataset, []
    monkeypatch.setattr(datasets, "read_dataset", lambda path: calls.append(path) or real(path))
    assert main(["eval-offline", "--data", str(plan_data)]) == 0
    assert calls == [str(plan_data)]


@pytest.mark.parametrize("field", ["sticky", "dbscan-filter"])
@pytest.mark.parametrize("value", ["false", 0, None])
def test_config_boolean_must_be_json_bool(tmp_path, capsys, field, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({field: value, "episodes": 1, "runs": 1, "resolution": 96}))
    rc = main(["--config", str(config), "run-online", "--planner", "corrupted"])
    assert rc == 1
    assert capsys.readouterr().err.strip() == (
        f"error: {config} @ byte 0: field '{field}' must be true or false, got {value!r}")


@pytest.mark.parametrize("field", ["episdoes", "dbscan_filter", "dbscan"])
def test_config_rejects_unknown_fields(tmp_path, capsys, field):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"episodes": 1, field: True}))
    rc = main(["--config", str(config), "check-grads", "--trials", "1"])
    assert rc == 1
    assert capsys.readouterr().err.strip() == f"error: {config} @ byte 0: unknown field '{field}'"


@pytest.mark.parametrize("field, value, want", [
    ("dbscan-eps", "abc", "a number"),
    ("resolution", True, "an integer"),
    ("episodes", 1.7, "an integer"),
    ("suite", 0, "a string"),
    ("planner", "foo", "one of oracle, corrupted"),
])
def test_config_value_must_have_its_settings_type(tmp_path, capsys, field, value, want):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"episodes": 1, "runs": 1, "resolution": 96, field: value}))
    rc = main(["--config", str(config), "run-online", "--out", str(tmp_path / "r.txt")])
    assert rc == 1
    assert capsys.readouterr().err.strip() == (
        f"error: {config} @ byte 0: field '{field}' must be {want}, got {value!r}")
    assert not (tmp_path / "r.txt").exists()


# Every (subcommand, flag) pair the CLI offers. Users and scripts depend on
# them, so none may disappear silently when the settings table changes.
_CORRUPTION_FLAGS = ["--planner", "--p-wrong-object", "--p-wrong-action", "--p-malformed",
                     "--corruption-seed", "--sticky"]
_FLAGS = {
    "groundplan": ["--config"],
    "gen-data": ["--suite", "--kind", "--episodes", "--seed", "--resolution", "--out"],
    "eval-offline": ["--data", *_CORRUPTION_FLAGS, "--format", "--out"],
    "run-online": ["--suite", *_CORRUPTION_FLAGS, "--chunk", "--episodes", "--runs", "--seed",
                   "--resolution", "--dbscan-filter", "--dbscan-eps", "--dbscan-min-pts",
                   "--mask-noise", "--format", "--out"],
    "report": ["--in", "--format", "--out"],
    "check-grads": ["--trials", "--seed"],
    "inspect": ["--trace"],
}


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_every_flag_is_kept():
    parser = cli.build_parser()
    parsers = {"groundplan": parser, **_subparsers(parser)}
    offered = {
        (command, flag) for command, p in parsers.items() for action in p._actions
        for flag in action.option_strings if flag not in ("-h", "--help")
    }
    assert offered == {(command, flag) for command, flags in _FLAGS.items() for flag in flags}


@pytest.mark.parametrize("command", sorted(_FLAGS.keys() - {"groundplan"}))
def test_help_lists_each_setting_the_command_takes(capsys, command):
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    for name, (*_, commands) in cli.SETTINGS.items():
        if command in commands:
            assert f"--{name}" in out


def test_readme_gives_each_config_key_its_type_and_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([a-z-]+)` \| (.+) \| (.+) \| (.+) \|$", readme, re.M)
    types = {int: "integer", float: "number", str: "string", bool: "`true` or `false`"}
    expected = {
        (name,
         " or ".join(f"`{c}`" for c in kind) if isinstance(kind, tuple) else types[kind],
         f"`{json.dumps(default).strip(chr(34))}`",
         ", ".join(f"`{c}`" for c in commands))
        for name, (kind, default, _, commands) in cli.SETTINGS.items()
    }
    assert set(rows) == expected


def test_config_dbscan_keys_reach_grounding():
    args = cli.build_parser().parse_args(["run-online"])
    config = {"dbscan-filter": True, "dbscan-eps": 0.01, "dbscan-min-pts": 3}
    grounding = cli._grounding_from(cli._settings(args, config))
    assert grounding.dbscan_enabled
    assert grounding.dbscan == DbscanParams(eps=0.01, min_pts=3)
    flagged = cli.build_parser().parse_args(["run-online", "--dbscan-eps", "0.03"])
    assert cli._grounding_from(cli._settings(flagged, config)).dbscan.eps == 0.03
    defaults = cli._grounding_from(cli._settings(args, {}))
    assert not defaults.dbscan_enabled and defaults.dbscan == DbscanParams()


@pytest.mark.parametrize("flag,value", [("--runs", "0"), ("--episodes", "0"), ("--runs", "-2")])
def test_run_online_needs_an_episode_and_a_run(tmp_path, capsys, flag, value):
    out = tmp_path / "results.json"
    rc = main(["run-online", "--resolution", "96", "--format", "json", "--out", str(out),
               flag, value])
    assert rc == 1
    assert capsys.readouterr().err.strip() == f"error: {flag[2:]} must be >= 1, got {value}"
    assert not out.exists()


@pytest.mark.parametrize("kind", ["plan", "refexp", "long"])
def test_gen_data_needs_an_episode(tmp_path, capsys, kind):
    out = tmp_path / "ds"
    rc = main(["gen-data", "--kind", kind, "--episodes", "0", "--resolution", "96",
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.strip() == "error: episodes must be >= 1, got 0"
    assert not out.exists()


def test_eval_offline_refuses_a_dataset_without_records(tmp_path, capsys):
    data = tmp_path / "ds"
    data.mkdir()
    manifest = {"kind": "plan", "suite_hash": "0", "seed": 0, "episodes_per_variation": 1,
                "counts": {}, "total_records": 0, "total_episodes": 0,
                "mean_keysteps_per_episode": 0.0, "files": []}
    (data / "manifest.json").write_text(json.dumps(manifest))
    assert main(["eval-offline", "--data", str(data), "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.err.strip() == (
        f"error: {data / 'manifest.json'} @ byte 0: the dataset has no records to score")
    assert captured.out == ""


def test_json_report_refuses_nan():
    result = OnlineResult(variations={"t+0": VariationResult(runs=[float("nan")])})
    with pytest.raises(ValueError, match="JSON compliant"):
        render_report(result, "json")


def test_gen_data_failure_names_the_resolution(tmp_path, capsys):
    out = tmp_path / "ds"
    rc = main(["gen-data", "--kind", "plan", "--episodes", "1", "--seed", "0",
               "--resolution", "64", "--out", str(out)])
    assert rc == 1
    assert "64x64" in capsys.readouterr().err
    assert not out.exists()


def _suite(shape=None, color=None, success=None) -> str:
    """A one-task suite document; each given part replaces the valid default."""
    task = {
        "name": "t", "variation": 0, "group": "L1", "instruction": "push the slider",
        "objects": [{"role": "a", "raw_name": "block", "color": color or [255, 0, 0],
                     "shape": shape or {"kind": "box", "half_extents": [0.02, 0.02, 0.02]}}],
        "plan": [{"action": "push down", "object": "a"}],
        "success": success or {"kind": "object_near", "object": "a", "location": "a",
                               "tol": 0.5},
    }
    return json.dumps({"tasks": [task]})


def _online(runs: str, mean: str, std: str) -> str:
    """A results file of one variation, its values written as given."""
    return ('{"type": "online", "variations": {"t+0": '
            f'{{"runs": {runs}, "mean": {mean}, "std": {std}}}}}}}')


_HEADER = {"task": "t+0", "group": "L1", "instruction": "x", "seed": 1, "chunk": 5,
           "terminal": "success", "motion_steps": 1, "planner_calls": 1, "history": []}
_ROW = {"index": 0, "keystep": True, "raw_text": "Release.", "error": None,
        "action": "release", "cloud_counts": {}, "gripper_position": [0.0, 0.0, 0.3],
        "gripper_held": None, "history_before": [],
        "motion": [{"kind": "open_gripper", "delta": None, "object_id": None, "amount": 0.0}]}


def _trace(*lines) -> str:
    """A trace file of the given lines: dicts are written as JSON, text as is."""
    return "".join((json.dumps(line) if isinstance(line, dict) else line) + "\n"
                   for line in lines)


def _without(d: dict, key: str) -> dict:
    return {k: v for k, v in d.items() if k != key}


@pytest.mark.parametrize("command, flag, content, message", [
    ("run-online", "--suite", '{"tasks": [{"name": "x"}]}', "@ byte 0: missing field 'objects'"),
    ("run-online", "--suite", _suite(shape={"kind": "sphere", "radius": "big"}),
     "@ byte 0: field 'tasks[0].objects[0].shape.radius' must be a number, got 'big'"),
    ("run-online", "--suite", _suite(shape={"kind": "cone", "radius": 0.02}),
     "@ byte 0: field 'tasks[0].objects[0].shape.kind' must be one of box, cylinder, sphere, "
     "prismatic, got 'cone'"),
    ("run-online", "--suite", _suite(shape={"kind": "box", "half_extents": [0.02, -0.02, 0.02]}),
     "@ byte 0: field 'tasks[0].objects[0].shape': box half extents must be positive"),
    ("run-online", "--suite", _suite(success={"kind": "all_of", "terms": [
        {"kind": "joint_at_least", "object": "a", "threshold": 0.5},
        {"kind": "object_above", "object": "a", "location": "a"}]}),
     "@ byte 0: field 'tasks[0].success.terms[1].kind' must be one of all_of, object_within, "
     "object_near, joint_at_least, joint_at_most, got 'object_above'"),
    ("run-online", "--suite", _suite(success={"kind": "object_near", "object": "a",
                                              "location": "a", "tol": "near"}),
     "@ byte 0: field 'tasks[0].success.tol' must be a number, got 'near'"),
    ("run-online", "--suite", _suite(success={"kind": "all_of", "terms": [
        {"kind": "joint_at_least", "object": "a", "threshold": True}]}),
     "@ byte 0: field 'tasks[0].success.terms[0].threshold' must be a number, got True"),
    ("run-online", "--suite", _suite(color=[255, 0]),
     "@ byte 0: field 'tasks[0].objects[0].color' must be three integers in 0-255, "
     "got [255, 0]"),
    ("run-online", "--suite", _suite(color="white"),
     "@ byte 0: field 'tasks[0].objects[0].color' must be a list of integers, got 'white'"),
    ("run-online", "--suite", _suite().replace('"raw_name": "block"', '"raw_name": 3'),
     "@ byte 0: field 'tasks[0].objects[0].raw_name' must be a string, got 3"),
    ("run-online", "--suite", _suite().replace('"variation": 0', '"variation": 1.7'),
     "@ byte 0: field 'tasks[0].variation' must be an integer, got 1.7"),
    ("run-online", "--suite", _suite().replace('"name": "t"', '"name": 7'),
     "@ byte 0: field 'tasks[0].name' must be a string, got 7"),
    ("run-online", "--suite", _suite().replace('"raw_name": "block"',
                                               '"raw_name": "block", "height": "h"'),
     "@ byte 0: field 'tasks[0].objects[0].height' must be a number or null, got 'h'"),
    ("run-online", "--suite", _suite(success={"kind": "joint_at_least", "object": 3,
                                              "threshold": 0.5}),
     "@ byte 0: field 'tasks[0].success.object' must be a string, got 3"),
    ("run-online", "--suite", _suite(success={"kind": "joint_at_least", "object": "b",
                                              "threshold": 0.5}),
     "@ byte 0: success references unknown role 'b'"),
    ("run-online", "--suite", _suite(success={"kind": "all_of", "terms": "x"}),
     "@ byte 0: field 'tasks[0].success.terms' must be a list of objects, got 'x'"),
    ("run-online", "--suite", _suite(success={"kind": "all_of", "terms": [
        {"kind": "object_near", "object": "a", "location": "a", "tol": 0.1},
        {"kind": "joint_at_most", "object": "a", "threshold": 0.5}]}),
     "@ byte 0: field 'success.terms[1].object' must be the role of an articulated object, "
     "got 'a'"),
    ("inspect", "--trace", _trace({"task": 1}), "@ byte 0: field 'task' must be a string, got 1"),
    ("inspect", "--trace", _trace(_without(_HEADER, "seed")), "@ byte 0: missing field 'seed'"),
    ("inspect", "--trace", _trace(_HEADER, _ROW, _without(_ROW, "keystep")),
     f"@ byte {len(_trace(_HEADER, _ROW))}: missing field 'keystep'"),
    ("inspect", "--trace", _trace(_HEADER, "not json"),
     f"@ byte {len(_trace(_HEADER))}: Expecting value"),
    ("inspect", "--trace", _trace(_HEADER, '{"index": '),
     f"@ byte {len(_trace(_HEADER)) + 10}: Expecting value"),
    ("inspect", "--trace", _trace(_HEADER, {**_ROW, "motion": [{"kind": "translate"}]}),
     f"@ byte {len(_trace(_HEADER))}: missing field 'delta'"),
    ("inspect", "--trace", _trace(_HEADER, {**_ROW, "cloud_counts": {"robot": "3"}}),
     f"@ byte {len(_trace(_HEADER))}: field 'cloud_counts.robot' must be an integer, got '3'"),
    ("inspect", "--trace", "", "@ byte 0: Expecting value"),
    ("run-online", "--suite", '{"tasks": [', "@ byte 11: Expecting value"),
    ("report", "--in", '{"type": "offline"}', "@ byte 0: missing field 'groups'"),
    ("report", "--in", '{"type": "offline", ',
     "@ byte 20: Expecting property name enclosed in double quotes"),
    ("report", "--in", "[]", "@ byte 0: expected a JSON object"),
    ("report", "--in", '{"type": "online", "variations": []}',
     "@ byte 0: field 'variations' must be an object, got []"),
    ("report", "--in", '{"type": "online", "variations": {"t+0": {"runs": "x"}}}',
     "@ byte 0: field 'variations.t+0.runs' must be a list of numbers, got 'x'"),
    ("report", "--in", _online("[NaN]", "NaN", "NaN"),
     "@ byte 0: field 'variations.t+0.runs' must be a list of finite numbers, got [nan]"),
    ("report", "--in", _online("[1e999]", "1e999", "NaN"),
     "@ byte 0: field 'variations.t+0.runs' must be a list of finite numbers, got [inf]"),
    ("report", "--in", _online("[0.5]", "-Infinity", "0"),
     "@ byte 0: field 'variations.t+0.mean' must be a finite number, got -inf"),
    ("report", "--in", _online("[0.5]", "0.5", "Infinity"),
     "@ byte 0: field 'variations.t+0.std' must be a finite number, got inf"),
    ("report", "--in", '{"type": "offline", "groups": {"L1": {"act": NaN, "obj": 1, "grd": 1, '
     '"keysteps": 1}}, "rows": []}',
     "@ byte 0: field 'groups.L1.act' must be a finite number, got nan"),
    ("report", "--in", _online("[]", "0", "0"),
     "@ byte 0: field 'variations.t+0.runs' must be a non-empty list of rates in [0, 1], got []"),
    ("report", "--in", _online("[0.5, 2.0, -1]", "0.5", "1.22"),
     "@ byte 0: field 'variations.t+0.runs' must be a non-empty list of rates in [0, 1], "
     "got [0.5, 2.0, -1]"),
    ("report", "--in", _online("[0.5, 1.0]", "0.7", "0.25"),
     "@ byte 0: field 'variations.t+0.mean' must be 0.75, as its runs give, got 0.7"),
    ("report", "--in", _online("[0.5, 1.0]", "0.75", "0.2500001"),
     "@ byte 0: field 'variations.t+0.std' must be 0.25, as its runs give, got 0.2500001"),
    ("report", "--in", '{"type": "été", ', "@ byte 18: Expecting property name enclosed "
     "in double quotes"),
    ("run-online", "--suite", b'{"tasks": "\xff"}', "@ byte 11: not UTF-8 text"),
    ("report", "--in", b'{"type": "\xc3\xa9t\xe9"}', "@ byte 13: not UTF-8 text"),
])
def test_malformed_input_file_names_its_path(tmp_path, capsys, command, flag, content, message):
    path = tmp_path / "input.json"
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    assert main([command, flag, str(path)]) == 1
    assert capsys.readouterr().err.strip() == f"error: {path} {message}"


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_a_non_finite_result_is_a_file_error_in_every_format(tmp_path, capsys, fmt):
    path = tmp_path / "results.json"
    path.write_text(_online("[1e999]", "1e999", "NaN"))
    assert main(["report", "--in", str(path), "--format", fmt]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path} @ byte 0: field 'variations.t+0")
