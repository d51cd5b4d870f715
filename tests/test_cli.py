from __future__ import annotations

import json

import pytest

from groundplan import cli
from groundplan.cli import main
from groundplan.executor import run_episode, trace_to_jsonl
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
