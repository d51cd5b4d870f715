from __future__ import annotations

import json

import numpy as np
import pytest

from groundplan.datasets import gen_plan_dataset, read_dataset
from groundplan.evaluate import (
    OfflineResult,
    OnlineResult,
    VariationResult,
    eval_offline,
    eval_online,
    episode_seed,
    render_report,
    result_from_json,
)
from groundplan.planners import (
    CorruptedPlanner,
    CorruptionConfig,
    ReplayPlanner,
    corrupt,
    oracle_factory,
)


class MalformedPlanner:
    def plan(self, instruction, views, history, inventory):
        return "Grasp <p> red block </p>.", []


@pytest.fixture(scope="module")
def plan_dataset(tmp_path_factory, suite):
    from tests.conftest import small_camera
    from groundplan.scene import CameraRig

    rig = CameraRig([
        small_camera((0.85, 0.0, 0.55), (0.0, 0.0, 0.05), "front"),
        small_camera((0.35, 0.65, 0.65), (0.0, 0.0, 0.05), "left_shoulder"),
    ])
    out = tmp_path_factory.mktemp("plan_ds")
    gen_plan_dataset(suite[:3], episodes_per_variation=3, seed=2,
                     out_dir=str(out), rig=rig)
    return str(out)


def test_oracle_scores_perfect(plan_dataset):
    _, records = read_dataset(plan_dataset)
    planner = ReplayPlanner.from_records(records)
    result = eval_offline(records, planner)
    for metrics in result.groups.values():
        assert metrics.act == 100.0
        assert metrics.obj == 100.0
        assert metrics.grd == 100.0


def test_scoring_hashes_no_frames(plan_dataset, monkeypatch):
    import hashlib

    _, records = read_dataset(plan_dataset)
    real, hashed = hashlib.sha256, []

    class CountingSha256:
        def __init__(self):
            self._h = real()

        def update(self, data):
            hashed.append(len(data))
            self._h.update(data)

        def hexdigest(self):
            return self._h.hexdigest()

    monkeypatch.setattr(hashlib, "sha256", CountingSha256)
    result = eval_offline(records, ReplayPlanner.from_records(records))
    assert all(m.act == m.obj == m.grd == 100.0 for m in result.groups.values())
    views = [v for rec in records for v in rec.views]
    assert sum(hashed) == 0
    assert not any(v.depth.flags.writeable or v.ids.flags.writeable for v in views)


def test_scoring_compares_no_frames(plan_dataset, monkeypatch):
    """Records of one variation share instruction and histories across its
    episodes; the depth sample in the key must still give each its own bucket."""
    from groundplan import planners
    from tests.test_planners import DigestReplayPlanner

    _, records = read_dataset(plan_dataset)
    real, compared = planners._same_frames, []

    def counting(a, b):
        compared.append(1)
        return real(a, b)

    monkeypatch.setattr(planners, "_same_frames", counting)
    result = eval_offline(records, ReplayPlanner.from_records(records))
    assert not compared
    reference = eval_offline(records, DigestReplayPlanner.from_records(records))
    assert result.to_json() == reference.to_json()


def test_replay_scoring_decodes_no_id_maps(plan_dataset, monkeypatch):
    """Replay scoring never reads an id map. A corrupted replay that swaps in
    other objects' masks decodes them, and scores as eagerly decoded views do."""
    from dataclasses import replace

    from groundplan import datasets
    from tests.test_datasets import eager_views

    _, records = read_dataset(plan_dataset)
    real, decoded = datasets.rle_decode, []

    def counting(runs, shape):
        decoded.append(1)
        return real(runs, shape)

    monkeypatch.setattr(datasets, "rle_decode", counting)
    result = eval_offline(records, ReplayPlanner.from_records(records))
    assert not decoded
    assert all(m.act == m.obj == m.grd == 100.0 for m in result.groups.values())

    eager = []
    for rec in records:
        with open(f"{plan_dataset}/{datasets._record_filename(rec)}") as f:
            id_maps = json.load(f)["id_maps"]
        eager.append(replace(rec, views=eager_views(id_maps, [v.depth for v in rec.views])))
    cfg = CorruptionConfig(p_wrong_object=1.0)
    corrupted = [eval_offline(recs, CorruptedPlanner(ReplayPlanner.from_records(recs), cfg, 22))
                 for recs in (records, eager)]
    assert decoded
    assert corrupted[0].to_json() == corrupted[1].to_json()


def test_replay_scoring_opens_no_depth_file(plan_dataset, monkeypatch):
    """Building the replay planner and scoring with it, clean or swapping every
    reference, never opens a depth file, however many records there are; the
    first read of a view's depth does."""
    from groundplan import datasets

    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(path)
        return open(path, *args, **kwargs)

    _, records = read_dataset(plan_dataset)
    monkeypatch.setattr(datasets, "open", counting_open, raising=False)
    result = eval_offline(records, ReplayPlanner.from_records(records))
    assert all(m.act == m.obj == m.grd == 100.0 for m in result.groups.values())
    cfg = CorruptionConfig(p_wrong_object=1.0)
    eval_offline(records, CorruptedPlanner(ReplayPlanner.from_records(records), cfg, 22))
    assert opened == []
    records[0].views[0].depth
    assert len(opened) == 1 and "/depth/" in opened[0]


def test_malformed_planner_scores_zero(plan_dataset):
    _, records = read_dataset(plan_dataset)
    result = eval_offline(records, MalformedPlanner())
    for metrics in result.groups.values():
        assert metrics.act == 0.0
        assert metrics.obj == 0.0
        assert metrics.grd == 0.0
    assert all(r.error for r in result.rows)


def test_offline_invariant_to_record_order(plan_dataset, rng):
    _, records = read_dataset(plan_dataset)
    planner = ReplayPlanner.from_records(records)
    straight = eval_offline(records, planner)
    shuffled = list(records)
    rng.shuffle(shuffled)
    permuted = eval_offline(shuffled, planner)
    assert straight.to_json()["groups"] == permuted.to_json()["groups"]


def test_online_oracle_perfect(suite, small_rig):
    result = eval_online(
        suite[:2], oracle_factory, chunk=5, episodes=3, runs=2, seed=5,
        rig=small_rig,
    )
    for key, var in result.variations.items():
        assert var.mean == 1.0
        assert var.std == 0.0


def test_online_reproducible(suite, small_rig):
    kwargs = dict(chunk=5, episodes=2, runs=2, seed=9, rig=small_rig)
    a = eval_online(suite[:2], oracle_factory, **kwargs)
    b = eval_online(suite[:2], oracle_factory, **kwargs)
    assert a.to_json() == b.to_json()


def test_episode_seed_is_injective_enough():
    seen = set()
    for vi in range(8):
        for run in range(5):
            for ep in range(20):
                seen.add(episode_seed(3, vi, run, ep))
    assert len(seen) == 8 * 5 * 20


def test_population_std_example():
    var = VariationResult(runs=[0.8, 1.0, 0.8, 1.0, 0.9])
    assert var.mean == pytest.approx(0.9)
    assert var.std == pytest.approx(0.0894427, abs=1e-6)


def test_report_formats_online_cell():
    result = OnlineResult(variations={"pick+0": VariationResult([0.8, 1.0, 0.8, 1.0, 0.9])})
    table = render_report(result, "table")
    assert "90.0±8.9" in table
    csv = render_report(result, "csv")
    assert csv.splitlines()[0] == "variation,mean,std,runs"


def test_report_empty_results_header_only():
    table = render_report(OfflineResult(groups={}), "table")
    assert table.splitlines() == [table.splitlines()[0]]


def test_json_report_is_fixed_point(plan_dataset):
    _, records = read_dataset(plan_dataset)
    planner = ReplayPlanner.from_records(records)
    result = eval_offline(records, planner)
    rendered = render_report(result, "json")
    back = result_from_json(json.loads(rendered))
    assert render_report(back, "json") == rendered


def test_online_json_roundtrip(suite, small_rig):
    result = eval_online(suite[:1], oracle_factory, chunk=5, episodes=2,
                         runs=2, seed=1, rig=small_rig)
    rendered = render_report(result, "json")
    back = result_from_json(json.loads(rendered))
    assert render_report(back, "json") == rendered


def test_corrupted_sr_monotone_under_p(suite, small_rig):
    task = [suite[0]]
    means = []
    for p in (0.0, 0.5, 1.0):
        factory = corrupt(oracle_factory, CorruptionConfig(p_wrong_object=p, seed=3))
        result = eval_online(task, factory, chunk=5, episodes=10, runs=1,
                             seed=7, rig=small_rig)
        means.append(result.variations[task[0].key].mean)
    assert means[0] >= means[1] >= means[2]
    assert means[0] > means[2]


def test_corrupted_obj_accuracy_matches_rate(tmp_path, suite, small_rig):
    # Monte-Carlo: with p_wrong_object=0.5 over ~400 reference-bearing
    # keysteps, object accuracy lands within 50 +/- 5.
    out = tmp_path / "mc"
    gen_plan_dataset(suite[:2], episodes_per_variation=100, seed=6,
                     out_dir=str(out), rig=small_rig)
    _, records = read_dataset(str(out))
    assert len(records) == 400
    assert all(rec.gt_plan.references() for rec in records)
    base = ReplayPlanner.from_records(records)
    planner = CorruptedPlanner(
        base, CorruptionConfig(p_wrong_object=0.5, seed=13), episode_seed=0
    )
    result = eval_offline(records, planner)
    obj = np.mean([r.obj for r in result.rows])
    assert abs(obj - 50.0) <= 5.0
    # Grounding can only be perfect when every mask matches ground truth.
    grd = np.mean([r.grd for r in result.rows])
    assert grd < 100.0
    assert all(r.grd <= 100.0 for r in result.rows)
