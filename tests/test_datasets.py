from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest

from groundplan.datasets import (
    DatasetReadError,
    extract_keysteps,
    gen_long_dataset,
    gen_long_horizon,
    gen_plan_dataset,
    gen_refexp_dataset,
    joint_instruction,
    joiner_templates,
    read_dataset,
    read_depth,
    write_dataset,
    write_depth,
)
from groundplan.executor import run_episode
from groundplan.objectives import iou
from groundplan.planlang import history_text
from groundplan.planners import CorruptionConfig, corrupt, oracle_factory
from groundplan.scene import default_rig
from groundplan.tasks import task_from_json, task_to_json


def tree_digest(root):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            h.update(open(path, "rb").read())
    return h.hexdigest()


def recolor(task, new_variation, color):
    payload = task_to_json(task)
    payload["variation"] = new_variation
    payload["objects"][0]["color"] = color
    return task_from_json(payload)


# -- keystep extraction -------------------------------------------------------------


def test_three_subplan_task_yields_three_keysteps(suite, small_rig):
    task = suite[2]  # grasp, move, release
    assert len(task.plan) == 3
    trace = run_episode(task, 1, oracle_factory, chunk=5, rig=small_rig)
    assert len(extract_keysteps(trace)) == 3


def test_single_subplan_task_yields_keystep_zero(suite, small_rig):
    task = suite[5]  # open_drawer: one subplan
    assert len(task.plan) == 1
    trace = run_episode(task, 1, oracle_factory, chunk=5, rig=small_rig)
    assert extract_keysteps(trace) == [0]


def test_keysteps_subset_and_increasing(suite, small_rig):
    factory = corrupt(oracle_factory, CorruptionConfig(p_wrong_object=0.4, seed=2))
    for seed in range(25):
        task = suite[seed % len(suite)]
        trace = run_episode(task, seed, factory, chunk=1, rig=small_rig)
        if not trace.steps:
            continue
        ks = extract_keysteps(trace)
        valid = {s.index for s in trace.steps}
        assert set(ks) <= valid
        assert ks == sorted(set(ks))


def test_empty_trace_rejected():
    from groundplan.executor import EpisodeTrace

    with pytest.raises(ValueError):
        extract_keysteps(EpisodeTrace(
            task_key="x", group="L1", instruction="i", seed=0, chunk=5
        ))


# -- plan dataset ---------------------------------------------------------------


def test_plan_dataset_count_formula(tmp_path, suite, small_rig):
    # 2 variations x 3 episodes, 4 subplans each -> 24 records.
    screw = [t for t in suite if t.key == "screw_bulb+0"][0]
    assert len(screw.plan) == 4
    pair = [screw, recolor(screw, 1, [0, 255, 0])]
    man = gen_plan_dataset(pair, episodes_per_variation=3, seed=4,
                           out_dir=str(tmp_path), rig=small_rig)
    assert man.total_records == 24
    on_disk = [f for f in man.files if f.startswith("records/")]
    assert len(on_disk) == 24
    _, records = read_dataset(str(tmp_path))
    assert len(records) == 24


def test_zero_episodes_empty_manifest(tmp_path, suite, small_rig):
    man = gen_plan_dataset(suite[:2], episodes_per_variation=0, seed=0,
                           out_dir=str(tmp_path), rig=small_rig)
    assert man.total_records == 0
    assert man.counts == {suite[0].key: 0, suite[1].key: 0}
    assert [f for f in man.files if f.startswith("records/")] == []


def test_mean_keysteps_reported(tmp_path, suite, small_rig):
    man = gen_plan_dataset(suite[:2], episodes_per_variation=2, seed=0,
                           out_dir=str(tmp_path), rig=small_rig)
    assert man.mean_keysteps_per_episode == pytest.approx(
        man.total_records / man.total_episodes
    )
    # Reference scale: ~15k tuples from 31 variations x 100 episodes
    # implies a mean near 4.8 keysteps per episode.
    assert 15000 / (31 * 100) == pytest.approx(4.84, abs=0.05)


def test_generation_byte_deterministic(tmp_path, suite, small_rig):
    a = tmp_path / "a"
    b = tmp_path / "b"
    gen_plan_dataset(suite[:2], 2, 7, str(a), rig=small_rig)
    gen_plan_dataset(suite[:2], 2, 7, str(b), rig=small_rig)
    assert tree_digest(a) == tree_digest(b)


# Builtin suite, 96 px default rig, 2 episodes per variation, seed 5.
# Dataset bytes are part of the reproducibility contract: a change that
# moves one of these digests has to say why.
GOLDEN = {
    "plan": (gen_plan_dataset, 32,
             "0500a62f3edc1cfc303406d164b14315a36b0365e00148db153ba96d6822e94d"),
    "refexp": (gen_refexp_dataset, 110,
               "dd986558b9a5639ab55c81eb33aaebd0952595d933b4612ec75ad2d0b7802e04"),
    "long": (gen_long_dataset, 64,
             "8cf127262cdc0e340d6009c89b5a23146fed76f463315bdf05e2f41a51f9cf06"),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_generated_bytes_match_golden_digest(tmp_path, suite, kind):
    gen, records, digest = GOLDEN[kind]
    man = gen(suite, episodes_per_variation=2, seed=5, out_dir=str(tmp_path),
              rig=default_rig(96))
    assert man.total_records == records
    assert tree_digest(tmp_path) == digest


def test_gt_masks_self_consistent(tmp_path, suite, small_rig):
    gen_plan_dataset(suite[2:4], 2, 3, str(tmp_path), rig=small_rig)
    _, records = read_dataset(str(tmp_path))
    for rec in records:
        for _, ref in rec.gt_plan.references():
            oid = [o for o, name in rec.inventory if name == ref.text]
            assert len(oid) == 1
            for mask, view in zip(ref.masks, rec.views):
                assert iou(mask, view.ids == oid[0]) == 1.0


def test_history_telescopes(tmp_path, suite, small_rig):
    gen_plan_dataset(suite[:3], 2, 9, str(tmp_path), rig=small_rig)
    _, records = read_dataset(str(tmp_path))
    by_episode = {}
    for rec in records:
        by_episode.setdefault(rec.episode, []).append(rec)
    for recs in by_episode.values():
        recs.sort(key=lambda r: r.keystep)
        assert [r.keystep for r in recs] == list(range(len(recs)))
        for prev, cur in zip(recs, recs[1:]):
            assert list(cur.history) == list(prev.history) + [
                history_text(prev.gt_plan)
            ]


def test_oracle_failure_names_task_and_seed(tmp_path, small_rig, suite):
    # A task whose success predicate can never hold makes generation fail.
    payload = task_to_json(suite[5])
    payload["success"] = {"kind": "joint_at_least", "object": "drawer",
                          "threshold": 2.0}
    doomed = task_from_json(payload)
    with pytest.raises(RuntimeError) as err:
        gen_plan_dataset([doomed], 1, 5, str(tmp_path), rig=small_rig)
    assert "open_drawer+0" in str(err.value)
    assert "seed" in str(err.value)


# -- refexp dataset ----------------------------------------------------------------


def test_refexp_counts_match_recount_oracle(tmp_path, suite, small_rig):
    man = gen_refexp_dataset(suite[:2], 2, 5, str(tmp_path), rig=small_rig)
    _, records = read_dataset(str(tmp_path))
    assert man.total_records == len(records)
    # Independent recount: scan instance-id maps per (episode, keystep).
    seen = {}
    for rec in records:
        key = (rec.episode, rec.keystep)
        if key not in seen:
            visible = set()
            for view in rec.views:
                visible |= {int(i) for i in np.unique(view.ids) if i != 0}
            inventory_ids = {oid for oid, _ in rec.inventory}
            seen[key] = len(visible & inventory_ids)
    assert sum(seen.values()) == man.total_records


def test_refexp_query_template_and_masks(tmp_path, suite, small_rig):
    gen_refexp_dataset(suite[:1], 1, 2, str(tmp_path), rig=small_rig)
    _, records = read_dataset(str(tmp_path))
    names = dict()
    for rec in records:
        names.update({oid: n for oid, n in rec.inventory})
        assert rec.query == f"Please segment one of the {names[rec.object_id]}"
        for mask, view in zip(rec.gt_masks, rec.views):
            assert np.array_equal(mask, view.ids == rec.object_id)
        assert any(mask.any() for mask in rec.gt_masks)  # visible somewhere


# -- long horizon ------------------------------------------------------------------


def test_joiner_template_zero():
    assert joint_instruction(
        "push the red button",
        "stack the blue block on the green block",
        seed=0,
    ) == "First, push the red button, then stack the blue block on the green block."


def test_joiner_deterministic_and_table_driven():
    templates = joiner_templates()
    assert len(templates) == 4
    for seed in range(8):
        once = joint_instruction("a b", "c d", seed)
        again = joint_instruction("a b", "c d", seed)
        assert once == again
        assert once == templates[seed % 4].format(a="a b", b="c d")


def test_long_horizon_record_structure(suite, small_rig):
    # Episode A with 2 plans + episode B with 3 plans -> 5 records;
    # the first record of B carries history of length 2.
    trace_a = run_episode(suite[0], 1, oracle_factory, chunk=5,
                          rig=small_rig, store_views=True)
    trace_b = run_episode(suite[2], 1, oracle_factory, chunk=5,
                          rig=small_rig, store_views=True)
    assert len(extract_keysteps(trace_a)) == 2
    assert len(extract_keysteps(trace_b)) == 3
    records = gen_long_horizon(trace_a, trace_b, seed=0, episode_id="p00000")
    assert len(records) == 5
    assert [r.keystep for r in records] == [0, 1, 2, 3, 4]
    first_of_b = records[2]
    assert len(first_of_b.history) == 2
    joint = joint_instruction(trace_a.instruction, trace_b.instruction, 0)
    assert all(r.instruction == joint for r in records)
    # B-part histories start with all of A's executed plan texts.
    a_texts = [history_text(trace_a.steps[i].plan)
               for i in extract_keysteps(trace_a)]
    for rec in records[2:]:
        assert list(rec.history[:2]) == a_texts


def test_long_horizon_rejects_same_variation(suite, small_rig):
    trace = run_episode(suite[0], 1, oracle_factory, chunk=5,
                        rig=small_rig, store_views=True)
    with pytest.raises(ValueError):
        gen_long_horizon(trace, trace, seed=0)


def test_long_dataset_roundtrip(tmp_path, suite, small_rig):
    man = gen_long_dataset(suite[:2], 1, 3, str(tmp_path), rig=small_rig)
    back, records = read_dataset(str(tmp_path))
    assert back.kind == "long"
    assert len(records) == man.total_records
    for rec in records:
        assert rec.pair is not None
        assert len(rec.history) == rec.keystep


# -- on-disk format ----------------------------------------------------------------


def test_depth_file_roundtrip(tmp_path, rng):
    depth = rng.uniform(0, 3, size=(17, 23)).astype(np.float32)
    path = tmp_path / "d.bin"
    write_depth(str(path), depth)
    raw = path.read_bytes()
    assert len(raw) == 8 + 17 * 23 * 4
    assert np.array_equal(read_depth(str(path)), depth)


def test_depth_file_truncation_reports_offset(tmp_path, rng):
    depth = rng.uniform(0, 3, size=(4, 4)).astype(np.float32)
    path = tmp_path / "d.bin"
    write_depth(str(path), depth)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(DatasetReadError) as err:
        read_depth(str(path))
    assert "d.bin" in str(err.value)
    assert err.value.offset > 0


def test_dataset_roundtrip_field_exact(tmp_path, suite, small_rig):
    src = tmp_path / "src"
    gen_plan_dataset(suite[:3], 2, 11, str(src), rig=small_rig)
    manifest, records = read_dataset(str(src))
    assert len(records) >= 10
    dst = tmp_path / "dst"
    write_dataset(manifest, records, str(dst))
    manifest2, records2 = read_dataset(str(dst))
    assert manifest2.to_json() == manifest.to_json()
    for a, b in zip(records, records2):
        assert (a.episode, a.keystep, a.instruction) == (b.episode, b.keystep, b.instruction)
        assert a.history == b.history
        assert a.plan_text == b.plan_text
        assert a.inventory == b.inventory
        for va, vb in zip(a.views, b.views):
            assert np.array_equal(va.depth, vb.depth)
            assert np.array_equal(va.ids, vb.ids)
        for (sa, ra), (sb, rb) in zip(a.gt_plan.references(), b.gt_plan.references()):
            assert sa == sb and ra.text == rb.text
            for ma, mb in zip(ra.masks, rb.masks):
                assert np.array_equal(ma, mb)


def test_empty_dataset_roundtrip(tmp_path, suite, small_rig):
    man = gen_plan_dataset(suite[:1], 0, 0, str(tmp_path), rig=small_rig)
    back, records = read_dataset(str(tmp_path))
    assert records == []
    assert back.total_records == 0


def test_corrupt_record_reports_file_and_offset(tmp_path, suite, small_rig):
    gen_plan_dataset(suite[:1], 1, 0, str(tmp_path), rig=small_rig)
    man, _ = read_dataset(str(tmp_path))
    victim = [f for f in man.files if f.startswith("records/")][0]
    path = os.path.join(str(tmp_path), victim)
    with open(path, "r+") as f:
        payload = f.read()
        f.seek(0)
        f.write(payload[:40] + "#" + payload[41:])
    with pytest.raises(DatasetReadError) as err:
        read_dataset(str(tmp_path))
    assert victim in str(err.value)
    assert "byte" in str(err.value)


@pytest.mark.parametrize("victim, field", [("manifest.json", "counts"), ("records/", "plan_text")])
def test_missing_field_reports_file_and_field(tmp_path, suite, small_rig, capsys, victim, field):
    from groundplan.cli import main

    man = gen_plan_dataset(suite[:1], 1, 0, str(tmp_path), rig=small_rig)
    name = victim if victim == "manifest.json" else [f for f in man.files if f.startswith(victim)][0]
    path = tmp_path / name
    payload = json.loads(path.read_text())
    del payload[field]
    path.write_text(json.dumps(payload))
    with pytest.raises(DatasetReadError) as err:
        read_dataset(str(tmp_path))
    assert name in str(err.value)
    assert f"missing field '{field}'" in str(err.value)
    assert main(["eval-offline", "--data", str(tmp_path)]) == 1
    assert f"missing field '{field}'" in capsys.readouterr().err
