from __future__ import annotations

import hashlib
import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundplan.datasets import (
    DatasetReadError,
    _resolver,
    _views_from_json,
    _run_oracle_episodes,
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
from groundplan.masks import rle_decode, rle_encode
from groundplan.objectives import iou
from groundplan.planlang import history_text
from groundplan.planners import CorruptionConfig, corrupt, oracle_factory
from groundplan.scene import CameraModel, View, ViewSet, default_rig
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


def test_generation_keeps_views_only_at_keysteps(suite, small_rig):
    traces = _run_oracle_episodes(suite[:3], 1, 0, small_rig)
    steps = [s for per in traces.values() for t in per for s in t.steps]
    assert any(not s.keystep for s in steps)
    for s in steps:
        assert (s.views is not None) == s.keystep
        assert (s.cameras is not None) == s.keystep


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


@pytest.mark.parametrize("victim, field, value", [
    ("records/", "history", 5),
    ("records/", "cameras", "abc"),
    ("manifest.json", "counts", [1]),
    ("manifest.json", "counts", {"a": "x"}),
    ("manifest.json", "seed", "x"),
], ids=["record-history-int", "record-cameras-string", "manifest-counts-list",
        "manifest-count-string", "manifest-seed-string"])
def test_wrong_field_type_reports_file(tmp_path, suite, small_rig, capsys, victim, field, value):
    from groundplan.cli import main

    man = gen_plan_dataset(suite[:1], 1, 0, str(tmp_path), rig=small_rig)
    name = victim if victim == "manifest.json" else [f for f in man.files if f.startswith(victim)][0]
    path = tmp_path / name
    payload = json.loads(path.read_text())
    payload[field] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(DatasetReadError) as err:
        read_dataset(str(tmp_path))
    assert name in str(err.value)
    assert main(["eval-offline", "--data", str(tmp_path)]) == 1
    assert name in capsys.readouterr().err


# -- untrusted paths and shapes ------------------------------------------------------


def _copy_depth_outside(rec, data):
    outside = data.parent / "outside.bin"
    outside.write_bytes((data / rec["depth_files"][0]).read_bytes())
    return outside


def _relative_escape(rec, data):
    _copy_depth_outside(rec, data)
    rec["depth_files"][0] = "../outside.bin"


def _absolute_escape(rec, data):
    rec["depth_files"][0] = str(_copy_depth_outside(rec, data))


def _symlink_escape(rec, data):
    outside = _copy_depth_outside(rec, data)
    os.remove(data / rec["depth_files"][0])
    os.symlink(outside, data / rec["depth_files"][0])


def _wrong_resolution(rec, data):
    write_depth(str(data / rec["depth_files"][1]), np.zeros((8, 8), dtype=np.float32))


def _bad_runs(rec, data):
    rec["id_maps"][1][0][1][0] += 1


def _set_oid(value):
    def edit(rec, data):
        rec["id_maps"][1][0][0] = value
    return edit


def _float_run(rec, data):
    rec["id_maps"][1][0][1][0] = float(rec["id_maps"][1][0][1][0])


def _set_field(name, value):
    def edit(rec, data):
        rec[name] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    (_relative_escape, "depth_files[0] '../outside.bin' escapes the dataset directory"),
    (_absolute_escape, "escapes the dataset directory"),
    (_symlink_escape, "escapes the dataset directory"),
    (lambda rec, data: rec["depth_files"].pop(), "depth_files has 1 entries for 2 cameras"),
    (lambda rec, data: rec["id_maps"].pop(), "id_maps has 1 entries for 2 cameras"),
    (_wrong_resolution, "depth_files[1] "),
    (_bad_runs, "field 'id_maps[1][0][1]' must sum to 9216, got 9217"),
    (_set_oid(3.7), "field 'id_maps[1][0][0]' must be an integer, got 3.7"),
    (_set_oid("x"), "field 'id_maps[1][0][0]' must be an integer, got 'x'"),
    (_set_oid(2**40), f"field 'id_maps[1][0][0]' must be an int32, got {2**40}"),
    (_float_run, "field 'id_maps[1][0][1]' must be a list of integers, got ["),
    (_set_field("instruction", 7), "field 'instruction' must be a string, got 7"),
    (_set_field("plan_text", None), "field 'plan_text' must be a string, got None"),
    (_set_field("history", "ab"), "field 'history' must be a list of strings, got 'ab'"),
    (_set_field("history", [3]), "field 'history' must be a list of strings, got [3]"),
    (_set_field("episode", 3), "field 'episode' must be a string, got 3"),
    (_set_field("group", None), "field 'group' must be a string, got None"),
    (_set_field("kind", "xyz"), "field 'kind' must be one of plan, long, refexp, got 'xyz'"),
    (_set_field("keystep", "0"), "field 'keystep' must be an integer, got '0'"),
], ids=["depth-relative-escape", "depth-absolute-escape", "depth-symlink-escape",
        "depth-files-short",
        "id-maps-short", "depth-resolution", "id-map-runs",
        "id-map-oid-float", "id-map-oid-string", "id-map-oid-int64", "id-map-run-float",
        "instruction-int", "plan-text-null", "history-string", "history-int-item",
        "episode-int", "group-null", "kind-unknown", "keystep-string"])
def test_malformed_record_reports_file_and_field(tmp_path, suite, small_rig, edit, message):
    data = tmp_path / "data"
    man = gen_plan_dataset(suite[:1], 1, 0, str(data), rig=small_rig)
    name = [f for f in man.files if f.startswith("records/")][0]
    rec = json.loads((data / name).read_text())
    edit(rec, data)
    (data / name).write_text(json.dumps(rec))
    with pytest.raises(DatasetReadError) as err:
        read_dataset(str(data))
    assert name in str(err.value)
    assert message in str(err.value)


@pytest.mark.parametrize("files", ["records", ["records/e00000_0.json", 3]],
                         ids=["string", "int-item"])
def test_manifest_files_must_be_a_list_of_strings(tmp_path, suite, small_rig, capsys, files):
    from groundplan.cli import main

    gen_plan_dataset(suite[:1], 1, 0, str(tmp_path), rig=small_rig)
    payload = json.loads((tmp_path / "manifest.json").read_text())
    payload["files"] = files
    (tmp_path / "manifest.json").write_text(json.dumps(payload))
    message = f"field 'files' must be a list of strings, got {files!r}"
    with pytest.raises(DatasetReadError) as err:
        read_dataset(str(tmp_path))
    assert "manifest.json" in str(err.value) and message in str(err.value)
    assert main(["eval-offline", "--data", str(tmp_path)]) == 1
    assert message in capsys.readouterr().err


def test_manifest_record_name_must_stay_inside_the_dataset(tmp_path, suite, small_rig):
    data = tmp_path / "data"
    man = gen_plan_dataset(suite[:1], 1, 0, str(data), rig=small_rig)
    i, name = next((i, f) for i, f in enumerate(man.files) if f.startswith("records/"))
    (tmp_path / "outside.json").write_bytes((data / name).read_bytes())
    payload = json.loads((data / "manifest.json").read_text())
    payload["files"][i] = "records/../../outside.json"
    (data / "manifest.json").write_text(json.dumps(payload))
    with pytest.raises(DatasetReadError) as err:
        read_dataset(str(data))
    assert "manifest.json" in str(err.value)
    assert f"files[{i}] 'records/../../outside.json' escapes the dataset directory" in str(err.value)


def test_resolver_agrees_with_realpath(tmp_path):
    data = tmp_path / "data"
    (data / "records").mkdir(parents=True)
    (data / "depth").mkdir()
    (data / "depth" / "f.bin").write_bytes(b"")
    (tmp_path / "outside.bin").write_bytes(b"")
    os.symlink(tmp_path / "outside.bin", data / "depth" / "out_file")
    os.symlink(data / "depth", data / "in_dir")
    os.symlink(tmp_path, data / "out_dir")
    root = os.path.realpath(data)
    inside = _resolver(str(data))
    parts = ["depth", "records", "in_dir", "out_dir", "out_file", "f.bin", "missing",
             "..", ".", "", str(tmp_path / "outside.bin")]

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(parts), min_size=1, max_size=4))
    def check(names):
        name = "/".join(names)
        real = os.path.realpath(os.path.join(root, name))
        if os.path.commonpath([root, real]) == root and real != root:
            assert inside(name, "manifest.json", "files[0]") == os.path.join(root, name)
        else:
            with pytest.raises(DatasetReadError):
                inside(name, "manifest.json", "files[0]")

    check()


# -- lazily decoded id maps -----------------------------------------------------------


def eager_views(id_maps, depths) -> ViewSet:
    """The reference: each view's id map decoded into one int32 frame when the
    record is read, later [oid, runs] entries winning where they overlap."""
    views = []
    for per_cam, depth in zip(id_maps, depths):
        ids = np.zeros(depth.shape, dtype=np.int32)
        for oid, runs in per_cam:
            ids[rle_decode(runs, depth.shape)] = oid
        views.append(View(depth=depth, ids=ids))
    return ViewSet(views)


def test_lazy_id_maps_match_the_eager_decode(tmp_path):
    (tmp_path / "depth").mkdir()
    inside = _resolver(str(tmp_path))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def check(data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        shapes = data.draw(st.lists(st.tuples(st.integers(1, 40), st.integers(1, 40)),
                                    min_size=1, max_size=3))
        id_maps, names, cameras = [], [], []
        for i, (h, w) in enumerate(shapes):
            per_cam = []
            for oid in data.draw(st.lists(st.integers(1, 6), max_size=5)):
                r0, r1 = sorted(rng.integers(0, h + 1, size=2))
                c0, c1 = sorted(rng.integers(0, w + 1, size=2))
                mask = np.zeros((h, w), dtype=bool)
                mask[r0:r1, c0:c1] = rng.random((r1 - r0, c1 - c0)) < rng.choice([0.3, 1.0])
                per_cam.append([oid, rle_encode(mask)])
            id_maps.append(per_cam)
            names.append(f"depth/v{i}.bin")
            write_depth(str(tmp_path / names[-1]), rng.random((h, w)))
            cameras.append(CameraModel(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=w, height=h,
                                       rotation=np.eye(3), translation=np.zeros(3)))
        id_maps = json.loads(json.dumps(id_maps))  # as the reader receives them
        lazy = _views_from_json(id_maps, names, cameras, inside, "rec.json")
        ref = eager_views(id_maps, [v.depth for v in lazy])

        first = data.draw(st.sampled_from(["ids", "digest", "object_ids", "masks_for"]))
        if first == "digest":
            assert lazy.digest() == ref.digest()
        elif first == "object_ids":
            assert [v.object_ids() for v in lazy] == [v.object_ids() for v in ref]
        elif first == "masks_for":
            assert all(np.array_equal(a, b) for a, b in zip(lazy.masks_for(1), ref.masks_for(1)))
        for v, r in zip(lazy, ref):
            assert v.ids.dtype == np.int32 and v.ids.shape == r.ids.shape
            assert v.ids.tobytes() == r.ids.tobytes()
            assert not v.ids.flags.writeable
            assert v.ids is v.ids
        assert lazy.digest() == ref.digest()
        assert [v.object_ids() for v in lazy] == [v.object_ids() for v in ref]
        assert lazy.visible_ids() == ref.visible_ids()
        for oid in range(8):  # 0 is background, 7 is in no view
            assert all(np.array_equal(a, b)
                       for a, b in zip(lazy.masks_for(oid), ref.masks_for(oid)))

    check()


# -- lazily read depth ------------------------------------------------------------------


def test_lazy_depth_matches_the_eager_read(tmp_path, monkeypatch):
    """A read view opens its depth file only when .depth is first read, and then
    holds what read_depth returns: equal bytes, read-only, one array."""
    from groundplan import datasets

    (tmp_path / "depth").mkdir()
    inside = _resolver(str(tmp_path))
    real, reads = datasets.read_depth, []
    monkeypatch.setattr(datasets, "read_depth", lambda path: reads.append(path) or real(path))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def check(data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        shapes = data.draw(st.lists(st.tuples(st.integers(1, 40), st.integers(1, 40)),
                                    min_size=1, max_size=3))
        id_maps, names, cameras = [], [], []
        for i, (h, w) in enumerate(shapes):
            ids = rng.integers(0, 3, size=(h, w))
            id_maps.append([[oid, rle_encode(ids == oid)] for oid in (1, 2)])
            names.append(f"depth/v{i}.bin")
            depth = rng.choice([0.0, -0.0, 0.5, np.nan, np.inf], size=(h, w))
            write_depth(str(tmp_path / names[-1]), depth * rng.random((h, w)))
            cameras.append(CameraModel(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=w, height=h,
                                       rotation=np.eye(3), translation=np.zeros(3)))
        id_maps = json.loads(json.dumps(id_maps))
        reads.clear()
        lazy = _views_from_json(id_maps, names, cameras, inside, "rec.json")
        assert not reads
        eager = [real(str(tmp_path / name)) for name in names]
        ref = eager_views(id_maps, eager)
        if data.draw(st.booleans()):
            assert lazy.digest() == ref.digest()
        for v, d in zip(lazy, eager):
            assert v.depth.dtype == d.dtype and v.depth.shape == d.shape
            assert v.depth.tobytes() == d.tobytes()
            assert not v.depth.flags.writeable
            assert v.depth is v.depth
        assert lazy.digest() == ref.digest()
        assert len(reads) == len(names)

    check()


def _reshape_depth(path):
    with open(path, "r+b") as f:
        w, h = struct.unpack("<II", f.read(8))
        f.seek(0)
        f.write(struct.pack("<II", w * 2, h // 2))


@pytest.mark.parametrize("change, message", [
    (os.remove, "cannot read depth: No such file or directory"),
    (lambda path: os.truncate(path, 100), "expected 36864 payload bytes"),
    (_reshape_depth, "is 192x48 now, 96x96 when the dataset was read"),
], ids=["deleted", "truncated", "reshaped"])
def test_depth_file_changed_after_reading_is_a_dataset_error(tmp_path, suite, small_rig,
                                                              change, message):
    from groundplan.datasets import _depth_names

    gen_plan_dataset(suite[:1], 1, 0, str(tmp_path), rig=small_rig)
    _, records = read_dataset(str(tmp_path))
    rec = records[0]
    name = _depth_names(rec.episode, rec.keystep, rec.cameras)[0]
    change(str(tmp_path / name))
    with pytest.raises(DatasetReadError) as err:
        rec.views[0].depth
    assert name in str(err.value) and message in str(err.value)
    assert rec.views[1].depth.shape == (96, 96)
