from __future__ import annotations

import itertools
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundplan.planlang import GroundedPlan, GroundedReference, MalformedMarkup, parse_plan
from groundplan.planners import (
    CorruptedPlanner,
    CorruptionConfig,
    EpisodeContext,
    MaskNoisePlanner,
    OraclePlanner,
    ReplayPlanner,
    corrupt,
    oracle_factory,
)
from groundplan.render import render_views
from groundplan.scene import View, ViewSet
from groundplan.simulate import Simulation


class StubPlanner:
    """Constant-output planner for corruption statistics."""

    def __init__(self, text, stacks):
        self.text = text
        self.stacks = stacks

    def plan(self, instruction, views, history, inventory):
        return self.text, [list(s) for s in self.stacks]


def tiny_views():
    ids = np.zeros((8, 8), dtype=np.int32)
    ids[0:2, 0:2] = 1
    ids[4:6, 4:6] = 2
    ids[6:8, 0:2] = 3
    depth = (ids > 0).astype(np.float32)
    return ViewSet([View(depth=depth, ids=ids)])


INVENTORY = [(1, "red block"), (2, "blue block"), (3, "green plate")]


def stub():
    views = tiny_views()
    return StubPlanner("Grasp <p> red block </p><seg>.", [[views[0].ids == 1]]), views


def test_zero_corruption_is_identity():
    base, views = stub()
    planner = CorruptedPlanner(base, CorruptionConfig(), episode_seed=0)
    for _ in range(100):
        text, stacks = planner.plan("x", views, [], INVENTORY)
        assert text == base.text
        assert np.array_equal(stacks[0][0], base.stacks[0][0])


def test_always_malformed_fails_parse_every_call():
    base, views = stub()
    planner = CorruptedPlanner(
        base, CorruptionConfig(p_malformed=1.0), episode_seed=1
    )
    for _ in range(50):
        text, stacks = planner.plan("x", views, [], INVENTORY)
        with pytest.raises(MalformedMarkup):
            parse_plan(text, stacks)


def test_wrong_object_swaps_text_and_masks_consistently():
    base, views = stub()
    planner = CorruptedPlanner(
        base, CorruptionConfig(p_wrong_object=1.0), episode_seed=2
    )
    for _ in range(20):
        text, stacks = planner.plan("x", views, [], INVENTORY)
        plan = parse_plan(text, stacks)
        assert plan.object.text in ("blue block", "green plate")
        swapped_id = {"blue block": 2, "green plate": 3}[plan.object.text]
        assert np.array_equal(plan.object.masks[0], views[0].ids == swapped_id)


def test_wrong_action_keeps_arity():
    base, views = stub()
    planner = CorruptedPlanner(
        base, CorruptionConfig(p_wrong_action=1.0), episode_seed=3
    )
    seen = set()
    for _ in range(40):
        text, stacks = planner.plan("x", views, [], INVENTORY)
        plan = parse_plan(text, stacks)
        assert plan.action != "grasp"
        seen.add(plan.action)
    assert seen <= {"push down", "push forward", "move grasped object"}


def test_corruption_frequency_within_two_percent():
    base, views = stub()
    planner = CorruptedPlanner(
        base, CorruptionConfig(p_wrong_object=0.25), episode_seed=4
    )
    changed = 0
    for _ in range(10000):
        text, _ = planner.plan("x", views, [], INVENTORY)
        changed += text != base.text
    assert abs(changed / 10000 - 0.25) < 0.02


def test_sticky_corruption_constant_within_episode():
    base, views = stub()
    cfg = CorruptionConfig(p_wrong_object=0.5, transient=False, seed=9)
    corrupted_episodes = 0
    for episode_seed in range(40):
        planner = CorruptedPlanner(base, cfg, episode_seed=episode_seed)
        first_corrupted = planner.plan("x", views, [], INVENTORY)[0] != base.text
        corrupted_episodes += first_corrupted
        for _ in range(4):
            text = planner.plan("x", views, [], INVENTORY)[0]
            assert (text != base.text) == first_corrupted
    assert 0 < corrupted_episodes < 40  # both modes appear across episodes


def test_corruption_probabilities_validated():
    with pytest.raises(ValueError):
        CorruptionConfig(p_wrong_object=0.7, p_wrong_action=0.5)
    with pytest.raises(ValueError):
        CorruptionConfig(p_malformed=-0.1)


def test_corrupted_factory_reproducible(suite, small_rig):
    cfg = CorruptionConfig(p_wrong_object=0.5, seed=5)
    factory = corrupt(oracle_factory, cfg)
    task = suite[0]

    def run_once():
        sim = Simulation.sample(task, 3)
        planner = factory(EpisodeContext(sim=sim, task=task, seed=3))
        views = render_views(sim.scene, small_rig.posed(sim.gripper.position))
        return [planner.plan(task.instruction, views, [], sim.inventory())[0]
                for _ in range(6)]

    assert run_once() == run_once()


# -- oracle -----------------------------------------------------------------------


def test_oracle_output_parses_with_id_derived_masks(suite, small_rig):
    for task in suite[:4]:
        sim = Simulation.sample(task, 1)
        planner = OraclePlanner(sim, task)
        views = render_views(sim.scene, small_rig.posed(sim.gripper.position))
        text, stacks = planner.plan(task.instruction, views, [], sim.inventory())
        plan = parse_plan(text, stacks)
        assert plan.action == task.plan[0].action
        for _, ref in plan.references():
            matched = [
                oid for oid, _ in sim.inventory()
                if all(np.array_equal(m, v.ids == oid)
                       for m, v in zip(ref.masks, views))
            ]
            assert len(matched) == 1


def test_oracle_emits_release_when_holding_wrong_object(suite, small_rig):
    task = suite[0]
    sim = Simulation.sample(task, 2)
    distractor = [o for o in sim.scene.objects if "distractor" in o.raw_name][0]
    sim.gripper.position = distractor.position.copy()
    from groundplan.simulate import close_gripper

    sim.step(close_gripper())
    assert sim.gripper.held == distractor.id
    planner = OraclePlanner(sim, task)
    text, _ = planner.plan(
        task.instruction, render_views(sim.scene, small_rig.posed(sim.gripper.position)),
        [], sim.inventory(),
    )
    assert text == "Release."


# -- mask noise -------------------------------------------------------------------


def test_mask_noise_zero_is_identity():
    base, views = stub()
    planner = MaskNoisePlanner(base, 0.0, episode_seed=0)
    _, stacks = planner.plan("x", views, [], INVENTORY)
    assert np.array_equal(stacks[0][0], base.stacks[0][0])


def test_mask_noise_perturbs_proportionally():
    base, views = stub()
    planner = MaskNoisePlanner(base, 0.5, episode_seed=0)
    _, stacks = planner.plan("x", views, [], INVENTORY)
    orig = base.stacks[0][0]
    noisy = stacks[0][0]
    assert not np.array_equal(noisy, orig)
    # Spurious pixels only ever land on valid-depth pixels.
    added = noisy & ~orig
    assert np.all(views[0].depth[added] > 0)


def test_mask_noise_leaves_empty_masks_empty():
    views = tiny_views()
    base = StubPlanner("Grasp <p> x </p><seg>.", [[np.zeros((8, 8), dtype=bool)]])
    planner = MaskNoisePlanner(base, 0.9, episode_seed=1)
    _, stacks = planner.plan("x", views, [], INVENTORY)
    assert not stacks[0][0].any()


# -- replay -----------------------------------------------------------------------


def test_replay_planner_reproduces_records(tmp_path, suite, small_rig):
    from groundplan.datasets import gen_plan_dataset, read_dataset

    gen_plan_dataset(suite[:2], episodes_per_variation=2, seed=1,
                     out_dir=str(tmp_path), rig=small_rig)
    _, records = read_dataset(str(tmp_path))
    planner = ReplayPlanner.from_records(records)
    for rec in records:
        text, stacks = planner.plan(
            rec.instruction, rec.views, list(rec.history), rec.inventory
        )
        assert text == rec.plan_text
    with pytest.raises(KeyError):
        planner.plan("unknown instruction", records[0].views, [], [])


class DigestReplayPlanner:
    """The replay planner keyed on a sha256 of the frames; the reference."""

    def __init__(self, outputs):
        self._outputs = outputs

    @classmethod
    def from_records(cls, records):
        outputs = {}
        for rec in records:
            key = (rec.instruction, tuple(rec.history), rec.views.digest())
            stacks = [ref.masks for _, ref in rec.gt_plan.references()]
            outputs[key] = (rec.plan_text, stacks)
        return cls(outputs)

    def plan(self, instruction, views, history, inventory):
        key = (instruction, tuple(history), views.digest())
        try:
            return self._outputs[key]
        except KeyError:
            raise KeyError(
                "replay planner has no output for this (instruction, history, views) call"
            ) from None


def _answer(planner, instruction, views, history):
    try:
        text, stacks = planner.plan(instruction, views, list(history), [])
    except KeyError as e:
        return "KeyError", str(e)
    return text, [[id(m) for m in stack] for stack in stacks]


def _frames_copy(views, change=None):
    """Copies of the frames, `change(depth, ids)` applied to the first view's."""
    out = []
    for i, v in enumerate(views):
        depth, ids = v.depth.copy(), v.ids.copy()
        if change is not None and i == 0:
            change(depth, ids)
        out.append(View(depth=depth, ids=ids))
    return ViewSet(out)


def assert_lookups_match_reference(records, record, rng, h, w):
    """Add a record repeating another's frames, shuffle, and check that every lookup
    of each record's frames, and of copies with one id, one depth byte or the sign
    of one zero depth changed, gets the digest-keyed reference's answer."""
    # A later record with equal frames but another plan text replaces the earlier one.
    dup = records[int(rng.integers(len(records)))]
    same = dup.views if rng.random() < 0.5 else _frames_copy(dup.views)
    records.append(record(dup.instruction, dup.history, same))
    records = [records[i] for i in rng.permutation(len(records))]

    planner = ReplayPlanner.from_records(records)
    reference = DigestReplayPlanner.from_records(records)
    off_grid = [(r, c) for r in range(h) for c in range(w)
                if r % max(1, h // 16) or c % max(1, w // 16)]

    def flip_depth_byte(depth, ids):
        r, c = off_grid[int(rng.integers(len(off_grid)))]
        depth.reshape(-1).view(np.uint8)[4 * (r * w + c) + int(rng.integers(4))] ^= 1

    def change_id(depth, ids):
        ids[int(rng.integers(h)), int(rng.integers(w))] += 1

    def negate_zero(depth, ids):
        zeros = [(r, c) for r, c in off_grid if depth[r, c] == 0.0] or [(0, 0)]
        depth[zeros[int(rng.integers(len(zeros)))]] = -0.0

    for rec in records:
        lookups = [rec.views, _frames_copy(rec.views),
                   _frames_copy(rec.views, change_id), _frames_copy(rec.views, negate_zero)]
        if off_grid:
            lookups.append(_frames_copy(rec.views, flip_depth_byte))
        for views in lookups:
            for other in records:
                call = (other.instruction, views, other.history)
                assert _answer(planner, *call) == _answer(reference, *call)


@settings(max_examples=200, deadline=None)
@given(
    h=st.integers(1, 80),
    w=st.integers(1, 80),
    n_views=st.integers(1, 3),
    n_records=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_replay_lookup_matches_digest_keyed_reference(h, w, n_views, n_records, seed):
    rng = np.random.default_rng(seed)
    records = []

    def record(instruction, history, views):
        mask = np.zeros((h, w), dtype=bool)
        plan = GroundedPlan("grasp", object=GroundedReference("block", [mask] * n_views))
        return SimpleNamespace(instruction=instruction, history=history, views=views,
                               plan_text=f"plan {len(records)}", gt_plan=plan)

    for _ in range(n_records):
        if records and rng.random() < 0.3:
            views = _frames_copy(records[int(rng.integers(len(records)))].views)
        else:
            views = _frames_copy(ViewSet([
                View(depth=rng.choice([0.0, 0.25, 0.5], size=(h, w)).astype(np.float32),
                     ids=rng.integers(0, 3, size=(h, w), dtype=np.int32))
                for _ in range(n_views)
            ]))
        history = [(), ("a",), ("a", "b")][int(rng.integers(3))]
        records.append(record(["open", "close"][int(rng.integers(2))], history, views))
    assert_lookups_match_reference(records, record, rng, h, w)


def test_replay_lookup_on_read_views_matches_digest_keyed_reference(tmp_path):
    """The lookup check on views read through _views_from_json, whose [oid, runs]
    entries may overlap (later entries win), mixed with plain copies of them: a
    key taken from the runs must equal the key of the decoded frames."""
    from groundplan.datasets import _resolver, _views_from_json, write_depth
    from groundplan.masks import rle_encode
    from groundplan.scene import CameraModel

    (tmp_path / "depth").mkdir()
    inside = _resolver(str(tmp_path))
    files = itertools.count()

    def read_views(rng, h, w, n_views):
        """A reader of one record's views: rectangles of oids 0-3 with holes, depth in files."""
        id_maps, names = [], []
        for _ in range(n_views):
            per_cam = []
            for oid in rng.integers(0, 4, size=int(rng.integers(0, 5))):
                r0, r1 = sorted(rng.integers(0, h + 1, size=2))
                c0, c1 = sorted(rng.integers(0, w + 1, size=2))
                mask = np.zeros((h, w), dtype=bool)
                mask[r0:r1, c0:c1] = rng.random((r1 - r0, c1 - c0)) < rng.choice([0.5, 1.0])
                per_cam.append([int(oid), rle_encode(mask)])
            id_maps.append(per_cam)
            names.append(f"depth/{next(files)}.bin")
            write_depth(str(tmp_path / names[-1]), rng.choice([0.0, 0.25, 0.5], size=(h, w)))
        cameras = [CameraModel(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=w, height=h,
                               rotation=np.eye(3), translation=np.zeros(3))] * n_views
        id_maps = json.loads(json.dumps(id_maps))  # as the reader receives them
        return lambda: _views_from_json(id_maps, names, cameras, inside, "rec.json")

    @settings(max_examples=100, deadline=None)
    @given(h=st.integers(1, 40), w=st.integers(1, 40), n_views=st.integers(1, 3),
           n_records=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def check(h, w, n_views, n_records, seed):
        rng = np.random.default_rng(seed)
        records, readers = [], []

        def record(instruction, history, views):
            mask = np.zeros((h, w), dtype=bool)
            plan = GroundedPlan("grasp", object=GroundedReference("block", [mask] * n_views))
            return SimpleNamespace(instruction=instruction, history=history, views=views,
                                   plan_text=f"plan {len(records)}", gt_plan=plan)

        for _ in range(n_records):
            u = rng.random()
            if records and u < 0.2:  # the same record read again: new objects, equal frames
                views = readers[int(rng.integers(len(readers)))]()
            elif records and u < 0.4:
                views = _frames_copy(records[int(rng.integers(len(records)))].views)
            else:
                readers.append(read_views(rng, h, w, n_views))
                views = readers[-1]()
            for v in views:
                assert v.id_counts == View(depth=v.depth, ids=v.ids).id_counts
            history = [(), ("a",)][int(rng.integers(2))]
            records.append(record(["open", "close"][int(rng.integers(2))], history, views))
        assert_lookups_match_reference(records, record, rng, h, w)

    check()
