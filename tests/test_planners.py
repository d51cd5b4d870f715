from __future__ import annotations

import numpy as np
import pytest

from groundplan.planlang import MalformedMarkup, parse_plan
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
