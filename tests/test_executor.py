from __future__ import annotations

import json

import numpy as np
import pytest

from groundplan.datasets import extract_keysteps
from groundplan.executor import (
    GroundingConfig,
    NoTargetPointsError,
    motion_policy,
    run_episode,
    summarize_trace_file,
    trace_to_jsonl,
)
from groundplan.geometry import OBSTACLE, TARGET_OBJECT, LabeledPointCloud
from groundplan.planlang import GroundedPlan, GroundedReference, history_text
from groundplan.planners import CorruptionConfig, corrupt, oracle_factory
from groundplan.scene import GripperState
from groundplan.simulate import Simulation, translate
from groundplan.tasks import PredicateError


def cloud_with(points_by_label):
    pts, labels = [], []
    for label, points in points_by_label.items():
        for p in points:
            pts.append(p)
            labels.append(label)
    return LabeledPointCloud(np.array(pts, dtype=float), np.array(labels))


def full_masks(k=2, shape=(8, 8)):
    return [np.ones(shape, dtype=bool) for _ in range(k)]


def grasp_plan(text="red block"):
    return GroundedPlan("grasp", object=GroundedReference(text, full_masks()))


class EmptyMaskPlanner:
    """Names a graspable object whose masks are empty in every view."""

    def plan(self, instruction, views, history, inventory):
        empty = [np.zeros(v.ids.shape, dtype=bool) for v in views]
        return "Grasp <p> red block </p><seg>.", [empty]


# -- motion policy ----------------------------------------------------------------


def test_grasp_eight_cm_away_is_three_steps():
    cloud = cloud_with({TARGET_OBJECT: [(0.08, 0.0, 0.0)]})
    grip = GripperState(position=np.zeros(3))
    steps = motion_policy(grasp_plan(), cloud, grip)
    assert [s.kind for s in steps] == ["translate", "translate", "close_gripper"]


def test_release_is_single_open():
    cloud = cloud_with({})
    grip = GripperState(position=np.zeros(3))
    steps = motion_policy(GroundedPlan("release"), cloud, grip)
    assert [s.kind for s in steps] == ["open_gripper"]


def test_rotate_is_single_step():
    grip = GripperState(position=np.zeros(3))
    steps = motion_policy(GroundedPlan("rotate grasped object"), cloud_with({}), grip)
    assert [s.kind for s in steps] == ["rotate_held"]


def test_subplans_capped_at_five_steps():
    cloud = cloud_with({TARGET_OBJECT: [(0.9, 0.0, 0.0)]})
    grip = GripperState(position=np.zeros(3))
    steps = motion_policy(grasp_plan(), cloud, grip)
    assert len(steps) <= 5
    assert all(s.kind == "translate" for s in steps)


def test_grasp_without_points_or_masks_raises():
    plan = GroundedPlan(
        "grasp", object=GroundedReference("x", [np.zeros((8, 8), dtype=bool)])
    )
    cloud = cloud_with({OBSTACLE: [(0.5, 0.5, 0.0)]})
    grip = GripperState(position=np.zeros(3))
    with pytest.raises(NoTargetPointsError):
        motion_policy(plan, cloud, grip)


def test_move_without_location_points_raises():
    plan = GroundedPlan(
        "move grasped object",
        location=GroundedReference("x", [np.zeros((8, 8), dtype=bool)]),
    )
    grip = GripperState(position=np.zeros(3))
    with pytest.raises(NoTargetPointsError):
        motion_policy(plan, cloud_with({}), grip)


def test_push_stroke_passes_through_centroid():
    cloud = cloud_with({TARGET_OBJECT: [(0.0, 0.0, 0.03)]})
    grip = GripperState(position=np.array([0.0, 0.0, 0.06]))
    steps = motion_policy(
        GroundedPlan("push down", object=GroundedReference("b", full_masks())),
        cloud, grip,
    )
    pos = grip.position.copy()
    zs = [pos[2]]
    for s in steps:
        assert s.kind == "translate"
        pos = pos + np.array(s.delta)
        zs.append(pos[2])
    assert min(zs) <= 0.0 + 1e-9  # 6 cm stroke through z=0.03


def test_motion_policy_reaches_estimate_in_simulator(suite, small_rig):
    # End-to-end: execute the emitted grasp steps; the gripper must land
    # within 1 cm of the estimated centroid before closing.
    from groundplan.executor import ground_plan
    from groundplan.planlang import parse_plan
    from groundplan.planners import OraclePlanner
    from groundplan.render import render_views

    task = suite[0]
    sim = Simulation.sample(task, 5)
    target = sim.scene.role_object("target")
    sim.gripper.position = target.position + np.array([0.1, 0.05, 0.1])
    planner = OraclePlanner(sim, task)
    posed = small_rig.posed(sim.gripper.position)
    views = render_views(sim.scene, posed)
    text, stacks = planner.plan(task.instruction, views, [], sim.inventory())
    plan = parse_plan(text, stacks)
    cloud = ground_plan(plan, views, posed, sim.gripper, GroundingConfig())
    steps = motion_policy(plan, cloud, sim.gripper)
    assert steps[-1].kind == "close_gripper"
    for s in steps:
        sim.step(s)
    assert sim.gripper.held == target.id
    assert float(np.linalg.norm(sim.gripper.position - target.position)) < 0.03


# -- run_episode ------------------------------------------------------------------


def test_oracle_episode_succeeds(suite, small_rig):
    trace = run_episode(suite[0], 7, oracle_factory, chunk=5, rig=small_rig)
    assert trace.terminal == "success"
    assert trace.motion_steps <= 25
    assert trace.planner_calls >= 1


def test_run_episode_deterministic(suite, small_rig):
    a = run_episode(suite[2], 3, oracle_factory, chunk=5, rig=small_rig)
    b = run_episode(suite[2], 3, oracle_factory, chunk=5, rig=small_rig)
    assert a.terminal == b.terminal
    assert a.history == b.history
    assert [s.raw_text for s in a.steps] == [s.raw_text for s in b.steps]
    assert [tuple(s.gripper_position) for s in a.steps] == [
        tuple(s.gripper_position) for s in b.steps
    ]


def test_history_fidelity(suite, small_rig):
    trace = run_episode(suite[2], 9, oracle_factory, chunk=1, rig=small_rig)
    rebuilt = []
    for step in trace.steps:
        assert list(step.history_before) == rebuilt
        if step.motion and step.plan is not None:
            rebuilt.append(history_text(step.plan))
    assert trace.history == rebuilt


def test_step_budget_respected(suite, small_rig):
    cfg = CorruptionConfig(p_wrong_object=0.8, seed=1)
    factory = corrupt(oracle_factory, cfg)
    for seed in range(5):
        trace = run_episode(suite[0], seed, factory, chunk=5, rig=small_rig)
        assert trace.motion_steps <= 25
        assert sum(len(s.motion) for s in trace.steps) == trace.motion_steps


def test_chunk_one_issues_at_least_as_many_calls(suite, small_rig):
    for seed in range(4):
        c1 = run_episode(suite[0], seed, oracle_factory, chunk=1, rig=small_rig)
        c5 = run_episode(suite[0], seed, oracle_factory, chunk=5, rig=small_rig)
        assert c1.planner_calls >= c5.planner_calls


def test_zero_probability_corruption_equals_oracle(suite, small_rig):
    base = run_episode(suite[1], 11, oracle_factory, chunk=5, rig=small_rig)
    noop = corrupt(oracle_factory, CorruptionConfig(seed=42))
    wrapped = run_episode(suite[1], 11, noop, chunk=5, rig=small_rig)
    assert [s.raw_text for s in base.steps] == [s.raw_text for s in wrapped.steps]
    assert base.terminal == wrapped.terminal


class ReleasePlanner:
    """Plans `Release.` on every call; the class is its own planner factory."""

    def __init__(self, ctx=None):
        pass

    def plan(self, instruction, views, history, inventory):
        return "Release.", []


class MalformedThenEmptyMaskPlanner(EmptyMaskPlanner):
    """Two calls whose text does not parse, then empty masks: the last retry decides."""

    calls = 0

    def plan(self, instruction, views, history, inventory):
        self.calls += 1
        if self.calls < 3:
            return "Grasp <p> red block", []
        return super().plan(instruction, views, history, inventory)


# Each way an episode ends: (planner, success-check outcomes, terminal, planner
# calls, motion steps, and the last step's keystep, action, error prefix and
# motion count). Given outcomes, the k-th success check returns or raises
# outcomes[k] (False past the last) and every plan decomposes into three motions;
# otherwise the task's predicate and the motion policy decide.
TERMINAL_PATHS = {
    "success-at-start": (ReleasePlanner, [True], "success", 0, 0, None),
    "predicate-error-at-start": (ReleasePlanner, [PredicateError], "failure", 0, 0, None),
    "malformed": (corrupt(oracle_factory, CorruptionConfig(p_malformed=1.0, seed=0)), None,
                  "parse-failure-exhausted", 3, 0, (False, None, "MalformedMarkup:", 0)),
    "empty-masks": (lambda ctx: EmptyMaskPlanner(), None, "failure", 3, 0,
                    (False, None, "NoTargetPoints:", 0)),
    "parse-then-empty-masks": (lambda ctx: MalformedThenEmptyMaskPlanner(), None, "failure", 3, 0,
                               (False, None, "NoTargetPoints:", 0)),
    "success-mid-chunk": (ReleasePlanner, [False, False, True], "success", 1, 2,
                          (True, "release", None, 2)),
    "predicate-error-after-motion": (ReleasePlanner, [False, PredicateError], "failure", 1, 1,
                                     (True, "release", None, 1)),
    "step-budget": (ReleasePlanner, [], "failure", 9, 25, (False, "release", None, 1)),
}


@pytest.mark.parametrize("path", TERMINAL_PATHS)
def test_each_way_an_episode_ends(monkeypatch, suite, small_rig, path):
    from groundplan import executor

    factory, outcomes, terminal, calls, motion_steps, last = TERMINAL_PATHS[path]
    if outcomes is not None:
        checks = iter(outcomes)

        def success(sim):
            outcome = next(checks, False)
            if outcome is PredicateError:
                raise PredicateError("scripted")
            return outcome

        monkeypatch.setattr(Simulation, "success", success)
        monkeypatch.setattr(executor, "motion_policy",
                            lambda plan, cloud, gripper: [translate(0.0, 0.0, 0.0)] * 3)
    trace = run_episode(suite[0], 1, factory, chunk=5, rig=small_rig, store_views=True)
    assert (trace.terminal, trace.planner_calls, trace.motion_steps) == (
        terminal, calls, motion_steps)
    assert sum(len(s.motion) for s in trace.steps) == trace.motion_steps
    if last is None:
        assert trace.steps == [] and trace.history == []
        return
    keystep, action, error, motions = last
    assert len(trace.steps) == (calls if action else 1)  # failed retries share one step
    step = trace.steps[-1]
    assert step.index == len(trace.steps) - 1
    assert step.keystep is keystep
    assert (step.plan and step.plan.action) == action
    assert step.error is None if error is None else step.error.startswith(error)
    assert len(step.motion) == motions
    assert bool(step.cloud_counts) is (action is not None)
    assert (step.views is None, step.cameras is None) == (not keystep, not keystep)
    assert step.history_before == tuple(trace.history[:len(trace.steps) - 1])
    assert step.raw_text
    assert len(step.gripper_position) == 3 and step.gripper_held is None


def test_success_implies_predicate_holds(suite, small_rig):
    from groundplan.tasks import check_success

    task = suite[3]
    trace = run_episode(task, 2, oracle_factory, chunk=5, rig=small_rig)
    assert trace.success
    # Replay the episode motion against a fresh simulation and re-check.
    sim = Simulation.sample(task, 2)
    for step in trace.steps:
        for m in step.motion:
            sim.step(m)
    assert check_success(sim.scene, sim.gripper, task)


def test_keystep_flags_mark_new_subplans(suite, small_rig):
    trace = run_episode(suite[2], 4, oracle_factory, chunk=5, rig=small_rig)
    indices = extract_keysteps(trace)
    assert indices[0] == 0
    assert indices == sorted(set(indices))
    texts = [trace.steps[i].raw_text for i in indices]
    assert len(set(texts)) == len(texts)  # each keystep starts a new subplan


def test_trace_jsonl_roundtrip(tmp_path, suite, small_rig):
    trace = run_episode(suite[0], 3, oracle_factory, chunk=5, rig=small_rig)
    path = tmp_path / "trace.jsonl"
    trace_to_jsonl(trace, str(path))
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0]["terminal"] == "success"
    assert len(lines) - 1 == len(trace.steps)
    summary = summarize_trace_file(str(path))
    assert "terminal=success" in summary


# -- golden trace -----------------------------------------------------------------


def _golden_arms():
    from groundplan.geometry import DbscanParams
    from groundplan.planners import with_mask_noise

    noisy = corrupt(
        with_mask_noise(oracle_factory, 0.2, seed=3),
        CorruptionConfig(p_wrong_object=0.3, p_malformed=0.1, transient=True, seed=11),
    )
    dbscan = GroundingConfig(dbscan_enabled=True, dbscan=DbscanParams(eps=0.008, min_pts=5))
    return [
        (oracle_factory, 5, GroundingConfig()),
        (oracle_factory, 1, GroundingConfig()),
        (corrupt(oracle_factory, CorruptionConfig(p_malformed=1.0, seed=0)), 5, GroundingConfig()),
        (noisy, 5, dbscan),
        (lambda ctx: EmptyMaskPlanner(), 5, GroundingConfig()),
    ]


# sha256 over the trace_to_jsonl bytes and keystep ViewSet digests of the
# panel below. It pins every serialized trace field for all three
# terminals, so a change to the episode loop that alters any output fails.
GOLDEN_TRACE_DIGEST = "a1481de4b1b8c0cc480d82a26de79ae0b8aa4a21a0bf0aa319d1e0b2a93d0e89"


def test_golden_trace_digest(tmp_path, suite):
    import hashlib

    from groundplan.scene import default_rig

    rig = default_rig(96)
    path = tmp_path / "trace.jsonl"
    h = hashlib.sha256()
    terminals = set()
    for factory, chunk, grounding in _golden_arms():
        for task in suite:
            for seed in (1, 2):
                trace = run_episode(task, seed, factory, chunk=chunk, rig=rig,
                                    grounding=grounding, store_views=True)
                terminals.add(trace.terminal)
                trace_to_jsonl(trace, str(path))
                h.update(path.read_bytes())
                for step in trace.steps:
                    if step.keystep:
                        h.update(step.views.digest().encode())
    assert terminals == {"success", "failure", "parse-failure-exhausted"}
    assert h.hexdigest() == GOLDEN_TRACE_DIGEST


class _RecordedPlanner:
    def __init__(self, inner, record):
        self.inner, self.record = inner, record

    def plan(self, *args):
        return self.record("plan", self.inner.plan)(*args)


# The executor globals the benchmark wraps (`bench/layers.py`), looked up at call time.
_TRACED_EXECUTOR_CALLS = ("render_views", "ground_plan", "unproject", "fuse_views",
                          "dbscan_filter", "categorize", "parse_plan", "motion_policy")

# sha256 over the calls the golden panel makes to those globals, to
# Simulation.sample, step and success and to the planner, in call order, each
# raised exception marked after its call. Recorded before the episode loop was
# rewritten around one exit rule.
GOLDEN_CALLS_DIGEST = "8e049d66f101b30c2350a0cbff19de79d6583d82ea3cd9dd7699e0e011233818"


def test_golden_panel_calls_match_recorded_sequence(monkeypatch, suite):
    """A reordered stage, a call made more or less often, or a function bound at
    import time, whose span the benchmark would silently lose, changes the hash."""
    import hashlib

    from groundplan import executor
    from groundplan.scene import default_rig

    calls: list[str] = []

    def record(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            try:
                return fn(*args, **kwargs)
            except Exception as e:
                calls.append(f"{name}!{type(e).__name__}")
                raise
        return call

    for name in _TRACED_EXECUTOR_CALLS:
        monkeypatch.setattr(executor, name, record(name, getattr(executor, name)))
    sample = vars(Simulation)["sample"].__func__
    monkeypatch.setattr(Simulation, "sample", classmethod(record("sample", sample)))
    for name in ("step", "success"):
        monkeypatch.setattr(Simulation, name, record(name, getattr(Simulation, name)))
    rig = default_rig(96)
    for factory, chunk, grounding in _golden_arms():
        def recorded_factory(ctx, factory=factory):
            return _RecordedPlanner(factory(ctx), record)
        for task in suite:
            for seed in (1, 2):
                run_episode(task, seed, recorded_factory, chunk=chunk, rig=rig,
                            grounding=grounding)
    assert set(calls) >= {*_TRACED_EXECUTOR_CALLS, "sample", "step", "success", "plan"}
    assert hashlib.sha256("\n".join(calls).encode()).hexdigest() == GOLDEN_CALLS_DIGEST


@pytest.mark.parametrize("arm", range(4), ids=["oracle-chunk5", "oracle-chunk1",
                                               "malformed", "noisy-dbscan"])
def test_reused_frames_match_a_full_render_every_step(monkeypatch, suite, arm):
    from groundplan import executor
    from groundplan.render import render_views
    from groundplan.scene import default_rig

    renders, reused = 0, 0
    prev: list = []

    def checked(scene, rig, memo=None):
        nonlocal renders, reused, prev
        views = render_views(scene, rig, memo)
        assert views.digest() == render_views(scene, rig).digest()
        assert len(memo) <= len(rig.cameras)
        renders += 1
        reused += sum(v is p for v, p in zip(views, prev))
        prev = list(views)
        return views

    monkeypatch.setattr(executor, "render_views", checked)
    factory, chunk, grounding = _golden_arms()[arm]
    episodes = 0
    for task in suite:
        for seed in (1, 2):
            run_episode(task, seed, factory, chunk=chunk, rig=default_rig(96),
                        grounding=grounding)
            episodes += 1
            prev = []
    assert renders >= episodes
    # Every planner call fails to parse, so each episode renders only once.
    assert reused == 0 if arm == 2 else reused > 0
