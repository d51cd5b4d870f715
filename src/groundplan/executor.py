"""The closed plan-ground-fuse-execute loop.

One episode alternates: render views, ask the planner for the next plan,
parse it, ground its references into a labeled point cloud, let the motion
policy decompose the plan into low-level steps, and execute up to `chunk`
of them before replanning. Parse failures retry up to three times before
the episode terminates. Everything is recorded on an EpisodeTrace.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    ROBOT,
    TARGET_LOCATION,
    TARGET_OBJECT,
    DbscanParams,
    LabeledPointCloud,
    categorize,
    dbscan_filter,
    fuse_views,
    unproject,
)
from .planlang import (
    GroundedPlan,
    PlanParseError,
    PromptSpec,
    build_prompt,
    history_text,
    parse_plan,
)
from .planners import EpisodeContext, PlannerFactory
from .render import render_views
from .scene import CameraRig, GripperState, ViewSet, default_rig
from .simulate import (
    MAX_TRANSLATE,
    MotionStep,
    Simulation,
    close_gripper,
    open_gripper,
    rotate_held,
    translate,
)
from .tasks import PredicateError, TaskScript

PARSE_RETRIES = 3
MAX_STEPS = 25  # motion-step budget per episode
PUSH_STROKE = 0.06
ROTATE_INCREMENT = math.pi / 2.0


class NoTargetPointsError(RuntimeError):
    """The grounded cloud lacks the labels this plan's motion needs."""


@dataclass(frozen=True)
class GroundingConfig:
    """How planner masks become a labeled point cloud.

    Reference clouds are always fused on the FUSE_VOXEL grid. The DBSCAN
    filter applies per reference cloud and is off by default, matching the
    headline executor configuration; enable it to clean noisy masks.
    """

    dbscan_enabled: bool = False
    dbscan: DbscanParams = field(default_factory=DbscanParams)


def ground_plan(
    plan: GroundedPlan,
    views: ViewSet,
    rig: CameraRig,
    gripper: GripperState,
    config: GroundingConfig = GroundingConfig(),
) -> LabeledPointCloud:
    """Unproject, fuse and categorize one plan's masks against the views."""
    reference_clouds: dict[str, np.ndarray] = {}
    for slot, ref in plan.references():
        per_view = [
            unproject(view.depth, mask, cam)
            for view, mask, cam in zip(views, ref.masks, rig.cameras)
        ]
        cloud = fuse_views(per_view)
        if config.dbscan_enabled:
            cloud = dbscan_filter(cloud, config.dbscan)
        reference_clouds[slot] = cloud

    scene_parts = []
    id_parts = []
    for view, cam in zip(views, rig.cameras):
        pts = unproject(view.depth, view.ids != 0, cam)
        scene_parts.append(pts)
        vs, us = np.nonzero((view.ids != 0) & (view.depth > 0))
        id_parts.append(view.ids[vs, us])
    scene_points = np.concatenate(scene_parts) if scene_parts else np.empty((0, 3))
    scene_ids = np.concatenate(id_parts) if id_parts else np.empty(0, dtype=np.int32)

    return categorize(
        reference_clouds,
        scene_points,
        gripper.position,
        held_id=gripper.held,
        scene_ids=scene_ids,
    )


# -- motion policy ---------------------------------------------------------------


def _legs_toward(start: np.ndarray, target: np.ndarray, limit: int) -> list[MotionStep]:
    """Straight-line translate legs of at most 5 cm each, at most `limit`."""
    delta = target - start
    dist = float(np.linalg.norm(delta))
    if dist < 1e-9:
        return []
    n = max(1, math.ceil(dist / MAX_TRANSLATE))
    step = delta / n
    return [translate(*step) for _ in range(min(n, limit))]


def _label_centroid(cloud: LabeledPointCloud, label: int, what: str) -> np.ndarray:
    pts = cloud.select(label)
    if len(pts) == 0:
        raise NoTargetPointsError(f"no {what} points in the grounded cloud")
    return pts.mean(axis=0)


def _held_height(cloud: LabeledPointCloud) -> float:
    pts = cloud.select(ROBOT)
    if len(pts) < 2:
        return 0.04
    return max(0.03, float(pts[:, 2].max() - pts[:, 2].min()))


def _masks_nonempty(plan: GroundedPlan, slot: str) -> bool:
    ref = getattr(plan, slot)
    return ref is not None and any(np.any(m) for m in ref.masks)


def _target_object_points(cloud: LabeledPointCloud, gripper: GripperState) -> np.ndarray:
    """Target-object points, plus any absorbed into the robot-proximity label.

    Points of the referenced object that sit within the robot radius of an
    empty gripper are labeled robot by precedence; folding the robot points
    adjacent to the visible target back in keeps the centroid estimate
    unbiased during the final approach. Robot points are only trusted near
    the target cloud (or under the gripper when nothing of the target is
    visible), so an unrelated object brushing the gripper cannot hijack the
    estimate.
    """
    pts = cloud.select(TARGET_OBJECT)
    if gripper.held is not None:
        return pts
    robot = cloud.select(ROBOT)
    if not len(robot):
        return pts
    if len(pts):
        anchor = pts.mean(axis=0)
        near = robot[np.linalg.norm(robot - anchor, axis=1) <= 0.045]
        return np.concatenate([pts, near]) if len(near) else pts
    near = robot[np.linalg.norm(robot - gripper.position, axis=1) <= 0.035]
    return near


def motion_policy(
    plan: GroundedPlan, cloud: LabeledPointCloud, gripper: GripperState
) -> list[MotionStep]:
    """Decompose one grounded plan into at most five motion steps.

    Targets come from the labeled cloud, never from simulator ground truth.
    The policy is position-aware so that partial execution (small action
    chunks) still makes progress: it emits the phase the gripper is
    currently in, and a longer-than-budget approach is cut short for the
    next replan to continue.
    """
    pos = gripper.position
    if plan.action == "grasp":
        pts = _target_object_points(cloud, gripper)
        if not len(pts):
            # Nonempty masks with no recoverable points: the target sits
            # right under the gripper; close on it.
            if _masks_nonempty(plan, "object"):
                return [close_gripper()]
            raise NoTargetPointsError("no target-object points in the grounded cloud")
        target = pts.mean(axis=0)
        if float(np.linalg.norm(target - pos)) <= 0.015:
            return [close_gripper()]
        legs = _legs_toward(pos, target, limit=5)
        if len(legs) <= 4:
            return legs + [close_gripper()]
        # Deferred close: stop one leg short so the replan still sees target
        # points outside the robot-proximity radius.
        return legs[:4]
    if plan.action == "move grasped object":
        if not len(cloud.select(TARGET_LOCATION)):
            if _masks_nonempty(plan, "location"):
                return [translate(0.0, 0.0, 0.0)]  # hovering over the target
            raise NoTargetPointsError("no target-location points in the grounded cloud")
        target = _label_centroid(cloud, TARGET_LOCATION, "target-location")
        hover = target + np.array([0.0, 0.0, _held_height(cloud)])
        legs = _legs_toward(pos, hover, limit=5)
        return legs if legs else [translate(0.0, 0.0, 0.0)]
    if plan.action == "release":
        return [open_gripper()]
    if plan.action == "rotate grasped object":
        return [rotate_held(ROTATE_INCREMENT)]
    if plan.action in ("push down", "push forward"):
        direction = (
            np.array([0.0, 0.0, -1.0])
            if plan.action == "push down"
            else np.array([1.0, 0.0, 0.0])
        )
        pts = _target_object_points(cloud, gripper)
        if not len(pts):
            if _masks_nonempty(plan, "object"):
                # Target absorbed into the robot radius: stroke from here.
                return _legs_toward(pos, pos + direction * PUSH_STROKE, limit=5)
            raise NoTargetPointsError("no target-object points in the grounded cloud")
        target = pts.mean(axis=0)
        start = target - direction * (PUSH_STROKE / 2.0)
        end = target + direction * (PUSH_STROKE / 2.0)
        # Mid-stroke detection: picked up again after a partial chunk.
        along = float((pos - start) @ direction)
        lateral = float(np.linalg.norm((pos - start) - along * direction))
        if lateral <= 0.012 and -0.012 <= along <= PUSH_STROKE:
            remaining = end - pos
            if float(np.linalg.norm(remaining)) <= 1e-9:
                return [translate(*(direction * 0.01))]
            return _legs_toward(pos, end, limit=5)
        approach = _legs_toward(pos, start, limit=5)
        if len(approach) > 3:
            return approach[:4]
        return approach + _legs_toward(start, end, limit=5 - len(approach))
    raise ValueError(f"unknown action {plan.action!r}")


# -- episode loop ----------------------------------------------------------------


@dataclass
class TraceStep:
    """One planner invocation and everything that followed it."""

    index: int
    keystep: bool
    prompt: str
    raw_text: str
    error: str | None
    plan: GroundedPlan | None
    cloud_counts: dict[str, int]
    motion: list[MotionStep]
    gripper_position: tuple[float, float, float]
    gripper_held: int | None
    object_positions: dict[int, tuple[float, float, float]]
    history_before: tuple[str, ...]
    views: ViewSet | None = None
    cameras: list | None = None  # posed rig cameras used for this render


@dataclass
class EpisodeTrace:
    task_key: str
    group: str
    instruction: str
    seed: int
    chunk: int
    steps: list[TraceStep] = field(default_factory=list)
    terminal: str = "failure"  # success | failure | parse-failure-exhausted
    motion_steps: int = 0
    planner_calls: int = 0
    history: list[str] = field(default_factory=list)
    inventory: list[tuple[int, str]] = field(default_factory=list)

    @property
    def success(self) -> bool:
        return self.terminal == "success"

    def keystep_indices(self) -> list[int]:
        return [s.index for s in self.steps if s.keystep]


def _plan_signature(plan: GroundedPlan) -> tuple:
    from .planlang import normalize_text

    return (
        plan.action,
        tuple((slot, normalize_text(ref.text)) for slot, ref in plan.references()),
    )


def run_episode(
    task: TaskScript,
    seed: int,
    planner_factory: PlannerFactory,
    chunk: int = 5,
    rig: CameraRig | None = None,
    grounding: GroundingConfig = GroundingConfig(),
    store_views: bool = False,
) -> EpisodeTrace:
    """Run one closed-loop episode; deterministic given all arguments."""
    if chunk < 1:
        raise ValueError("chunk size must be >= 1")
    rig = default_rig() if rig is None else rig
    sim = Simulation.sample(task, seed, rig)
    planner = planner_factory(EpisodeContext(sim=sim, task=task, seed=seed))
    trace = EpisodeTrace(
        task_key=task.key,
        group=task.group,
        instruction=task.instruction,
        seed=seed,
        chunk=chunk,
        inventory=sim.inventory(),
    )
    history: list[str] = []
    last_executed: tuple | None = None

    try:
        if sim.success():
            trace.terminal = "success"
            return trace
    except PredicateError:
        return trace

    while trace.motion_steps < MAX_STEPS:
        posed_rig = rig.posed(sim.gripper.position)
        views = render_views(sim.scene, posed_rig)
        prompt = build_prompt(PromptSpec(
            num_views=rig.num_views,
            instruction=task.instruction,
            history=tuple(history),
        ))
        plan = None
        steps: list[MotionStep] = []
        error: str | None = None
        raw_text = ""
        cloud_counts: dict[str, int] = {}
        last_error_kind = "failure"
        for _ in range(PARSE_RETRIES):
            raw_text, stacks = planner.plan(
                task.instruction, views, list(history), trace.inventory
            )
            trace.planner_calls += 1
            try:
                plan = parse_plan(raw_text, stacks)
            except PlanParseError as e:
                error = f"{type(e).__name__}: {e}"
                last_error_kind = "parse-failure-exhausted"
                plan = None
                continue
            cloud = ground_plan(plan, views, posed_rig, sim.gripper, grounding)
            cloud_counts = cloud.counts()
            try:
                steps = motion_policy(plan, cloud, sim.gripper)
                error = None
                break
            except NoTargetPointsError as e:
                error = f"NoTargetPoints: {e}"
                last_error_kind = "failure"
                plan = None
        if plan is None:
            trace.steps.append(TraceStep(
                index=len(trace.steps), keystep=False, prompt=prompt,
                raw_text=raw_text, error=error, plan=None, cloud_counts={},
                motion=[], gripper_position=tuple(sim.gripper.position),
                gripper_held=sim.gripper.held, object_positions={},
                history_before=tuple(history),
                views=views if store_views else None,
                cameras=list(posed_rig.cameras) if store_views else None,
            ))
            trace.terminal = last_error_kind
            trace.history = history
            return trace

        if not steps:
            steps = [translate(0.0, 0.0, 0.0)]  # consume budget; never spin
        signature = _plan_signature(plan)
        keystep = signature != last_executed
        executed: list[MotionStep] = []
        history_before = tuple(history)
        succeeded = False
        fatal = False
        for motion in steps[: min(chunk, len(steps))]:
            if trace.motion_steps >= MAX_STEPS:
                break
            sim.step(motion)
            trace.motion_steps += 1
            executed.append(motion)
            if len(executed) == 1:
                history.append(history_text(plan))
                last_executed = signature
            try:
                if sim.success():
                    succeeded = True
                    break
            except PredicateError:
                fatal = True  # broken predicate counts as episode failure
                break

        trace.steps.append(TraceStep(
            index=len(trace.steps),
            keystep=keystep and bool(executed),
            prompt=prompt,
            raw_text=raw_text,
            error=error,
            plan=plan,
            cloud_counts=cloud_counts,
            motion=executed,
            gripper_position=tuple(sim.gripper.position),
            gripper_held=sim.gripper.held,
            object_positions={
                o.id: tuple(o.position) for o in sim.scene.objects
            },
            history_before=history_before,
            views=views if store_views else None,
            cameras=list(posed_rig.cameras) if store_views else None,
        ))
        if succeeded:
            trace.terminal = "success"
            break
        if fatal:
            break

    trace.history = history
    return trace


# -- trace serialization -----------------------------------------------------------


def trace_to_jsonl(trace: EpisodeTrace, path: str) -> None:
    """One JSON object per line: a header, then one line per step."""
    with open(path, "w") as f:
        header = {
            "task": trace.task_key,
            "group": trace.group,
            "instruction": trace.instruction,
            "seed": trace.seed,
            "chunk": trace.chunk,
            "terminal": trace.terminal,
            "motion_steps": trace.motion_steps,
            "planner_calls": trace.planner_calls,
            "history": trace.history,
        }
        f.write(json.dumps(header, sort_keys=True) + "\n")
        for s in trace.steps:
            row = {
                "index": s.index,
                "keystep": s.keystep,
                "raw_text": s.raw_text,
                "error": s.error,
                "action": s.plan.action if s.plan else None,
                "cloud_counts": s.cloud_counts,
                "motion": [
                    {"kind": m.kind, "delta": m.delta, "object_id": m.object_id,
                     "amount": m.amount}
                    for m in s.motion
                ],
                "gripper_position": list(s.gripper_position),
                "gripper_held": s.gripper_held,
                "history_before": list(s.history_before),
            }
            f.write(json.dumps(row, sort_keys=True) + "\n")


def summarize_trace_file(path: str) -> str:
    """Human-readable trace rendering for the `inspect` subcommand."""
    lines = []
    with open(path) as f:
        header = json.loads(f.readline())
        lines.append(
            f"task={header['task']} seed={header['seed']} chunk={header['chunk']} "
            f"terminal={header['terminal']} motion_steps={header['motion_steps']} "
            f"planner_calls={header['planner_calls']}"
        )
        for line in f:
            s = json.loads(line)
            mark = "*" if s["keystep"] else " "
            status = s["error"] or s["raw_text"]
            lines.append(
                f"{mark}[{s['index']:3d}] {status}  "
                f"(+{len(s['motion'])} motion)"
            )
    return "\n".join(lines)
