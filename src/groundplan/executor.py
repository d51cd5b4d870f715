"""The closed plan-ground-fuse-execute loop.

One episode alternates: render views, ask the planner for the next plan,
parse it, ground its references into a labeled point cloud, let the motion
policy decompose the plan into low-level steps, and execute up to `chunk`
of them before replanning. Everything is recorded on an EpisodeTrace.

The exit rule: the success check runs before the first plan and after each
executed motion, and nowhere else. It ends the episode as "success" when the
task holds, or as "failure" when the task's predicate raises PredicateError.
A planner call whose text does not parse, or whose plan grounds no target
points, is retried, up to PARSE_RETRIES calls per plan; when all fail, the
last one's kind ends the episode, "parse-failure-exhausted" or "failure".
Each plan's motion is cut once, to the chunk and to what is left of the
MAX_STEPS budget, and an episode that spends the budget ends as "failure".
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    ROBOT,
    ROBOT_RADIUS,
    TARGET_LOCATION,
    TARGET_OBJECT,
    DbscanParams,
    LabeledPointCloud,
    categorize,
    dbscan_filter,
    fuse_views,
    pixel_indices,
    sq_norms,
    unproject,
    unproject_pixels,
)
from .jsonfile import fields, read_json_lines, typed
from .planlang import (
    GroundedPlan,
    PlanParseError,
    history_text,
    normalize_text,
    parse_plan,
)
from .planners import EpisodeContext, PlannerFactory
from .render import pixel_rect, render_views
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


# The robot sphere's bound, widened past the rounding of an unprojected point.
_ROBOT_BOUND = ROBOT_RADIUS + 1e-6
_NO_PIXELS = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))


def _robot_pixels(view, cam, gripper: GripperState) -> tuple[np.ndarray, np.ndarray]:
    """(vs, us), in row-major order, of the scene pixels whose point may be a
    robot point: the held object's, and those inside both the pixel rectangle
    and the camera-z span of the robot sphere around the gripper. A point on a
    pixel's ray at depth d has camera z = d, so every point within ROBOT_RADIUS
    of the gripper passes both tests."""
    gp, held = gripper.position, gripper.held
    rect = pixel_rect(cam, gp, _ROBOT_BOUND)
    if rect is not None:
        u0, u1, v0, v1 = rect
        z = (cam.rotation @ gp + cam.translation)[2]
        ids, win = view.ids[v0:v1, u0:u1], view.depth[v0:v1, u0:u1]
        near = (ids != 0) & (win > 0) & (win >= z - _ROBOT_BOUND) & (win <= z + _ROBOT_BOUND)
        if held:
            near &= ids != held  # the held object's pixels are all taken below
        vs, us = pixel_indices(near)
        vs, us = vs + v0, us + u0
    if not held:  # nothing held (id 0 is background, never a scene point): the window alone
        return _NO_PIXELS if rect is None else (vs, us)
    valid, width = view.valid_pixels, view.depth.shape[1]
    pixels = valid[view.ids.ravel()[valid] == held]
    if rect is not None:  # two disjoint row-major runs, which a stable sort merges
        pixels = np.sort(np.concatenate([pixels, vs * width + us]), kind="stable")
    return np.divmod(pixels, width)


def ground_plan(
    plan: GroundedPlan,
    views: ViewSet,
    rig: CameraRig,
    gripper: GripperState,
    config: GroundingConfig = GroundingConfig(),
) -> LabeledPointCloud:
    """Unproject, fuse and categorize one plan's masks against the views.

    The motion policy reads target and robot points only. So the scene pass
    unprojects only the pixels that can become robot points, in view and
    row-major order, and every other valid scene pixel is an obstacle that
    the cloud counts without a point.
    """
    reference_clouds: dict[str, np.ndarray] = {}
    for slot, ref in plan.references():
        per_view = [
            unproject(view.depth, mask, cam, view.valid_pixels)
            for view, mask, cam in zip(views, ref.masks, rig.cameras)
        ]
        cloud = fuse_views(per_view)
        if config.dbscan_enabled:
            cloud = dbscan_filter(cloud, config.dbscan)
        reference_clouds[slot] = cloud

    scene_parts = []
    id_parts = []
    hidden = 0
    for view, cam in zip(views, rig.cameras):
        vs, us = _robot_pixels(view, cam, gripper)
        hidden += view.scene_pixels - len(vs)
        scene_parts.append(unproject_pixels(view.depth, vs, us, cam))
        id_parts.append(view.ids[vs, us])
    scene_points = np.concatenate(scene_parts) if scene_parts else np.empty((0, 3))
    scene_ids = np.concatenate(id_parts) if id_parts else np.empty(0, dtype=np.int32)

    return categorize(
        reference_clouds,
        scene_points,
        gripper.position,
        held_id=gripper.held,
        scene_ids=scene_ids,
        hidden_obstacles=hidden,
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


def _held_height(cloud: LabeledPointCloud) -> float:
    pts = cloud.select(ROBOT)
    if len(pts) < 2:
        return 0.04
    return max(0.03, float(pts[:, 2].max() - pts[:, 2].min()))


def _no_points(plan: GroundedPlan, slot: str, what: str,
               fallback: list[MotionStep]) -> list[MotionStep]:
    """The steps for a reference whose grounded cloud has no points: `fallback`
    when its masks are nonempty (the target sits within the robot radius, so
    its points were labelled robot), else a NoTargetPointsError."""
    ref = getattr(plan, slot)
    if ref is not None and any(np.any(m) for m in ref.masks):
        return fallback
    raise NoTargetPointsError(f"no {what} points in the grounded cloud")


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
        near = robot[np.sqrt(sq_norms(robot - anchor)) <= 0.045]
        return np.concatenate([pts, near]) if len(near) else pts
    near = robot[np.sqrt(sq_norms(robot - gripper.position)) <= 0.035]
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
            # The target sits right under the gripper: close on it.
            return _no_points(plan, "object", "target-object", [close_gripper()])
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
        pts = cloud.select(TARGET_LOCATION)
        if not len(pts):
            # Hovering over the target.
            return _no_points(plan, "location", "target-location", [translate(0.0, 0.0, 0.0)])
        target = pts.mean(axis=0)
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
            # Stroke from here.
            stroke = _legs_toward(pos, pos + direction * PUSH_STROKE, limit=5)
            return _no_points(plan, "object", "target-object", stroke)
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
    raw_text: str
    error: str | None
    plan: GroundedPlan | None
    cloud_counts: dict[str, int]
    motion: list[MotionStep]
    gripper_position: tuple[float, float, float]
    gripper_held: int | None
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


def _plan_signature(plan: GroundedPlan) -> tuple:
    return (
        plan.action,
        tuple((slot, normalize_text(ref.text)) for slot, ref in plan.references()),
    )


def _finished(sim: Simulation) -> str | None:
    """The exit rule's one success check: "success" if the task holds, "failure"
    if its predicate cannot be evaluated, else None (the episode goes on)."""
    try:
        return "success" if sim.success() else None
    except PredicateError:
        return "failure"


def run_episode(
    task: TaskScript,
    seed: int,
    planner_factory: PlannerFactory,
    chunk: int = 5,
    rig: CameraRig | None = None,
    grounding: GroundingConfig = GroundingConfig(),
    store_views: bool = False,
) -> EpisodeTrace:
    """Run one closed-loop episode; deterministic given all arguments.

    With store_views, each keystep step keeps the views its plan was made
    from and the posed cameras that rendered them; other steps keep neither.
    Views are read-only, and steps whose cameras and scene did not change
    share the same `View` objects.
    """
    if chunk < 1:
        raise ValueError("chunk size must be >= 1")
    rig = default_rig() if rig is None else rig
    sim = Simulation.sample(task, seed)
    planner = planner_factory(EpisodeContext(sim=sim, task=task, seed=seed))
    trace = EpisodeTrace(task_key=task.key, group=task.group, instruction=task.instruction,
                         seed=seed, chunk=chunk, inventory=sim.inventory())
    history = trace.history
    last_executed: tuple | None = None
    memo: dict = {}  # each camera's last view; render_views reuses it while unchanged
    terminal = _finished(sim)
    while terminal is None and trace.motion_steps < MAX_STEPS:
        posed_rig = rig.posed(sim.gripper.position)
        views = render_views(sim.scene, posed_rig, memo)
        history_before = tuple(history)
        plan, cloud_counts = None, {}
        # Each attempt that fails leaves its kind in `terminal`, so the last one decides.
        for _ in range(PARSE_RETRIES):
            raw_text, stacks = planner.plan(
                task.instruction, views, list(history), trace.inventory
            )
            trace.planner_calls += 1
            try:
                plan = parse_plan(raw_text, stacks)
            except PlanParseError as e:
                error, terminal = f"{type(e).__name__}: {e}", "parse-failure-exhausted"
                continue
            cloud = ground_plan(plan, views, posed_rig, sim.gripper, grounding)
            try:
                steps = motion_policy(plan, cloud, sim.gripper)
            except NoTargetPointsError as e:
                error, terminal, plan = f"NoTargetPoints: {e}", "failure", None
                continue
            error, terminal, cloud_counts = None, None, cloud.counts()
            break

        keystep, executed = False, []
        if terminal is None:
            # The loop guard leaves budget for one motion, so the plan always
            # executes (an empty one as a no-op, never spinning) and enters the history.
            signature = _plan_signature(plan)
            keystep, last_executed = signature != last_executed, signature
            history.append(history_text(plan))
            budget = min(chunk, MAX_STEPS - trace.motion_steps)
            for motion in (steps or [translate(0.0, 0.0, 0.0)])[:budget]:
                sim.step(motion)
                trace.motion_steps += 1
                executed.append(motion)
                if terminal := _finished(sim):
                    break

        keep_views = store_views and keystep
        trace.steps.append(TraceStep(
            index=len(trace.steps), keystep=keystep, raw_text=raw_text, error=error, plan=plan,
            cloud_counts=cloud_counts, motion=executed,
            gripper_position=tuple(sim.gripper.position), gripper_held=sim.gripper.held,
            history_before=history_before,
            views=views if keep_views else None,
            cameras=list(posed_rig.cameras) if keep_views else None,
        ))

    trace.terminal = terminal or "failure"  # None here: the step budget ran out
    return trace


# -- trace serialization -----------------------------------------------------------


# The fields of a trace file's header line and of each step line, with their JSON
# kinds. The writer writes these fields and `inspect` checks them when it reads.
_TRACE_HEADER = {"task": str, "group": str, "instruction": str, "seed": int, "chunk": int,
                 "terminal": str, "motion_steps": int, "planner_calls": int, "history": [str]}
_TRACE_ROW = {"index": int, "keystep": bool, "raw_text": str, "error": (str, None),
              "action": (str, None), "cloud_counts": dict, "motion": [dict],
              "gripper_position": [float], "gripper_held": (int, None),
              "history_before": [str]}
_TRACE_MOTION = {"kind": str, "delta": ([float], None), "object_id": (int, None),
                 "amount": float}


def trace_to_jsonl(trace: EpisodeTrace, path: str) -> None:
    """One JSON object per line: a header, then one line per step."""
    with open(path, "w") as f:
        header = {name: getattr(trace, name) for name in _TRACE_HEADER if name != "task"}
        header["task"] = trace.task_key
        f.write(json.dumps(header, sort_keys=True) + "\n")
        for s in trace.steps:
            row = {name: getattr(s, name, None) for name in _TRACE_ROW}
            row.update(
                action=s.plan.action if s.plan else None,
                motion=[dict(vars(m)) for m in s.motion],
                gripper_position=list(s.gripper_position),
                history_before=list(s.history_before),
            )
            f.write(json.dumps(row, sort_keys=True) + "\n")


def _trace_row(d: dict) -> dict:
    row = fields(d, _TRACE_ROW)
    for name, n in row["cloud_counts"].items():
        typed(n, int, f"cloud_counts.{name}")
    for i, m in enumerate(row["motion"]):
        fields(m, _TRACE_MOTION, f"motion[{i}]")
    return row


def summarize_trace_file(path: str) -> str:
    """Human-readable trace rendering for the `inspect` subcommand. A line that is
    not JSON, or lacks a field or holds one of another kind, is a JsonFileError
    naming the file and the line's byte offset."""
    header, rows = read_json_lines(path, lambda d: fields(d, _TRACE_HEADER), _trace_row)
    lines = [
        f"task={header['task']} seed={header['seed']} chunk={header['chunk']} "
        f"terminal={header['terminal']} motion_steps={header['motion_steps']} "
        f"planner_calls={header['planner_calls']}"
    ]
    for s in rows:
        mark = "*" if s["keystep"] else " "
        status = s["error"] or s["raw_text"]
        lines.append(f"{mark}[{s['index']:3d}] {status}  (+{len(s['motion'])} motion)")
    return "\n".join(lines)
