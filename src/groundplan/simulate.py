"""Kinematic tabletop simulation: scene sampling and motion stepping.

The gripper is a point with a 3 cm grasp radius. Motion is purely kinematic:
translations are clamped to 5 cm per step, a held object moves rigidly with
the gripper, releasing settles the object straight down onto whatever is
underneath, and a gripper path passing through a prismatic slider drives its
joint along the slider axis. No forces, no collision response.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .colors import nearest_color
from .scene import (
    Box,
    Cylinder,
    GripperState,
    Prismatic,
    Scene,
    SceneObject,
    yaw_matrix,
)
from .tasks import TaskScript, check_success

MAX_TRANSLATE = 0.05
GRASP_RADIUS = 0.03
GRIPPER_HOME = (0.0, 0.0, 0.28)

WORKSPACE_X = (-0.17, 0.17)
WORKSPACE_Y = (-0.22, 0.22)
PLACEMENT_ATTEMPTS = 1000

# Palette for sampled distractors; role colors are excluded per task.
DISTRACTOR_COLORS = (
    ("green", (0, 128, 0)),
    ("orange", (255, 165, 0)),
    ("purple", (128, 0, 128)),
    ("cyan", (0, 255, 255)),
    ("gray", (128, 128, 128)),
    ("magenta", (255, 0, 255)),
)


class PlacementError(RuntimeError):
    """Rejection sampling could not produce a non-overlapping layout."""


class InvalidMotionError(ValueError):
    """A motion step was applied to an object that cannot accept it."""


# -- motion steps -------------------------------------------------------------


@dataclass(frozen=True)
class MotionStep:
    kind: str  # translate | close_gripper | open_gripper | slide_joint | rotate_held
    delta: tuple[float, float, float] | None = None
    object_id: int | None = None
    amount: float = 0.0


def translate(dx: float, dy: float, dz: float) -> MotionStep:
    return MotionStep(kind="translate", delta=(float(dx), float(dy), float(dz)))


def close_gripper() -> MotionStep:
    return MotionStep(kind="close_gripper")


def open_gripper() -> MotionStep:
    return MotionStep(kind="open_gripper")


def slide_joint(object_id: int, dfraction: float) -> MotionStep:
    return MotionStep(kind="slide_joint", object_id=object_id, amount=float(dfraction))


def rotate_held(dyaw: float) -> MotionStep:
    return MotionStep(kind="rotate_held", amount=float(dyaw))


# -- scene sampling -----------------------------------------------------------


def _place(rng, obj: SceneObject, placed: list[tuple[np.ndarray, float]], z: float,
           task: TaskScript, seed: int) -> None:
    """Place obj clear of `placed`, then add its (position, bounding radius)."""
    r = obj.bounding_radius()
    xlo, xhi = WORKSPACE_X
    ylo, yhi = WORKSPACE_Y
    for _ in range(PLACEMENT_ATTEMPTS):
        x = rng.uniform(xlo + r, xhi - r) if xhi - r > xlo + r else (xlo + xhi) / 2
        y = rng.uniform(ylo + r, yhi - r) if yhi - r > ylo + r else (ylo + yhi) / 2
        obj.position = np.array([x, y, z])
        ok = all(
            np.linalg.norm(obj.position - position) >= r + radius
            for position, radius in placed
        )
        if ok:
            placed.append((obj.position, obj.bounding_radius()))
            return
    raise PlacementError(
        f"unsatisfiable layout for task {task.key} seed {seed} "
        f"after {PLACEMENT_ATTEMPTS} attempts"
    )


def sample_scene(task: TaskScript, seed: int) -> Scene:
    """Deterministically sample a scene for (task, seed).

    Role objects come first (ids 1..n in spec order), then 0-3 distractors.
    Placements are rejection-sampled until pairwise center distances exceed
    the sum of bounding radii.
    """
    digest = int(task.digest()[:16], 16)
    rng = np.random.default_rng(np.random.SeedSequence([seed & (2**64 - 1), digest]))

    role_objects: list[tuple[SceneObject, float]] = []
    roles: dict[str, int] = {}
    for i, spec in enumerate(task.objects):
        shape = spec.build_shape()
        yaw = spec.fixed_yaw if spec.fixed_yaw is not None else rng.uniform(0, 2 * math.pi)
        obj = SceneObject(
            id=i + 1,
            raw_name=spec.raw_name,
            color=spec.color,
            shape=shape,
            position=np.zeros(3),
            yaw=float(yaw),
            graspable=spec.graspable,
            is_location=spec.is_location,
            color_varies=spec.color_varies,
        )
        z = spec.height if spec.height is not None else obj.rest_z()
        role_objects.append((obj, z))
        roles[spec.role] = obj.id

    # Large objects first: rejection sampling then always finds room for the
    # small ones.
    objects: list[SceneObject] = []
    placed: list[tuple[np.ndarray, float]] = []
    for obj, z in sorted(role_objects, key=lambda t: (-t[0].bounding_radius(), t[0].id)):
        _place(rng, obj, placed, z, task, seed)
        objects.append(obj)
    objects.sort(key=lambda o: o.id)

    excluded = {
        nearest_color(spec.color)
        for spec in task.objects
        if spec.color_varies
    }
    palette = [c for c in DISTRACTOR_COLORS if c[0] not in excluded]
    n_distract = int(rng.integers(task.distractors.min_count,
                                  task.distractors.max_count + 1))
    for k in range(n_distract):
        kind = ("block", "cylinder")[int(rng.integers(0, 2))]
        color = palette[int(rng.integers(0, len(palette)))][1]
        shape = (
            Box(half_extents=np.array([0.02, 0.02, 0.02]))
            if kind == "block"
            else Cylinder(radius=0.02, height=0.04)
        )
        obj = SceneObject(
            id=len(task.objects) + k + 1,
            raw_name=f"distractor{k}_{kind}",
            color=color,
            shape=shape,
            position=np.zeros(3),
            yaw=float(rng.uniform(0, 2 * math.pi)),
            graspable=True,
            color_varies=True,
        )
        _place(rng, obj, placed, obj.rest_z(), task, seed)
        objects.append(obj)

    return Scene(objects=objects, roles=roles)


# -- motion stepping ----------------------------------------------------------


def _segment_hits_box(p0: np.ndarray, p1: np.ndarray, center: np.ndarray,
                      half: np.ndarray, yaw: float) -> bool:
    rot = yaw_matrix(-yaw)
    a = rot @ (p0 - center)
    b = rot @ (p1 - center)
    d = b - a
    tmin, tmax = 0.0, 1.0
    for i in range(3):
        if abs(d[i]) < 1e-12:
            if abs(a[i]) > half[i]:
                return False
            continue
        t1 = (-half[i] - a[i]) / d[i]
        t2 = (half[i] - a[i]) / d[i]
        tmin = max(tmin, min(t1, t2))
        tmax = min(tmax, max(t1, t2))
        if tmin > tmax:
            return False
    return True


def _settle(scene: Scene, obj: SceneObject) -> None:
    """Drop a released object straight down onto its support.

    Supports are the table plus any object under the released one's center.
    A small interpenetration (released slightly inside a support) snaps up
    onto the support top; deep overlaps are left alone.
    """
    h2 = obj.height() / 2.0
    rest = h2  # table
    for other in scene.objects:
        if other.id == obj.id:
            continue
        horiz = float(np.linalg.norm((obj.position - other.position)[:2]))
        if horiz > other.horizontal_radius():
            continue
        top = other.top_z()
        if top <= obj.bottom_z() + 0.025:
            rest = max(rest, top + h2)
    if rest < obj.position[2] or rest - obj.position[2] <= 0.025:
        obj.position = np.array([obj.position[0], obj.position[1], rest])


def step_motion(
    scene: Scene, gripper: GripperState, step: MotionStep
) -> tuple[Scene, GripperState]:
    """Apply one motion step; pure function returning fresh state."""
    scene = scene.copy()
    gripper = gripper.copy()

    if step.kind == "translate":
        d = np.asarray(step.delta, dtype=float)
        norm = float(np.linalg.norm(d))
        if norm > MAX_TRANSLATE:
            d = d * (MAX_TRANSLATE / norm)
        p0 = gripper.position
        p1 = p0 + d
        if gripper.held is not None:
            held_obj = scene.object_by_id(gripper.held)
            held_obj.position = p1 + gripper.held_offset
        for obj in scene.objects:
            if not isinstance(obj.shape, Prismatic) or obj.id == gripper.held:
                continue
            s = obj.shape
            if _segment_hits_box(p0, p1, obj.slider_center(), s.slider_half, obj.yaw):
                axis_world = yaw_matrix(obj.yaw) @ s.axis
                df = float(d @ axis_world) / s.travel
                if s.ratchet:
                    df = max(df, 0.0)
                s.fraction = float(np.clip(s.fraction + df, 0.0, 1.0))
        gripper.position = p1
        return scene, gripper

    if step.kind == "close_gripper":
        if not gripper.open:
            return scene, gripper
        best = None
        for obj in scene.objects:
            if not obj.graspable:
                continue
            dist = float(np.linalg.norm(obj.position - gripper.position))
            if dist <= GRASP_RADIUS and (best is None or dist < best[0]):
                best = (dist, obj)
        if best is None:
            return scene, gripper  # nothing in reach: no-op
        _, obj = best
        gripper.open = False
        gripper.held = obj.id
        gripper.held_offset = obj.position - gripper.position
        return scene, gripper

    if step.kind == "open_gripper":
        if gripper.held is not None:
            _settle(scene, scene.object_by_id(gripper.held))
            gripper.held = None
            gripper.held_offset = None
        gripper.open = True
        return scene, gripper

    if step.kind == "slide_joint":
        obj = scene.object_by_id(step.object_id)
        if not isinstance(obj.shape, Prismatic):
            raise InvalidMotionError(
                f"slide_joint on non-articulated object {step.object_id}"
            )
        obj.shape.fraction = float(np.clip(obj.shape.fraction + step.amount, 0.0, 1.0))
        return scene, gripper

    if step.kind == "rotate_held":
        if gripper.held is not None:
            obj = scene.object_by_id(gripper.held)
            obj.yaw = (obj.yaw + step.amount) % (2.0 * math.pi)
        return scene, gripper

    raise InvalidMotionError(f"unknown motion kind {step.kind!r}")


# -- episode-facing wrapper -----------------------------------------------------


class Simulation:
    """Owns one episode's mutable scene + gripper; everything else is shared."""

    def __init__(self, scene: Scene, task: TaskScript):
        self.scene = scene.copy()
        self.task = task
        self.gripper = GripperState(position=np.array(GRIPPER_HOME))

    @classmethod
    def sample(cls, task: TaskScript, seed: int) -> "Simulation":
        return cls(sample_scene(task, seed), task)

    def step(self, motion: MotionStep) -> None:
        self.scene, self.gripper = step_motion(self.scene, self.gripper, motion)

    def success(self) -> bool:
        return check_success(self.scene, self.gripper, self.task)

    def inventory(self) -> list[tuple[int, str]]:
        return self.scene.inventory()

