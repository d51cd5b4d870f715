"""Task scripts: per-task object roles, plan annotations and success predicates.

A task script is the one-time annotation that makes a scripted task
generatable: which objects must exist, the subplan sequence over their
roles, and a success predicate decidable from scene + gripper state alone.
Suites are plain JSON so new tasks are data, not code.

This module owns the success predicate tree. `predicate_terms` is the one
walk over it: it yields the terms other than `all_of`, depth-first, and
`check_success`, the oracle's joint targets and the suite reader all go
through it. `_TERMS` is the one table of term kinds, their evaluators and
the fields each term must hold as a JSON number.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from importlib import resources

import numpy as np

from .jsonfile import read_json
from .planlang import ACTIONS
from .scene import GripperState, Scene, SceneObject, Shape, shape_from_json

GROUPS = ("L1", "L2", "L3", "L4")


class PredicateError(KeyError):
    """A success predicate referenced a role or id missing from the scene."""


@dataclass(frozen=True)
class ObjectSpec:
    """One required object role in a task."""

    role: str
    raw_name: str
    shape: dict
    color: tuple[int, int, int]
    color_varies: bool = False
    graspable: bool = False
    is_location: bool = False
    height: float | None = None  # fixed center z; default rests on the table
    fixed_yaw: float | None = None

    def build_shape(self) -> Shape:
        return shape_from_json(self.shape)


@dataclass(frozen=True)
class PlanSlot:
    action: str
    object_role: str | None = None
    location_role: str | None = None

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise ValueError(f"unknown action {self.action!r}")


@dataclass(frozen=True)
class DistractorConfig:
    min_count: int = 0
    max_count: int = 2

    def __post_init__(self):
        if not 0 <= self.min_count <= self.max_count <= 3:
            raise ValueError("distractor counts must satisfy 0 <= min <= max <= 3")


@dataclass(frozen=True)
class TaskScript:
    name: str
    variation: int
    group: str
    instruction: str
    objects: tuple[ObjectSpec, ...]
    plan: tuple[PlanSlot, ...]
    success: dict
    distractors: DistractorConfig = DistractorConfig()
    tags: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.plan:
            raise ValueError("plan sequence must be non-empty")
        if self.group not in GROUPS:
            raise ValueError(f"group must be one of {GROUPS}")
        roles = {o.role for o in self.objects}
        for slot in self.plan:
            for role in (slot.object_role, slot.location_role):
                if role is not None and role not in roles:
                    raise ValueError(f"plan references unknown role {role!r}")

    @property
    def key(self) -> str:
        return f"{self.name}+{self.variation}"

    def digest(self) -> str:
        """sha256 of the task's suite JSON. Every sampled scene seeds from it,
        so it is computed once per task."""
        return self._digest

    @cached_property
    def _digest(self) -> str:
        return hashlib.sha256(
            json.dumps(task_to_json(self), sort_keys=True).encode()
        ).hexdigest()


# -- success predicates -------------------------------------------------------


def _resolve(scene: Scene, role: str) -> SceneObject:
    oid = scene.roles.get(role)
    if oid is None:
        raise PredicateError(f"predicate references unbound role {role!r}")
    try:
        return scene.object_by_id(oid)
    except KeyError as e:
        raise PredicateError(str(e)) from e


def _object_within(pred: dict, scene: Scene, gripper: GripperState) -> bool:
    obj = _resolve(scene, pred["object"])
    loc = _resolve(scene, pred["location"])
    if gripper.held == obj.id:
        return False  # a held object does not rest anywhere
    horiz = float(np.linalg.norm((obj.position - loc.position)[:2]))
    if horiz > pred["tol"]:
        return False
    # Resting on top of the location, or inside its volume.
    resting = abs(obj.bottom_z() - loc.top_z()) <= 0.015
    lo, hi = loc.aabb()
    inside = bool(np.all(obj.position >= lo) and np.all(obj.position <= hi))
    return resting or inside


def _object_near(pred: dict, scene: Scene, gripper: GripperState) -> bool:
    obj = _resolve(scene, pred["object"])
    loc = _resolve(scene, pred["location"])
    if pred.get("require_held", False) and gripper.held != obj.id:
        return False
    return float(np.linalg.norm(obj.position - loc.position)) <= pred["tol"]


def _joint_fraction(pred: dict, scene: Scene) -> float:
    obj = _resolve(scene, pred["object"])
    if not hasattr(obj.shape, "fraction"):
        raise PredicateError(f"role {pred['object']!r} is not articulated")
    return obj.shape.fraction


# kind -> (evaluator, the fields a term of that kind must hold as JSON numbers)
_TERMS = {
    "object_within": (_object_within, ("tol",)),
    "object_near": (_object_near, ("tol",)),
    "joint_at_least": (
        lambda pred, scene, _: _joint_fraction(pred, scene) >= pred["threshold"], ("threshold",)),
    "joint_at_most": (
        lambda pred, scene, _: _joint_fraction(pred, scene) <= pred["threshold"], ("threshold",)),
}


def predicate_terms(pred: dict):
    """The predicate's terms other than all_of, depth-first. Lazy, so a caller
    that stops early never walks, or trips over, the rest of the tree."""
    if pred["kind"] == "all_of":
        for term in pred["terms"]:
            yield from predicate_terms(term)
    else:
        yield pred


def _term_evaluator(kind: str):
    if kind not in _TERMS:
        raise ValueError(f"unknown predicate kind {kind!r}")
    return _TERMS[kind][0]


def _check_term(term: dict) -> None:
    """Raise ValueError unless the term's kind is known and its numeric fields are
    JSON numbers (a bool is not one), so a bad term fails when its suite is read."""
    kind = term["kind"]
    _term_evaluator(kind)
    for name in _TERMS[kind][1]:
        value = term[name]
        if type(value) not in (int, float):
            raise ValueError(f"success term {kind} field {name!r} must be a number, "
                             f"got {value!r}")


def check_success(scene: Scene, gripper: GripperState, task: TaskScript) -> bool:
    """Evaluate the task's success predicate against the current state. The first
    false term ends the check, so a broken term after it raises nothing."""
    return all(_term_evaluator(term["kind"])(term, scene, gripper)
               for term in predicate_terms(task.success))


# -- suite (de)serialization ---------------------------------------------------


def task_to_json(task: TaskScript) -> dict:
    return {
        "name": task.name,
        "variation": task.variation,
        "group": task.group,
        "tags": list(task.tags),
        "instruction": task.instruction,
        # vars, not dataclasses.asdict: asdict deep-copies every field, and every sampled
        # scene digests its task.
        "objects": [{**vars(o), "color": list(o.color)} for o in task.objects],
        "plan": [
            {
                "action": s.action,
                "object": s.object_role,
                "location": s.location_role,
            }
            for s in task.plan
        ],
        "success": task.success,
        "distractors": {
            "min": task.distractors.min_count,
            "max": task.distractors.max_count,
        },
    }


def task_from_json(d: dict) -> TaskScript:
    """A task from its suite JSON. Shapes, colours and predicate term kinds are
    checked here, so that a bad suite fails when read, where its file is known."""
    for o in d["objects"]:
        shape_from_json(o["shape"])  # sample_scene builds a fresh shape per scene
        color = o["color"]
        if len(color) != 3 or not all(type(c) is int and 0 <= c <= 255 for c in color):
            raise ValueError(f"color must be three integers in 0-255, got {color!r}")
    for term in predicate_terms(d["success"]):
        _check_term(term)
    objects = tuple(
        ObjectSpec(
            role=o["role"],
            raw_name=o["raw_name"],
            shape=o["shape"],
            color=tuple(o["color"]),
            color_varies=o.get("color_varies", False),
            graspable=o.get("graspable", False),
            is_location=o.get("is_location", False),
            height=o.get("height"),
            fixed_yaw=o.get("fixed_yaw"),
        )
        for o in d["objects"]
    )
    plan = tuple(
        PlanSlot(
            action=s["action"],
            object_role=s.get("object"),
            location_role=s.get("location"),
        )
        for s in d["plan"]
    )
    dis = d.get("distractors", {})
    return TaskScript(
        name=d["name"],
        variation=int(d["variation"]),
        group=d["group"],
        instruction=d["instruction"],
        objects=objects,
        plan=plan,
        success=d["success"],
        distractors=DistractorConfig(
            min_count=dis.get("min", 0), max_count=dis.get("max", 2)
        ),
        tags=tuple(d.get("tags", ())),
    )


def load_suite(path: str) -> list[TaskScript]:
    return read_json(path, lambda d: [task_from_json(t) for t in d["tasks"]])


def builtin_suite() -> list[TaskScript]:
    """The suite shipped with the package (all four generalization groups)."""
    raw = resources.files("groundplan.data").joinpath("suite.json").read_text()
    return [task_from_json(t) for t in json.loads(raw)["tasks"]]


def suite_digest(tasks: list[TaskScript]) -> str:
    payload = json.dumps([task_to_json(t) for t in tasks], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()
