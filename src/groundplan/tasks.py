"""Task scripts: per-task object roles, plan annotations and success predicates.

A task script is the one-time annotation that makes a scripted task
generatable: which objects must exist, the subplan sequence over their
roles, and a success predicate decidable from scene + gripper state alone.
Suites are plain JSON so new tasks are data, not code.

This module owns the success predicate tree. `predicate_terms` is the one
walk over it: it yields the terms other than `all_of`, depth-first, and
`check_success`, the oracle's joint targets and the suite reader all go
through it. `_TERMS` is the one table of term kinds, their evaluators and
the fields each term holds, with their JSON kinds.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, dataclass
from dataclasses import fields as dataclass_fields
from functools import cached_property
from importlib import resources

import numpy as np

from .jsonfile import fields, invalid, read_json
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
        roles = {o.role: o for o in self.objects}
        terms = list(predicate_terms(self.success, "success"))
        refs = [("plan", r) for s in self.plan for r in (s.object_role, s.location_role)]
        refs += [("success", t.get(k)) for _, t in terms for k in ("object", "location")]
        for where, role in refs:
            if role is not None and role not in roles:
                raise ValueError(f"{where} references unknown role {role!r}")
        # A joint term reads the fraction that only an articulated shape has.
        for at, t in terms:
            if t["kind"] in _JOINT_TERMS and not hasattr(roles[t["object"]].build_shape(),
                                                         "fraction"):
                raise invalid(f"{at}.object", "the role of an articulated object", t["object"])

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


# kind -> (evaluator, the fields a term of that kind holds). all_of has no
# evaluator: predicate_terms walks into its terms.
_TERMS = {
    "all_of": (None, {"terms": [dict]}),
    "object_within": (_object_within, {"object": str, "location": str, "tol": float}),
    "object_near": (_object_near, {"object": str, "location": str, "tol": float,
                                   "require_held": bool}),
    "joint_at_least": (lambda pred, scene, _: _joint_fraction(pred, scene) >= pred["threshold"],
                       {"object": str, "threshold": float}),
    "joint_at_most": (lambda pred, scene, _: _joint_fraction(pred, scene) <= pred["threshold"],
                      {"object": str, "threshold": float}),
}


_JOINT_TERMS = ("joint_at_least", "joint_at_most")


def predicate_terms(pred: dict, path: str | None = None):
    """The predicate's terms other than all_of, depth-first. Lazy, so a caller
    that stops early never walks, or trips over, the rest of the tree. Given the
    tree's field path, the walk checks each node's fields first and yields
    (field path, term) pairs."""
    if path is not None:
        kind = fields(pred, {"kind": tuple(_TERMS)}, path)["kind"]
        fields(pred, _TERMS[kind][1], path, {"require_held": False})
    if pred["kind"] == "all_of":
        for i, term in enumerate(pred["terms"]):
            yield from predicate_terms(term, None if path is None else f"{path}.terms[{i}]")
    else:
        yield pred if path is None else (path, pred)


def _term_evaluator(kind: str):
    if kind not in _TERMS:
        raise ValueError(f"unknown predicate kind {kind!r}")
    return _TERMS[kind][0]


def check_success(scene: Scene, gripper: GripperState, task: TaskScript) -> bool:
    """Evaluate the task's success predicate against the current state. The first
    false term ends the check, so a broken term after it raises nothing."""
    return all(_term_evaluator(term["kind"])(term, scene, gripper)
               for term in predicate_terms(task.success))


# -- suite (de)serialization ---------------------------------------------------


def task_to_json(task: TaskScript) -> dict:
    """The task's suite JSON: each field of _TASK, read from the task or encoded."""
    # vars, not dataclasses.asdict: asdict deep-copies every field, and every sampled
    # scene digests its task.
    return {
        **{name: getattr(task, name) for name in _TASK},
        "objects": [{**vars(o), "color": list(o.color)} for o in task.objects],
        "plan": [{"action": s.action, "object": s.object_role, "location": s.location_role}
                 for s in task.plan],
        "distractors": {"min": task.distractors.min_count, "max": task.distractors.max_count},
        "tags": list(task.tags),
    }


_TASK = {"objects": [dict], "plan": [dict], "success": dict, "name": str, "variation": int,
         "group": GROUPS, "instruction": str, "distractors": dict, "tags": [str]}
_OBJECT = {"role": str, "raw_name": str, "shape": dict, "color": [int], "color_varies": bool,
           "graspable": bool, "is_location": bool, "height": (float, None),
           "fixed_yaw": (float, None)}
_OBJECT_DEFAULTS = {f.name: f.default for f in dataclass_fields(ObjectSpec)
                    if f.default is not MISSING}
_SLOT = {"action": ACTIONS, "object": (str, None), "location": (str, None)}
_DISTRACTORS = {"min": int, "max": int}


def task_from_json(d: dict, path: str = "task") -> TaskScript:
    """A task from its suite JSON at field path `path`. Every field is checked
    here, and so are shapes, colours and predicate terms, so that a bad suite
    fails when read, where its file is known."""
    t = fields(d, _TASK, path, {"distractors": {}, "tags": []})
    objects = []
    for i, o in enumerate(t["objects"]):
        at = f"{path}.objects[{i}]"
        spec = fields(o, _OBJECT, at, _OBJECT_DEFAULTS)
        shape_from_json(spec["shape"], f"{at}.shape")  # sample_scene builds a fresh shape per scene
        color = spec["color"]
        if len(color) != 3 or not all(0 <= c <= 255 for c in color):
            raise invalid(f"{at}.color", "three integers in 0-255", color)
        objects.append(ObjectSpec(**{**spec, "color": tuple(color)}))
    slots = (fields(s, _SLOT, f"{path}.plan[{i}]", {"object": None, "location": None})
             for i, s in enumerate(t["plan"]))
    plan = [PlanSlot(s["action"], s["object"], s["location"]) for s in slots]
    list(predicate_terms(t["success"], f"{path}.success"))  # the walk checks every term
    dis = fields(t["distractors"], _DISTRACTORS, f"{path}.distractors", {"min": 0, "max": 2})
    return TaskScript(**{**t, "objects": tuple(objects), "plan": tuple(plan),
                         "distractors": DistractorConfig(dis["min"], dis["max"]),
                         "tags": tuple(t["tags"])})


def _suite_from_json(d: dict) -> list[TaskScript]:
    tasks = fields(d, {"tasks": [dict]})["tasks"]
    return [task_from_json(t, f"tasks[{i}]") for i, t in enumerate(tasks)]


def load_suite(path: str) -> list[TaskScript]:
    return read_json(path, _suite_from_json)


def builtin_suite() -> list[TaskScript]:
    """The suite shipped with the package (all four generalization groups)."""
    raw = resources.files("groundplan.data").joinpath("suite.json").read_text()
    return _suite_from_json(json.loads(raw))


def suite_digest(tasks: list[TaskScript]) -> str:
    payload = json.dumps([task_to_json(t) for t in tasks], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()
