"""The shape -> solids decomposition and the predicate-term walk, against the
per-shape and recursive code they replaced, kept here as references."""

from __future__ import annotations

import struct
from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groundplan import render
from groundplan.planners import OraclePlanner
from groundplan.scene import (Box, Cylinder, GripperState, Prismatic, Scene, SceneObject,
                              Sphere, yaw_matrix)
from groundplan.tasks import PredicateError, _resolve, check_success

# -- reference: per-shape dispatch ---------------------------------------------------


def ref_rest_z(shape) -> float:
    if isinstance(shape, Box):
        return float(shape.half_extents[2])
    if isinstance(shape, Cylinder):
        return shape.height / 2.0
    if isinstance(shape, Sphere):
        return shape.radius
    if isinstance(shape, Prismatic):
        return float(shape.body_half[2])
    raise TypeError(f"unknown shape {shape!r}")


def ref_parts(obj: SceneObject) -> list[tuple[np.ndarray, np.ndarray]]:
    s = obj.shape
    if isinstance(s, Box):
        return [(obj.position, s.half_extents)]
    if isinstance(s, Cylinder):
        h = np.array([s.radius, s.radius, s.height / 2.0])
        return [(obj.position, h)]
    if isinstance(s, Sphere):
        h = np.full(3, s.radius)
        return [(obj.position, h)]
    return [
        (obj.position, s.body_half),
        (obj.slider_center(), s.slider_half),
    ]


def ref_aabb(obj: SceneObject) -> tuple[np.ndarray, np.ndarray]:
    rot = yaw_matrix(obj.yaw)
    los, his = [], []
    for center, half in ref_parts(obj):
        ext = np.abs(rot) @ half
        los.append(center - ext)
        his.append(center + ext)
    return np.min(los, axis=0), np.max(his, axis=0)


def ref_height(obj: SceneObject) -> float:
    s = obj.shape
    if isinstance(s, Box):
        return 2.0 * s.half_extents[2]
    if isinstance(s, Cylinder):
        return s.height
    if isinstance(s, Sphere):
        return 2.0 * s.radius
    lo, hi = ref_aabb(obj)
    return hi[2] - lo[2]


def ref_primitives(scene: Scene) -> list[tuple[int, object]]:
    parts = []
    for obj in scene.objects:
        s = obj.shape
        if isinstance(s, Box):
            parts.append((obj.id, ("box", obj.position, s.half_extents, obj.yaw)))
        elif isinstance(s, Sphere):
            parts.append((obj.id, ("sphere", obj.position, s.radius)))
        elif isinstance(s, Cylinder):
            parts.append((obj.id, ("cylinder", obj.position, s.radius, s.height)))
        elif isinstance(s, Prismatic):
            parts.append((obj.id, ("box", obj.position, s.body_half, obj.yaw)))
            parts.append((obj.id, ("box", obj.slider_center(), s.slider_half, obj.yaw)))
    return parts


def f64(x) -> bytes:
    return struct.pack("<d", float(x))


def prim_bytes(prims) -> list:
    return [(oid, kind, [(type(f).__name__, np.asarray(f).dtype.str, np.asarray(f).tobytes())
                         for f in fields])
            for oid, (kind, *fields) in prims]


_dim = st.one_of(st.integers(1, 4), st.floats(1e-3, 0.3))
_vec = st.tuples(_dim, _dim, _dim).map(np.array)
_offset = st.tuples(*[st.floats(-0.1, 0.1)] * 3).map(np.array)
_axis = st.tuples(*[st.one_of(st.integers(-1, 1), st.floats(-1, 1))] * 3).filter(
    lambda a: np.linalg.norm(a) > 0.1)
_shape = st.one_of(
    st.builds(Box, half_extents=_vec),
    st.builds(Cylinder, radius=_dim, height=_dim),
    st.builds(Sphere, radius=_dim),
    st.builds(Prismatic, body_half=_vec, slider_half=_vec, slider_offset=_offset,
              axis=_axis.map(np.array), travel=_dim,
              fraction=st.one_of(st.integers(0, 1), st.floats(0, 1)), ratchet=st.booleans()),
)
_object = st.tuples(_shape, st.tuples(*[st.floats(-0.3, 0.3)] * 3),
                    st.one_of(st.integers(-7, 7), st.floats(-7, 7)))


@settings(max_examples=300, deadline=None)
@given(st.lists(_object, min_size=1, max_size=4))
def test_solids_match_the_per_shape_dispatch(specs):
    objects = [SceneObject(id=i + 1, raw_name="thing", color=(1, 2, 3), shape=shape,
                           position=np.array(pos), yaw=yaw)
               for i, (shape, pos, yaw) in enumerate(specs)]
    for obj in objects:
        assert f64(obj.rest_z()) == f64(ref_rest_z(obj.shape))
        assert f64(obj.height()) == f64(ref_height(obj))
        (lo, hi), (ref_lo, ref_hi) = obj.aabb(), ref_aabb(obj)
        assert lo.tobytes() == ref_lo.tobytes() and hi.tobytes() == ref_hi.tobytes()
        assert f64(obj.bounding_radius()) == f64(np.linalg.norm(ref_hi - ref_lo) / 2.0)
    scene = Scene(objects=objects)
    assert prim_bytes(render._primitives(scene)) == prim_bytes(ref_primitives(scene))


# -- reference: recursive predicate evaluation --------------------------------------------


def ref_eval(pred: dict, scene: Scene, gripper: GripperState) -> bool:
    kind = pred["kind"]
    if kind == "all_of":
        return all(ref_eval(p, scene, gripper) for p in pred["terms"])
    if kind == "object_within":
        obj = _resolve(scene, pred["object"])
        loc = _resolve(scene, pred["location"])
        if gripper.held == obj.id:
            return False
        horiz = float(np.linalg.norm((obj.position - loc.position)[:2]))
        if horiz > pred["tol"]:
            return False
        resting = abs(obj.bottom_z() - loc.top_z()) <= 0.015
        lo, hi = loc.aabb()
        inside = bool(np.all(obj.position >= lo) and np.all(obj.position <= hi))
        return resting or inside
    if kind == "object_near":
        obj = _resolve(scene, pred["object"])
        loc = _resolve(scene, pred["location"])
        if pred.get("require_held", False) and gripper.held != obj.id:
            return False
        return float(np.linalg.norm(obj.position - loc.position)) <= pred["tol"]
    if kind == "joint_at_least":
        obj = _resolve(scene, pred["object"])
        if not hasattr(obj.shape, "fraction"):
            raise PredicateError(f"role {pred['object']!r} is not articulated")
        return obj.shape.fraction >= pred["threshold"]
    if kind == "joint_at_most":
        obj = _resolve(scene, pred["object"])
        if not hasattr(obj.shape, "fraction"):
            raise PredicateError(f"role {pred['object']!r} is not articulated")
        return obj.shape.fraction <= pred["threshold"]
    raise ValueError(f"unknown predicate kind {kind!r}")


def ref_joint_target(success: dict, role: str) -> float:
    def scan(pred) -> float | None:
        if pred["kind"] == "all_of":
            for term in pred["terms"]:
                got = scan(term)
                if got is not None:
                    return got
            return None
        if pred["kind"] in ("joint_at_least", "joint_at_most") and pred["object"] == role:
            return float(pred["threshold"])
        return None

    got = scan(success)
    return 0.99 if got is None else got


# "gone" is bound to an id the scene lacks, "ghost" to nothing; "a" and "b" are not
# articulated.
ROLES = ("a", "b", "drawer", "gone", "ghost")
_role = st.sampled_from(ROLES)
_tol = st.floats(0.0, 0.12)
_leaf = st.one_of(
    st.fixed_dictionaries({"kind": st.just("object_within"), "object": _role,
                           "location": _role, "tol": _tol}),
    st.fixed_dictionaries({"kind": st.just("object_near"), "object": _role,
                           "location": _role, "tol": _tol},
                          optional={"require_held": st.booleans()}),
    st.fixed_dictionaries({"kind": st.sampled_from(["joint_at_least", "joint_at_most"]),
                           "object": _role, "threshold": st.floats(0.0, 1.0)}),
    st.fixed_dictionaries({"kind": st.just("object_above"), "object": _role}),
)


def _tree(depth: int):
    if depth == 0:
        return _leaf
    return st.one_of(_leaf, st.fixed_dictionaries(
        {"kind": st.just("all_of"), "terms": st.lists(_tree(depth - 1), max_size=3)}))


_point = st.tuples(st.floats(-0.06, 0.06), st.floats(-0.06, 0.06), st.floats(0.0, 0.1))
_layout = st.tuples(_point, _point, st.floats(0.0, 1.0), st.sampled_from([None, 1, 2]))


def _state(layout) -> tuple[Scene, GripperState]:
    pos_a, pos_b, fraction, held = layout
    objects = [
        SceneObject(id=1, raw_name="block", color=(255, 0, 0),
                    shape=Box(half_extents=np.array([0.02, 0.02, 0.02])), position=pos_a),
        SceneObject(id=2, raw_name="plate", color=(0, 0, 255),
                    shape=Cylinder(radius=0.05, height=0.01), position=pos_b),
        SceneObject(id=3, raw_name="drawer", color=(128, 128, 128),
                    shape=Prismatic(body_half=[0.07, 0.05, 0.03], slider_half=[0.01, 0.04, 0.02],
                                    slider_offset=[0.08, 0.0, 0.0], axis=[1.0, 0.0, 0.0],
                                    travel=0.06, fraction=fraction),
                    position=[0.1, 0.1, 0.03]),
    ]
    scene = Scene(objects=objects, roles={"a": 1, "b": 2, "drawer": 3, "gone": 9})
    gripper = GripperState(position=np.array([0.0, 0.0, 0.2]), open=held is None, held=held)
    return scene, gripper


def outcome(fn):
    try:
        return "value", fn()
    except Exception as e:  # the exception type and message must match too
        return type(e), str(e)


# A false term followed by a term that raises: only the first may be evaluated.
@example(pred={"kind": "all_of", "terms": [
    {"kind": "joint_at_least", "object": "drawer", "threshold": 1.0},
    {"kind": "joint_at_least", "object": "ghost", "threshold": 0.5}]},
    layout=((0.0, 0.0, 0.02), (0.05, 0.0, 0.005), 0.5, None))
@settings(max_examples=400, deadline=None)
@given(pred=_tree(3), layout=_layout)
def test_term_walk_matches_the_recursive_evaluation(pred, layout):
    scene, gripper = _state(layout)
    got = outcome(lambda: check_success(scene, gripper, SimpleNamespace(success=pred)))
    assert got == outcome(lambda: ref_eval(pred, scene, gripper))
    if got[0] == "value":
        assert type(got[1]) is bool
    oracle = OraclePlanner(sim=None, task=SimpleNamespace(success=pred))
    for role in ROLES:
        assert oracle._joint_target(role) == ref_joint_target(pred, role)
