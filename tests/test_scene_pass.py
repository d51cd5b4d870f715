"""Grounding's scene pass and voxel keys against the forms they replaced.

`ground_plan` unprojects only the scene pixels that can become robot points
and counts the other obstacles. The full scene pass it replaced, which
unprojected every valid scene pixel, is kept below as the reference: the
target-object, target-location and robot points must be bit-equal and in
the same order, and the label counts equal. `_pack_cells` takes its per-axis
bounds from a contiguous transpose; the axis-0 form is kept as its
reference.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundplan.executor import GroundingConfig, ground_plan
from groundplan.geometry import (
    ROBOT,
    ROBOT_RADIUS,
    TARGET_LOCATION,
    TARGET_OBJECT,
    _pack_cells,
    categorize,
    dbscan_filter,
    fuse_views,
    pixel_indices,
    unproject,
    unproject_pixels,
)
from groundplan.planlang import parse_plan
from groundplan.planners import OraclePlanner
from groundplan.render import render_camera, render_views
from groundplan.scene import CameraModel, CameraRig, View, ViewSet, default_rig, look_at
from groundplan.simulate import Simulation


def _reference_ground_plan(plan, views, rig, gripper, config=GroundingConfig()):
    """`executor.ground_plan` as it was: every valid scene pixel unprojected."""
    reference_clouds = {}
    for slot, ref in plan.references():
        cloud = fuse_views([unproject(view.depth, mask, cam)
                            for view, mask, cam in zip(views, ref.masks, rig.cameras)])
        if config.dbscan_enabled:
            cloud = dbscan_filter(cloud, config.dbscan)
        reference_clouds[slot] = cloud
    scene_parts, id_parts = [], []
    for view, cam in zip(views, rig.cameras):
        vs, us = pixel_indices((view.ids != 0) & (view.depth > 0))
        scene_parts.append(unproject_pixels(view.depth, vs, us, cam))
        id_parts.append(view.ids[vs, us])
    return categorize(reference_clouds, np.concatenate(scene_parts), gripper.position,
                      held_id=gripper.held, scene_ids=np.concatenate(id_parts))


def _camera(height, width, eye, role):
    rot, t = look_at(eye, (0.0, 0.0, 0.05))
    f = float(max(height, width))
    return CameraModel(fx=f, fy=f, cx=width / 2.0, cy=height / 2.0, width=width,
                       height=height, rotation=rot, translation=t, role=role)


def _rig(kind: str) -> CameraRig:
    if kind == "96":
        return default_rig(96)
    if kind == "256":
        return default_rig(256)
    # Non-square frames, wider than tall and taller than wide, and a wrist camera.
    return CameraRig([
        _camera(72, 120, (0.85, 0.0, 0.55), "front"),
        _camera(112, 64, (0.35, 0.65, 0.65), "left_shoulder"),
        _camera(80, 80, (0.0, 0.0, 0.45), "wrist"),
    ])


def _gripper_at(data, sim, rig) -> np.ndarray:
    """A gripper position: where the episode starts, inside an object's bounding
    sphere, within the robot radius of a static camera, just behind one, or
    almost ROBOT_RADIUS behind a visible surface point along a static camera's
    axis, so that the point sits at the edge of the sphere's camera-z span."""
    where = data.draw(st.sampled_from(["home", "object", "near camera", "behind camera",
                                       "behind surface"]))
    offset = np.array(data.draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)))
    if where == "home":
        return sim.gripper.position + 0.05 * offset
    if where == "object":
        obj = data.draw(st.sampled_from(sim.scene.objects))
        return obj.position + obj.bounding_radius() / math.sqrt(3.0) * offset
    cam = data.draw(st.sampled_from([c for c in rig.cameras if c.role != "wrist"]))
    forward = cam.rotation[2]
    if where == "near camera":
        return cam.center + 0.03 * offset
    if where == "behind camera":
        return cam.center - data.draw(st.floats(0.0, 0.1)) * forward + 0.01 * offset
    view = render_camera(sim.scene, cam)
    vs, us = pixel_indices(view.ids != 0)
    if not len(vs):
        return sim.gripper.position
    k = data.draw(st.integers(0, len(vs) - 1))
    point = unproject_pixels(view.depth, vs[k:k + 1], us[k:k + 1], cam)[0]
    return point + ROBOT_RADIUS * data.draw(st.floats(0.999, 1.0)) * forward


def _with_holes(view: View, data) -> View:
    """The view with depth zeroed on some pixels that keep their object id, as a
    frame read from outside may have."""
    holes = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    depth = np.array(view.depth)
    depth[holes.random(depth.shape) < 0.2] = 0.0
    return View(depth=depth, ids=np.array(view.ids))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 50), rig_kind=st.sampled_from(["96", "256", "odd"]),
       held=st.booleans(), holes=st.booleans(), dbscan=st.booleans())
def test_scene_pass_keeps_every_point_the_policy_reads(suite, data, seed, rig_kind, held,
                                                       holes, dbscan):
    task = data.draw(st.sampled_from(suite))
    sim = Simulation.sample(task, seed)
    rig = _rig(rig_kind)
    gripper = sim.gripper.copy()
    gripper.position = _gripper_at(data, sim, rig)
    if held:
        gripper.held = data.draw(st.sampled_from([o.id for o in sim.scene.objects]))
    rig = rig.posed(gripper.position)
    views = render_views(sim.scene, rig)
    text, stacks = OraclePlanner(sim, task).plan(task.instruction, views, [], sim.inventory())
    plan = parse_plan(text, stacks)
    if holes:
        views = ViewSet([_with_holes(v, data) for v in views])
    config = GroundingConfig(dbscan_enabled=dbscan)

    got = ground_plan(plan, views, rig, gripper, config)
    want = _reference_ground_plan(plan, views, rig, gripper, config)
    for label in (TARGET_OBJECT, TARGET_LOCATION, ROBOT):
        a, b = got.select(label), want.select(label)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), label
    assert got.counts() == want.counts()
    # A second call counts a reused view's scene pixels from what it kept.
    assert ground_plan(plan, views, rig, gripper, config).counts() == want.counts()


def test_scene_pass_reaches_robot_points_in_every_case(suite):
    """The property above is not vacuous: a gripper inside the target object
    and a held object both give robot points, and the cut stores fewer."""
    task = suite[0]
    sim = Simulation.sample(task, 3)
    rig = default_rig(96)
    target = sim.scene.role_object("target")
    for position, held in ((target.position, None), (sim.gripper.position, target.id)):
        gripper = sim.gripper.copy()
        gripper.position, gripper.held = np.array(position), held
        posed = rig.posed(gripper.position)
        views = render_views(sim.scene, posed)
        text, stacks = OraclePlanner(sim, task).plan(task.instruction, views, [],
                                                      sim.inventory())
        plan = parse_plan(text, stacks)
        got = ground_plan(plan, views, posed, gripper)
        want = _reference_ground_plan(plan, views, posed, gripper)
        assert len(want.select(ROBOT)) > 0
        assert got.select(ROBOT).tobytes() == want.select(ROBOT).tobytes()
        assert got.counts() == want.counts()
        assert got.hidden_obstacles > 0 and len(got) < len(want)


# -- voxel keys ----------------------------------------------------------------------


def _reference_pack_cells(cells, size, pad=0):
    """`geometry._pack_cells` as it was, with the per-axis bounds along axis 0."""
    lo, hi = cells.min(axis=0), cells.max(axis=0)
    radix = None
    if np.isfinite([lo, hi]).all() and -(2**63) <= lo.min() and hi.max() < 2**63:
        radix = [int(h) - int(l) + 1 + 2 * pad for l, h in zip(lo, hi)]
    if radix is None or math.prod(radix) >= 2**63:
        raise ValueError(
            f"points span {(hi - lo + 1).tolist()} cells of {size!r} m per axis; "
            "their packed cell keys would overflow int64"
        )
    off = cells.astype(np.int64) - lo.astype(np.int64) + pad
    return (off[:, 0] * radix[1] + off[:, 1]) * radix[2] + off[:, 2], radix


def _outcome(fn):
    try:
        with np.errstate(invalid="ignore"):
            keys, radix = fn()
    except ValueError as e:
        return "error", str(e)
    return keys.dtype, keys.tobytes(), radix


_cell = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.integers(-50, 50).map(float),
                  st.integers(-(2**62), 2**62).map(float),
                  st.sampled_from([2.0**63, -(2.0**63), 1e300, math.inf, -math.inf, math.nan]))


@settings(max_examples=400, deadline=None)
@given(rows=st.lists(st.tuples(_cell, _cell, _cell), min_size=1, max_size=40),
       pad=st.sampled_from([0, 1]), layout=st.sampled_from(["c", "f", "strided"]))
def test_pack_cells_equals_the_axis0_reduction(rows, pad, layout):
    cells = np.array(rows, dtype=float)
    if layout == "f":
        cells = np.asfortranarray(cells)
    elif layout == "strided":
        wide = np.zeros((len(rows), 6))
        wide[:, ::2] = cells
        cells = wide[:, ::2]
    assert _outcome(lambda: _pack_cells(cells, 0.005, pad)) == _outcome(
        lambda: _reference_pack_cells(cells, 0.005, pad))


def test_pack_cells_signed_zeros_and_overflow():
    cells = np.array([[0.0, -0.0, 3.0], [-0.0, 0.0, -2.0], [-0.0, -0.0, -0.0]])
    assert _outcome(lambda: _pack_cells(cells, 0.02, 1)) == _outcome(
        lambda: _reference_pack_cells(cells, 0.02, 1))
    wide = np.array([[0.0, 0.0, 0.0], [2.0**40, 2.0**40, 1.0]])
    with pytest.raises(ValueError, match=re.escape("would overflow int64")):
        _pack_cells(wide, 0.005)
