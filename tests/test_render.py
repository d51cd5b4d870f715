"""Rendering against full-frame references.

Frame reuse in render_views is checked against a full render of every
camera. render_camera ray-casts only the band of rows its primitives' pixel
rectangles span; it is checked bit for bit (`tobytes()`) against the
full-frame render_camera it replaced, kept below as the reference. The posed
wrist camera reuses one rotation; its pose is checked bit for bit against
look_at, which computed it on every call.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundplan import render
from groundplan.render import render_camera, render_views
from groundplan.scene import (
    Box,
    CameraModel,
    CameraRig,
    Cylinder,
    Prismatic,
    Scene,
    SceneObject,
    Sphere,
    WRIST_OFFSET,
    View,
    look_at,
    yaw_matrix,
)
from tests.conftest import small_camera

RIG = CameraRig([
    small_camera((0.85, 0.0, 0.55), (0.0, 0.0, 0.05), "front", resolution=32),
    small_camera((0.35, 0.65, 0.65), (0.0, 0.0, 0.05), "left_shoulder", resolution=32),
    small_camera((0.0, 0.0, 0.45), (0.0, 0.0, 0.15), "wrist", resolution=32),
])

_size = st.floats(0.01, 0.05)
_shape = st.one_of(
    st.builds(Box, half_extents=st.tuples(_size, _size, _size).map(np.array)),
    st.builds(Sphere, radius=_size),
    st.builds(Cylinder, radius=_size, height=st.floats(0.02, 0.1)),
)
_step = st.floats(0.002, 0.05).flatmap(lambda m: st.sampled_from([m, -m]))
_edit = st.one_of(
    st.tuples(st.just("move"), st.integers(0, 99), _step, _step),
    st.tuples(st.just("yaw"), st.integers(0, 99), st.floats(-3.1, 3.1)),
    st.tuples(st.just("slide"), st.floats(0.0, 1.0)),
    st.tuples(st.just("wrist"), _step, _step),
    st.just(("noop",)),
)


def _scene(shapes, xys, yaws, fraction):
    objects = [
        SceneObject(id=i + 1, raw_name="thing", color=(0, 0, 0), shape=shape,
                    position=np.array([x, y, 0.05]), yaw=yaw)
        for i, (shape, (x, y), yaw) in enumerate(zip(shapes, xys, yaws))
    ]
    drawer = Prismatic(
        body_half=[0.04, 0.04, 0.02], slider_half=[0.01, 0.03, 0.01],
        slider_offset=[0.05, 0.0, 0.0], axis=[1.0, 0.0, 0.0], travel=0.04,
        fraction=fraction,
    )
    objects.append(SceneObject(id=len(objects) + 1, raw_name="drawer", color=(0, 0, 0),
                               shape=drawer, position=np.array([-0.1, 0.1, 0.02])))
    return Scene(objects=objects)


_coord = st.floats(-0.2, 0.2)


@settings(max_examples=60, deadline=None)
@given(
    shapes=st.lists(_shape, min_size=1, max_size=4),
    xys=st.lists(st.tuples(_coord, _coord), min_size=4, max_size=4),
    yaws=st.lists(st.floats(-3.1, 3.1), min_size=4, max_size=4),
    fraction=st.floats(0.0, 1.0),
    edits=st.lists(_edit, max_size=8),
)
def test_reused_frames_match_a_full_render(shapes, xys, yaws, fraction, edits):
    scene = _scene(shapes, xys, yaws, fraction)
    gripper = np.array([0.0, 0.0, 0.2])
    memo: dict = {}
    prev = render_views(scene, RIG.posed(gripper), memo)
    for edit in [("noop",)] + edits:
        kind = edit[0]
        if kind == "move":  # in place, as a simulator stepping positions would
            scene.objects[edit[1] % len(scene.objects)].position[:2] += edit[2:]
        elif kind == "yaw":
            scene.objects[edit[1] % len(scene.objects)].yaw = edit[2]
        elif kind == "slide":
            scene.objects[-1].shape.fraction = edit[1]
        elif kind == "wrist":
            gripper = gripper + [edit[1], edit[2], 0.0]
        rig = RIG.posed(gripper)
        views = render_views(scene, rig, memo)
        assert views.digest() == render_views(scene, rig).digest()
        assert len(memo) <= len(rig.cameras)
        same = [v is p for v, p in zip(views, prev)]
        if kind == "noop":
            assert all(same)
        elif kind == "move":
            assert not any(same)
        elif kind == "wrist":
            assert same == [True, True, False]
        prev = views


def test_rendered_frames_are_read_only():
    scene = _scene([Box(half_extents=np.array([0.03, 0.03, 0.03]))], [(0.0, 0.0)], [0.0], 0.5)
    for memo in (None, {}):
        for view in render_views(scene, RIG, memo):
            with pytest.raises(ValueError):
                view.depth[0, 0] = 1.0
            with pytest.raises(ValueError):
                view.ids[0, 0] = 7


# -- row band against the full frame -------------------------------------------------


def _reference_render_camera(scene, cam):
    """`render_camera` as it was: direction product and every pass over the full frame."""
    depth = np.full((cam.height, cam.width), np.inf)
    ids = np.zeros((cam.height, cam.width), dtype=np.int32)
    prims = render._primitives(scene)
    if prims:
        origin = cam.center
        dirs_world = render._camera_dirs(cam) @ cam.rotation
        for oid, prim in prims:
            sphere_c, sphere_r = render._bounding_sphere(prim)
            rect = render.pixel_rect(cam, sphere_c, sphere_r)
            if rect is None:
                continue
            u0, u1, v0, v1 = rect
            d = dirs_world[v0:v1, u0:u1]
            kind = prim[0]
            if kind == "box":
                t = render._box_t(origin, d, prim[1], prim[2], prim[3])
            elif kind == "sphere":
                t = render._sphere_t(origin, d, prim[1], prim[2])
            else:
                t = render._cylinder_t(origin, d, prim[1], prim[2], prim[3])
            window_d = depth[v0:v1, u0:u1]
            window_i = ids[v0:v1, u0:u1]
            closer = t < window_d
            window_d[closer] = t[closer]
            window_i[closer] = oid
    depth[~np.isfinite(depth)] = 0.0
    return View(depth=depth.astype(np.float32), ids=ids)


def _assert_same_bits(view, ref):
    for a, b in ((view.depth, ref.depth), (view.ids, ref.ids)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def _band_camera(height, width, eye, f=1.0, offset=(0.0, 0.0)):
    rot, t = look_at(eye, (0.0, 0.0, 0.05))
    return CameraModel(
        fx=f * width, fy=f * height,
        cx=width / 2.0 + offset[0], cy=height / 2.0 + offset[1],
        width=width, height=height, rotation=rot, translation=t,
    )


def _at_pixel(cam, u, v, z):
    """World point that projects to pixel (u, v) at camera depth z."""
    p_cam = np.array([(u - cam.cx) / cam.fx * z, (v - cam.cy) / cam.fy * z, z])
    return cam.rotation.T @ (p_cam - cam.translation)


def _placed_scene(cam, placements):
    """One object per (shape, u, v, z, yaw), u and v as fractions of the frame."""
    objects = []
    for i, (shape, u, v, z, yaw) in enumerate(placements):
        pos = _at_pixel(cam, u * cam.width, v * cam.height, z)
        objects.append(SceneObject(id=i + 1, raw_name="thing", color=(0, 0, 0),
                                   shape=shape, position=pos, yaw=yaw))
    return Scene(objects=objects)


_drawer = st.builds(
    Prismatic,
    body_half=st.tuples(_size, _size, _size).map(np.array),
    slider_half=st.just(np.array([0.01, 0.03, 0.01])),
    slider_offset=st.just(np.array([0.05, 0.0, 0.0])),
    axis=st.tuples(st.floats(0.1, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    travel=st.just(0.04),
    fraction=st.floats(0.0, 1.0),
)
_frame_side = st.integers(8, 72)
_eye = st.one_of(
    st.tuples(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9), st.floats(0.2, 0.9)),
    st.floats(0.1, 0.8).map(lambda z: (0.0, 0.0, z + 0.05)),  # straight down, as the wrist
    # Level with the target and along a world axis: a box at the frame's
    # centre row with yaw a quarter turn is seen edge-on.
    st.sampled_from([(0.6, 0.0, 0.05), (0.0, -0.6, 0.05)]),
)
# Camera depth: in front of the camera, behind it, or straddling it (a corner behind).
_depth = st.one_of(st.floats(0.15, 1.5), st.floats(-0.3, -0.05), st.floats(-0.06, 0.06))
# Thin plates: edge-on from a level camera, and within reach of the camera
# with every corner in front of it.
_thin = st.sampled_from([0.0005, 0.002])
_plate = st.builds(Box, half_extents=st.one_of(
    st.tuples(_size, _size, _thin), st.tuples(_thin, _size, _size)).map(np.array))
_quarter = st.sampled_from([0.0, -0.0, math.pi / 2, math.pi, -math.pi / 2])
# Frame fractions: anywhere, or on the frame's border and centre row.
_frac = st.one_of(st.floats(-0.3, 1.3), st.sampled_from([0.0, 0.5, 1.0]))
_placement = st.tuples(
    st.one_of(_shape, _drawer, _plate),
    _frac, _frac, _depth, st.one_of(st.floats(-3.1, 3.1), _quarter),
)


@settings(max_examples=300, deadline=None)
@given(
    height=_frame_side, width=_frame_side, eye=_eye,
    f=st.floats(0.4, 2.0),
    offset=st.one_of(st.just((0.0, 0.0)), st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))),
    placements=st.lists(_placement, min_size=1, max_size=5),
    near=st.sampled_from([None, 0.005, 0.02]),
)
def test_row_band_render_equals_the_full_frame_reference(height, width, eye, f, offset,
                                                         placements, near):
    cam = _band_camera(height, width, eye, f=f, offset=offset)
    if near:  # the camera inside the last object's bounding sphere
        placements[-1] = placements[-1][:3] + (near,) + placements[-1][4:]
    scene = _placed_scene(cam, placements)
    _assert_same_bits(render_camera(scene, cam), _reference_render_camera(scene, cam))


@pytest.mark.parametrize("height,width", [(40, 64), (64, 40)])
@pytest.mark.parametrize("case", ["top-row", "bottom-row", "top-and-bottom",
                                  "inside-bounding-sphere", "none-visible", "empty"])
def test_row_band_edge_cases(case, height, width):
    cam = _band_camera(height, width, (0.6, 0.2, 0.5))
    ball = Sphere(radius=0.03)
    placements = {
        "top-row": [(ball, 0.5, 0.0, 0.6, 0.0)],
        "bottom-row": [(ball, 0.3, 1.0, 0.6, 0.0)],
        "top-and-bottom": [(ball, 0.2, 0.0, 0.6, 0.0),
                           (Box(half_extents=np.array([0.02, 0.03, 0.01])), 0.8, 1.0, 0.5, 0.4)],
        "inside-bounding-sphere": [(Box(half_extents=np.array([0.08, 0.08, 0.005])),
                                    0.5, 0.9, 0.07, 0.2),
                                   (ball, 0.5, 0.2, 0.6, 0.0)],
        "none-visible": [(ball, 0.5, 0.5, -0.2, 0.0), (ball, 3.0, 0.5, 0.6, 0.0)],
        "empty": [],
    }[case]
    scene = _placed_scene(cam, placements)
    view = render_camera(scene, cam)
    _assert_same_bits(view, _reference_render_camera(scene, cam))
    hit = view.ids != 0
    if case in ("top-row", "top-and-bottom"):
        assert hit[0].any()
    if case in ("bottom-row", "top-and-bottom"):
        assert hit[-1].any()
    if case == "inside-bounding-sphere":  # both objects are hit
        assert set(np.unique(view.ids)) == {0, 1, 2}
        assert render.pixel_rect(cam, *render._bounding_sphere(
            render._primitives(scene)[0][1])) == (0, width, 0, height)
    if case in ("none-visible", "empty"):
        assert not hit.any()
        assert view.depth.tobytes() == np.zeros((height, width), np.float32).tobytes()


def _windows(scene, cam):
    """Each solid's (corner window, bounding-sphere rectangle), as render_camera finds them."""
    pose = (cam.rotation.tolist(), cam.translation.tolist())
    return [(render._window(cam, pose, corners, sphere), render.pixel_rect(cam, *sphere))
            for _, _, corners, sphere in render._prepared(render._primitives(scene))]


@pytest.mark.parametrize("case", ["edge-on", "inside-bounding-sphere", "corner-behind",
                                  "left-border", "bottom-border"])
def test_corner_windows(case):
    level, down = (0.6, 0.0, 0.05), (0.0, 0.0, 0.45)
    eye, shape, u, v, z = {
        # A plate level with the camera: its faces are seen edge-on, as one row.
        "edge-on": (level, Box(half_extents=np.array([0.03, 0.03, 0.0005])), 0.5, 0.5, 0.4),
        # Every corner in front, the camera inside the bounding sphere.
        "inside-bounding-sphere": (down, Box(half_extents=np.array([0.005, 0.05, 0.0005])),
                                   0.5, 0.5, 0.03),
        # A beam along the view axis, through the camera plane, beside the camera.
        "corner-behind": (level, Box(half_extents=np.array([0.05, 0.005, 0.005])), 0.5, 1.0, 0.03),
        "left-border": (level, Cylinder(radius=0.02, height=0.05), 0.0, 0.4, 0.5),
        "bottom-border": (down, Box(half_extents=np.array([0.02, 0.01, 0.01])), 0.3, 1.0, 0.3),
    }[case]
    cam = _band_camera(40, 64, eye)
    scene = _placed_scene(cam, [(shape, u, v, z, 0.0)])
    view = render_camera(scene, cam)
    _assert_same_bits(view, _reference_render_camera(scene, cam))
    (window, sphere_rect), = _windows(scene, cam)
    rows, cols = np.nonzero(view.ids)
    assert len(rows)
    u0, u1, v0, v1 = window
    assert u0 <= cols.min() and cols.max() < u1 and v0 <= rows.min() and rows.max() < v1
    if case == "edge-on":  # the centre row, and the margins around it
        assert set(rows.tolist()) == {20} and v1 - v0 == 5
    if case == "inside-bounding-sphere":
        assert sphere_rect == (0, 64, 0, 40) and (u1 - u0) * (v1 - v0) < 64 * 40 / 2
    if case == "corner-behind":  # a corner behind is within the sphere: the whole frame
        assert window == sphere_rect == (0, 64, 0, 40)
    if case == "left-border":
        assert u0 == 0 and cols.min() == 0
    if case == "bottom-border":
        assert v1 == 40 and rows.max() == 39


# -- windows of a band product ------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    height=st.integers(1, 12), width=st.integers(2, 300), eye=_eye, yaw=st.floats(-3.2, 3.2),
    cut=st.tuples(*[st.floats(0.0, 1.0)] * 4),
)
def test_a_window_product_equals_the_window_of_the_band_product(height, width, eye, yaw, cut):
    # The box test multiplies its window of the band by rot.T; the window's
    # bytes must not depend on its size or position in the band. numpy takes
    # a (1, 3) @ (3, 3) row product through another BLAS call, with other
    # roundings, so windows are at least 2 wide here. A window is 1 wide only
    # when clipped to the frame's first or last column, which lies in its
    # margin and so holds no hit.
    cam = _band_camera(height, width, eye)
    band = render._camera_dirs(cam) @ cam.rotation
    rot = yaw_matrix(-yaw)
    v0, v1 = sorted(int(c * (height - 1)) for c in cut[:2])
    u0, u1 = sorted(int(c * (width - 2)) for c in cut[2:])  # u0 + 2 <= width
    window = band[v0:v1 + 1, u0:u1 + 2]
    assert (window @ rot.T).tobytes() == (band @ rot.T)[v0:v1 + 1, u0:u1 + 2].tobytes()


# -- wrist pose --------------------------------------------------------------------

_coord = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e-300, 1e-300),
                   st.floats(-1e-6, 1e-6), st.floats(-2.0, 2.0), st.floats(-1e6, 1e6))


@settings(max_examples=500, deadline=None)
@given(gp=st.tuples(_coord, _coord, _coord))
def test_posed_wrist_camera_equals_look_at(gp):
    posed = RIG.posed(gp)
    rot, t = look_at(np.array(gp) + WRIST_OFFSET, gp)
    wrist, before = posed.cameras[2], RIG.cameras[2]
    assert wrist.rotation.tobytes() == rot.tobytes()
    assert wrist.translation.tobytes() == t.tobytes()
    assert not wrist.rotation.flags.writeable
    assert (wrist.fx, wrist.fy, wrist.cx, wrist.cy, wrist.width, wrist.height, wrist.role) == (
        before.fx, before.fy, before.cx, before.cy, before.width, before.height, before.role)
    assert wrist is not before
    assert all(a is b for a, b in zip(posed.cameras[:2], RIG.cameras[:2]))
