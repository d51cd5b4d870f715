"""Frame reuse in render_views against a full render of every camera."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundplan.render import render_views
from groundplan.scene import (
    Box,
    CameraRig,
    Cylinder,
    Prismatic,
    Scene,
    SceneObject,
    Sphere,
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
