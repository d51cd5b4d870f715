"""Pixel scans against the frame-wide numpy calls they replace.

Grounding takes pixel indices as np.flatnonzero of a bool mask split by the
frame width, and a view's object ids as np.unique over its nonzero pixels
only. Each is checked here bit for bit (`tobytes()`, or the JSON text)
against the expression it replaced, kept below as the reference: np.nonzero
of the 2-D mask and np.unique of the whole id map. Frames are non-square
both ways, laid out contiguously, transposed, strided and reversed, and
include empty and full masks, zero depth and all-background id maps.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from groundplan import executor, geometry
from groundplan.datasets import _id_maps_to_json
from groundplan.executor import GroundingConfig, ground_plan
from groundplan.geometry import pixel_indices, unproject, unproject_pixels
from groundplan.masks import rle_encode
from groundplan.planlang import parse_plan
from groundplan.planners import OraclePlanner
from groundplan.render import render_views
from groundplan.scene import CameraModel, CameraRig, View, ViewSet, look_at
from groundplan.simulate import Simulation


def _reference_pixel_indices(mask):
    return np.nonzero(mask)


def _reference_unproject(depth, mask, camera):
    """`geometry.unproject` as it was, with the 2-D np.nonzero."""
    depth = np.asarray(depth)
    mask = np.asarray(mask, dtype=bool)
    vs, us = np.nonzero(mask & (depth > 0))
    return unproject_pixels(depth, vs, us, camera)


def _reference_object_ids(ids):
    return sorted(int(i) for i in np.unique(ids) if i != 0)


def _reference_id_maps_to_json(views):
    """`datasets._id_maps_to_json` as it was, with np.unique of the whole map."""
    out = []
    for v in views:
        per_cam = []
        for oid in _reference_object_ids(v.ids):
            per_cam.append([oid, rle_encode(v.ids == oid)])
        out.append(per_cam)
    return out


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _camera(height, width, eye=(0.4, 0.3, 0.8), role=""):
    rot, t = look_at(eye, (0.0, 0.0, 0.05))
    return CameraModel(
        fx=96.0, fy=96.0, cx=width / 2.0, cy=height / 2.0,
        width=width, height=height, rotation=rot, translation=t, role=role,
    )


# -- frames ------------------------------------------------------------------------

_LAYOUTS = ("c", "transposed", "strided", "reversed")


def _laid_out(a, layout):
    """An array equal to `a` whose memory is laid out as `layout` names."""
    if layout == "c":
        return a.copy()
    if layout == "transposed":
        return a.T.copy().T
    if layout == "strided":
        big = np.zeros((2 * a.shape[0], 3 * a.shape[1]), dtype=a.dtype)
        big[::2, ::3] = a
        return big[::2, ::3]
    return a[::-1, ::-1].copy()[::-1, ::-1]


_side = st.integers(1, 12)
_fill = st.sampled_from(["random", "empty", "full"])
_depth_value = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 1.0, 3.7]),
    st.floats(1e-3, 10.0),
)


@st.composite
def _masks(draw, shape):
    fill = draw(_fill)
    if fill == "empty":
        mask = np.zeros(shape, dtype=bool)
    elif fill == "full":
        mask = np.ones(shape, dtype=bool)
    else:
        mask = draw(hnp.arrays(np.bool_, shape))
    return _laid_out(mask, draw(st.sampled_from(_LAYOUTS)))


@st.composite
def _frames(draw):
    """(depth, mask): a float64 depth map with zero-depth pixels and a bool mask."""
    shape = (draw(_side), draw(_side))
    depth = draw(hnp.arrays(np.float64, shape, elements=_depth_value))
    depth = _laid_out(depth, draw(st.sampled_from(_LAYOUTS)))
    return depth, draw(_masks(shape))


@st.composite
def _id_maps(draw):
    shape = (draw(_side), draw(_side))
    if draw(st.booleans()):
        ids = np.zeros(shape, dtype=np.int32)  # all background
    else:
        ids = draw(hnp.arrays(
            np.int32, shape, elements=st.sampled_from([0, 0, 0, 1, 2, 7, 40, 2**31 - 1]),
        ))
    return _laid_out(ids, draw(st.sampled_from(_LAYOUTS)))


# -- pixel indices and unproject -------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(mask=st.tuples(_side, _side).flatmap(_masks))
@example(mask=np.ones((3, 7), dtype=bool))
@example(mask=np.ones((7, 3), dtype=bool))
def test_pixel_indices_equal_np_nonzero(mask):
    got = pixel_indices(mask)
    want = _reference_pixel_indices(mask)
    assert len(got) == 2
    assert _same_bits(got[0], want[0])
    assert _same_bits(got[1], want[1])


@settings(max_examples=300, deadline=None)
@given(frame=_frames())
@example(frame=(np.arange(21.0).reshape(3, 7), np.ones((3, 7), dtype=bool)))
@example(frame=(np.arange(21.0).reshape(7, 3), np.ones((7, 3), dtype=bool)))
def test_unproject_equals_the_np_nonzero_reference(frame):
    depth, mask = frame
    camera = _camera(*depth.shape)
    assert _same_bits(unproject(depth, mask, camera), _reference_unproject(depth, mask, camera))


@pytest.mark.parametrize("shape", [(), (6,), (2, 3, 4)])
def test_unproject_rejects_frames_that_are_not_2d(shape):
    # A flat scan would index such input without raising; the error names the shape.
    depth = np.ones(shape)
    mask = np.ones(shape, dtype=bool)
    with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
        unproject(depth, mask, _camera(2, 3))


# -- ground_plan ---------------------------------------------------------------------


@settings(max_examples=12, deadline=None)
@given(
    data=st.data(),
    seed=st.integers(0, 50),
    shape=st.sampled_from([(72, 120), (112, 64)]),
    dbscan=st.booleans(),
)
def test_ground_plan_equals_the_np_nonzero_reference(suite, data, seed, shape, dbscan):
    # The shoulder camera is non-square, wider than tall or taller than wide.
    script = data.draw(st.sampled_from(suite))
    sim = Simulation.sample(script, seed)
    rig = CameraRig([
        _camera(96, 96, (0.85, 0.0, 0.55), "front"),
        _camera(*shape, (0.35, 0.65, 0.65), "left_shoulder"),
    ]).posed(sim.gripper.position)
    views = render_views(sim.scene, rig)
    text, stacks = OraclePlanner(sim, script).plan(script.instruction, views, [], sim.inventory())
    plan = parse_plan(text, stacks)
    config = GroundingConfig(dbscan_enabled=dbscan)

    got = ground_plan(plan, views, rig, sim.gripper, config)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "pixel_indices", _reference_pixel_indices)
        mp.setattr(executor, "pixel_indices", _reference_pixel_indices)
        want = ground_plan(plan, views, rig, sim.gripper, config)
    assert len(want) > 0
    assert _same_bits(got.points, want.points)
    assert _same_bits(got.labels, want.labels)


# -- object ids ----------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(ids=st.lists(_id_maps(), min_size=1, max_size=4))
def test_object_ids_equal_the_full_frame_unique(ids):
    views = ViewSet([View(depth=np.ones(m.shape), ids=m) for m in ids])
    for v in views:
        got = v.object_ids()
        assert got == _reference_object_ids(v.ids)
        assert all(type(i) is int for i in got)
    want = set().union(*(_reference_object_ids(m) for m in ids))
    assert views.visible_ids() == want
    assert json.dumps(_id_maps_to_json(views)) == json.dumps(_reference_id_maps_to_json(views))
