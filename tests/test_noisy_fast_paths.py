"""The noisy loop's fast paths against the forms they replaced.

- `MaskNoisePlanner` draws spurious pixels by inverse-CDF lookups in a table
  it keeps per view. The reference below is the planner as it was: it calls
  `Generator.choice(candidates, p=w)` on every mask. Masks and generator
  state must be equal after every call.
- `View.valid_pixels` is the one scan of a depth frame; `unproject` given it
  must equal `unproject` scanning the frame itself, and `ground_plan`'s
  reference clouds must equal clouds built that way.
- DBSCAN's grid search is checked against the dense all-pairs reference in
  `test_geometry.py`; the canonical-input shortcut is checked here.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundplan.executor import GroundingConfig, ground_plan
from groundplan.geometry import (
    ROBOT,
    TARGET_OBJECT,
    DbscanParams,
    canonical_order,
    dbscan_filter,
    fuse_views,
    unproject,
)
from groundplan.planlang import GroundedPlan, GroundedReference
from groundplan.planners import MaskNoisePlanner
from groundplan.render import render_views
from groundplan.scene import View, ViewSet, default_rig
from groundplan.simulate import Simulation
from tests.test_geometry import _dense_dbscan_filter
from tests.test_scene_pass import _reference_ground_plan


class _ChoiceNoise:
    """`MaskNoisePlanner` as it was: one `Generator.choice(p=w)` per mask."""

    def __init__(self, base, noise, episode_seed=0, seed=0):
        self.base, self.noise = base, noise
        self.rng = np.random.default_rng(
            np.random.SeedSequence([seed & (2**64 - 1), episode_seed & (2**64 - 1), 1451]))

    def _speckle(self, mask, view):
        area = int(np.count_nonzero(mask))
        if area == 0 or self.noise == 0.0:
            return mask
        out = np.asarray(mask, dtype=bool).copy()
        flat = out.ravel()
        on = np.flatnonzero(flat)
        flat[on[self.rng.random(len(on)) < self.noise]] = False
        depth = np.asarray(view.depth).ravel()
        candidates = np.flatnonzero(depth > 0)
        if len(candidates):
            k = int(self.rng.binomial(area, self.noise))
            if k:
                w = depth[candidates] ** 2
                w = w / w.sum()
                flat[self.rng.choice(candidates, size=k, p=w)] = True
        return out

    def plan(self, instruction, views, history, inventory):
        text, stacks = self.base.plan(instruction, views, history, inventory)
        return text, [[self._speckle(m, v) for m, v in zip(stack, views)] for stack in stacks]


class _Script:
    """A base planner that emits the next scripted mask stacks on each call."""

    def __init__(self, calls):
        self.calls = iter(calls)

    def plan(self, instruction, views, history, inventory):
        return "text", next(self.calls)


def _frame(data, shape, dtype):
    """A depth frame: zeros, negatives and positive depths of several scales."""
    values = st.sampled_from([0.0, 0.0, -1.0, 1e-3, 0.3, 0.7, 1.5, 4.0, 30.0])
    return np.array(data.draw(st.lists(values, min_size=shape[0] * shape[1],
                                       max_size=shape[0] * shape[1])),
                    dtype=dtype).reshape(shape)


def _mask(data, shape):
    kind = data.draw(st.sampled_from(["empty", "random", "full"]))
    if kind == "empty":
        return np.zeros(shape, dtype=bool)
    if kind == "full":
        return np.ones(shape, dtype=bool)
    bits = data.draw(st.lists(st.booleans(), min_size=shape[0] * shape[1],
                              max_size=shape[0] * shape[1]))
    return np.array(bits).reshape(shape)


def _view(depth):
    return View(depth=depth.copy(), ids=(depth > 0).astype(np.int32))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), noise=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
       dtype=st.sampled_from([np.float32, np.float64]), n_views=st.integers(1, 3),
       calls=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_noisy_planner_equals_choice(data, noise, dtype, n_views, calls, seed):
    shape = data.draw(st.sampled_from([(1, 1), (3, 5), (8, 8)]))
    views = [_view(_frame(data, shape, dtype)) for _ in range(n_views)]
    script = []
    viewsets = []
    for _ in range(calls):
        # A call keeps some views from the call before and gets new frames for others.
        for i in range(n_views):
            if data.draw(st.booleans()):
                views[i] = _view(_frame(data, shape, dtype))
        viewsets.append(ViewSet(list(views)))
        # One to three references; a stack may be reused, so one view serves two.
        stacks = [[_mask(data, shape) for _ in views]]
        for _ in range(data.draw(st.integers(0, 2))):
            stacks.append(stacks[0] if data.draw(st.booleans())
                          else [_mask(data, shape) for _ in views])
        script.append(stacks)

    fast = MaskNoisePlanner(_Script(script), noise, episode_seed=seed, seed=7)
    ref = _ChoiceNoise(_Script(script), noise, episode_seed=seed, seed=7)
    for vs in viewsets:
        _, got = fast.plan("x", vs, [], [])
        _, want = ref.plan("x", vs, [], [])
        assert [[m.tobytes() for m in s] for s in got] == [[m.tobytes() for m in s] for s in want]
        assert fast.rng.bit_generator.state == ref.rng.bit_generator.state
        assert set(fast._cdfs) <= set(vs)  # only this call's views keep a CDF


def test_noisy_planner_rejects_non_finite_weights_as_choice_does():
    depth = np.array([[3e19, 1.0]], dtype=np.float32)  # 3e19**2 overflows float32
    view = _view(depth)
    stacks = [[np.array([[True, True]])]]
    for planner in (MaskNoisePlanner(_Script([stacks]), 1.0), _ChoiceNoise(_Script([stacks]), 1.0)):
        with pytest.raises(ValueError), np.errstate(over="ignore", invalid="ignore"):
            planner.plan("x", ViewSet([view]), [], [])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dtype=st.sampled_from([np.float32, np.float64]))
def test_unproject_on_the_valid_index_equals_the_frame_scan(data, dtype):
    shape = data.draw(st.sampled_from([(1, 1), (4, 7), (9, 3)]))
    depth = _frame(data, shape, dtype)
    if data.draw(st.booleans()):
        depth[0, 0] = np.nan  # neither scan counts a NaN depth as valid
    view = _view(depth)
    mask = _mask(data, shape)
    cam = default_rig(shape[1]).cameras[0]
    want = unproject(view.depth, mask, cam)
    got = unproject(view.depth, mask, cam, view.valid_pixels)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    valid = view.valid_pixels
    assert valid.dtype == np.int32
    assert np.array_equal(valid, np.flatnonzero(view.depth > 0))
    assert view.scene_pixels == np.count_nonzero((view.ids != 0) & (view.depth > 0))


@settings(max_examples=25, deadline=None)
@given(data=st.data(), seed=st.integers(0, 40), noise=st.sampled_from([0.2, 0.6]),
       dbscan=st.booleans())
def test_ground_plan_mask_pixels_equal_unproject(suite, data, seed, noise, dbscan):
    """Speckled masks reach background pixels, which have no depth."""
    task = data.draw(st.sampled_from(suite))
    sim = Simulation.sample(task, seed)
    rig = default_rig(64).posed(sim.gripper.position)
    views = render_views(sim.scene, rig)
    oid = data.draw(st.sampled_from([o.id for o in sim.scene.objects]))
    masks = [np.array(m) for m in views.masks_for(oid)]
    speckle = np.random.default_rng(seed)
    for m in masks:
        m[speckle.random(m.shape) < noise] = True
    plan = GroundedPlan(action="grasp", object=GroundedReference(text="x", masks=masks))
    config = GroundingConfig(dbscan_enabled=dbscan, dbscan=DbscanParams(eps=0.008))
    got = ground_plan(plan, views, rig, sim.gripper, config)
    want = _reference_ground_plan(plan, views, rig, sim.gripper, config)
    for label in (TARGET_OBJECT, ROBOT):
        assert got.select(label).tobytes() == want.select(label).tobytes()
    assert got.counts() == want.counts()


@settings(max_examples=200, deadline=None)
@given(cloud=st.lists(st.tuples(*[st.floats(-0.05, 0.05)] * 3), min_size=1, max_size=80),
       eps=st.sampled_from([0.004, 0.008, 0.02]), min_pts=st.integers(1, 6))
def test_dbscan_on_canonical_input_equals_dbscan_on_any_order(cloud, eps, min_pts):
    """fuse_views output is canonical; dbscan_filter sorts it again, to the same bytes."""
    params = DbscanParams(eps=eps, min_pts=min_pts)
    pts = np.array(cloud)
    fused = fuse_views([pts])
    shuffled = fused[np.random.default_rng(len(cloud)).permutation(len(fused))]
    assert canonical_order(fused).tobytes() == fused.tobytes()
    # Duplicate rows and both zeros tie, and ties keep their input order.
    doubled = np.concatenate([pts, -0.0 * pts, pts])
    for points in (fused, shuffled, doubled, canonical_order(doubled)):
        want = _dense_dbscan_filter(points, params)  # sorts every input
        assert dbscan_filter(points, params).tobytes() == want.tobytes()


@pytest.mark.parametrize("points", [
    [[np.nan, 0.0, 0.0]],
    [[0.0, np.nan, 0.0], [1.0, 0.0, 0.0]],  # sorted by x, so the order test alone passes
    [[0.0, 0.0, 0.0], [0.0, 0.0, np.nan]],
])
def test_dbscan_rejects_nan_in_any_position(points):
    with pytest.raises(ValueError, match="canonical_order: points must not be NaN"):
        dbscan_filter(np.array(points))
