"""A `View` is a value: its frames are read-only from construction, what derives
from them is computed once, and a view equals only itself.

`object_ids` reads `id_counts`, which a view read from a dataset takes from its
id-map runs when no two entries overlap, and from the decoded frame otherwise.
Both must give `np.unique` of the nonzero ids.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundplan.datasets import _resolver, _views_from_json, write_depth
from groundplan.masks import rle_encode
from groundplan.render import render_views
from groundplan.scene import CameraModel, View, default_rig
from groundplan.simulate import Simulation


def _frames(shape=(2, 3)):
    return np.ones(shape), np.arange(np.prod(shape), dtype=np.int32).reshape(shape)


def _unique_ids(view):
    return np.unique(view.ids[view.ids != 0]).tolist()


def test_a_view_makes_the_frames_it_is_given_read_only():
    depth, ids = _frames()
    view = View(depth=depth, ids=ids)
    assert view.depth is depth and view.ids is ids
    for frame in (depth, ids, depth[0], ids[:, 1:]):
        assert not frame.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            frame[0] = 0


def test_derived_values_are_computed_once():
    view = View(*_frames((3, 4)))
    for name in ("valid_pixels", "scene_pixels", "id_counts"):
        assert getattr(view, name) is getattr(view, name)
    assert view.id_counts == ((3, 4), tuple((oid, 1) for oid in range(1, 12)))


def test_a_view_equals_only_itself():
    a = View(*_frames())
    b = View(depth=a.depth, ids=a.ids)  # the same frames
    c = View(*_frames())  # equal frames
    assert a == a and a != b and a != c and not a == c
    kept = {a: "a", b: "b", c: "c"}
    assert len(kept) == 3 and kept[a] == "a" and kept[c] == "c"


@pytest.mark.parametrize("seed", [0, 3])
def test_object_ids_of_rendered_views_equal_unique(suite, seed):
    for task in suite[:6]:
        sim = Simulation.sample(task, seed)
        for view in render_views(sim.scene, default_rig(64).posed(sim.gripper.position)):
            assert view.object_ids() == _unique_ids(view)


def _entries(data, shape, overlap):
    """[oid, runs] entries of one id map. Without overlap each entry is one oid's
    pixels of a drawn id map, so no pixel is covered twice; with overlap a last
    entry covers a pixel an earlier one already covers."""
    ids = np.array(data.draw(st.lists(st.sampled_from([0, 0, 1, 2, 5, 2**31 - 1]),
                                      min_size=shape[0] * shape[1],
                                      max_size=shape[0] * shape[1])),
                   dtype=np.int32).reshape(shape)
    oids = data.draw(st.permutations(np.unique(ids).tolist()))
    entries = [[oid, rle_encode(ids == oid)] for oid in oids]
    if overlap:
        pixel = np.zeros(shape, dtype=bool)
        pixel.flat[data.draw(st.integers(0, pixel.size - 1))] = True
        entries += [[1, rle_encode(pixel)], [data.draw(st.sampled_from([0, 3, 5])),
                                             rle_encode(pixel)]]
    return entries


@pytest.mark.parametrize("overlap", [False, True], ids=["disjoint-runs", "overlapping-runs"])
def test_object_ids_of_dataset_views_equal_unique(tmp_path, overlap):
    (tmp_path / "depth").mkdir()
    inside = _resolver(str(tmp_path))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def check(data):
        shapes = data.draw(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)),
                                    min_size=1, max_size=3))
        id_maps, names, cameras = [], [], []
        for i, (h, w) in enumerate(shapes):
            id_maps.append(_entries(data, (h, w), overlap))
            names.append(f"depth/v{i}.bin")
            write_depth(str(tmp_path / names[-1]), np.ones((h, w)))
            cameras.append(CameraModel(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=w, height=h,
                                       rotation=np.eye(3), translation=np.zeros(3)))
        id_maps = json.loads(json.dumps(id_maps))  # as the reader receives them
        for view in _views_from_json(id_maps, names, cameras, inside, "rec.json"):
            # Counts from the runs are kept when read; overlapping runs keep none.
            assert ("id_counts" in view.__dict__) is not overlap
            got = view.object_ids()
            assert ("ids" in view.__dict__) is overlap  # disjoint runs decode nothing
            assert got == _unique_ids(view)
            assert view.id_counts == View(depth=np.ones(view.ids.shape),
                                          ids=view.ids.copy()).id_counts

    check()
