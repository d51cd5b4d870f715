from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from groundplan.geometry import (
    FUSE_VOXEL,
    OBSTACLE,
    ROBOT,
    TARGET_LOCATION,
    TARGET_OBJECT,
    DbscanParams,
    _eps_neighbours,
    canonical_order,
    categorize,
    dbscan_filter,
    fuse_views,
    unproject,
)
from groundplan.scene import CameraModel, look_at


def identity_camera(resolution=64):
    return CameraModel(
        fx=64.0, fy=64.0, cx=32.0, cy=32.0,
        width=resolution, height=resolution,
        rotation=np.eye(3), translation=np.zeros(3), role="test",
    )


def random_camera(rng):
    eye = rng.uniform(-1.0, 1.0, size=3) + np.array([0.0, 0.0, 1.5])
    target = rng.uniform(-0.2, 0.2, size=3)
    rot, t = look_at(eye, target)
    f = float(rng.uniform(50, 400))
    return CameraModel(
        fx=f, fy=f * float(rng.uniform(0.8, 1.2)),
        cx=float(rng.uniform(20, 44)), cy=float(rng.uniform(20, 44)),
        width=64, height=64, rotation=rot, translation=t, role="r",
    )


# -- unproject / project ----------------------------------------------------------


def test_unproject_optical_axis_pixel():
    cam = identity_camera()
    depth = np.zeros((64, 64), dtype=np.float32)
    mask = np.zeros((64, 64), dtype=bool)
    depth[32, 32] = 2.0
    mask[32, 32] = True
    pts = unproject(depth, mask, cam)
    assert pts.shape == (1, 3)
    assert np.allclose(pts[0], [0.0, 0.0, 2.0], atol=1e-12)


def test_unproject_empty_mask():
    cam = identity_camera()
    depth = np.ones((64, 64), dtype=np.float32)
    pts = unproject(depth, np.zeros((64, 64), dtype=bool), cam)
    assert pts.shape == (0, 3)


def test_unproject_skips_zero_depth():
    cam = identity_camera()
    depth = np.zeros((64, 64), dtype=np.float32)
    mask = np.ones((64, 64), dtype=bool)
    assert len(unproject(depth, mask, cam)) == 0


def test_unproject_resolution_mismatch():
    cam = identity_camera()
    with pytest.raises(ValueError):
        unproject(np.ones((8, 8)), np.ones((9, 9), dtype=bool), cam)


def _reference_project(pts, cam):
    """Independent projection written from the pinhole definition."""
    us, vs, zs = [], [], []
    for p in pts:
        q = cam.rotation @ np.asarray(p) + cam.translation
        us.append(cam.fx * q[0] / q[2] + cam.cx)
        vs.append(cam.fy * q[1] / q[2] + cam.cy)
        zs.append(q[2])
    return np.array(us), np.array(vs), np.array(zs)


def test_unproject_project_roundtrip(rng):
    for _ in range(40):
        cam = random_camera(rng)
        depth = np.zeros((64, 64), dtype=np.float32)
        mask = np.zeros((64, 64), dtype=bool)
        vs = rng.integers(0, 64, size=25)
        us = rng.integers(0, 64, size=25)
        ds = rng.uniform(0.2, 3.0, size=25).astype(np.float32)
        depth[vs, us] = ds
        mask[vs, us] = True
        pts = unproject(depth, mask, cam)
        u2, v2, z2 = _reference_project(pts, cam)
        # Points come back in row-major pixel order.
        order = np.lexsort((us, vs))
        uniq = sorted(set(zip(vs.tolist(), us.tolist())))
        assert len(pts) == len(uniq)
        exp_u = np.array([u for _, u in uniq], dtype=float)
        exp_v = np.array([v for v, _ in uniq], dtype=float)
        assert np.abs(u2 - exp_u).max() < 0.5
        assert np.abs(v2 - exp_v).max() < 0.5
        exp_d = np.array([depth[v, u] for v, u in uniq])
        assert np.abs(z2 - exp_d).max() < 1e-6


def test_rigid_transform_equivariance(rng):
    from groundplan.scene import yaw_matrix

    cam = random_camera(rng)
    depth = np.zeros((64, 64), dtype=np.float32)
    mask = np.zeros((64, 64), dtype=bool)
    depth[10:30, 15:40] = rng.uniform(0.5, 2.0, size=(20, 25)).astype(np.float32)
    mask[10:30, 15:40] = True
    pts = unproject(depth, mask, cam)

    rot = yaw_matrix(0.7)
    shift = np.array([0.3, -0.2, 0.1])
    # Camera moved by the rigid transform: R' = R Q^T, t' = t - R Q^T s.
    cam2 = CameraModel(
        fx=cam.fx, fy=cam.fy, cx=cam.cx, cy=cam.cy,
        width=cam.width, height=cam.height,
        rotation=cam.rotation @ rot.T,
        translation=cam.translation - cam.rotation @ rot.T @ shift,
        role="moved",
    )
    pts2 = unproject(depth, mask, cam2)
    expected = pts @ rot.T + shift
    assert np.abs(pts2 - expected).max() < 1e-9


# -- fusion ----------------------------------------------------------------------


def test_fuse_single_view_identity_up_to_sort(rng):
    pts = rng.uniform(-0.1, 0.1, size=(50, 3))
    fused = fuse_views([pts], voxel=1e-6)
    assert np.allclose(fused, canonical_order(pts))


def test_fuse_deduplicates_repeated_point():
    p = np.array([[0.01, 0.02, 0.03]])
    fused = fuse_views([p, p.copy()])
    assert fused.shape == (1, 3)
    assert np.allclose(fused[0], p[0])


def test_fuse_count_bounded_and_permutation_invariant(rng):
    for _ in range(100):
        views = [rng.uniform(-0.05, 0.05, size=(rng.integers(0, 40), 3))
                 for _ in range(4)]
        fused = fuse_views(views)
        assert len(fused) <= sum(len(v) for v in views)
        order = rng.permutation(4)
        fused2 = fuse_views([views[i] for i in order])
        assert np.array_equal(fused, fused2)


# Few distinct values, so rows tie on one, two or all three keys; both zeros,
# infinities and subnormals among them.
_key = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, -5e-324, 2.2e-308,
                        np.inf, -np.inf, 1e300])


@settings(max_examples=500, deadline=None)
@given(rows=st.one_of(
    st.lists(st.tuples(_key, _key, _key), max_size=40),
    # Long enough that numpy would sort them with a kind that is not stable.
    hnp.arrays(np.float64, st.tuples(st.integers(200, 400), st.just(3)), elements=_key),
    st.lists(st.tuples(*[st.floats(allow_nan=False)] * 3), max_size=40),
))
def test_canonical_order_is_the_lexsort_order(rows):
    pts = np.array(rows, dtype=float).reshape(-1, 3)
    ref = pts[np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))]
    assert canonical_order(pts).tobytes() == ref.tobytes()


def test_canonical_order_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        canonical_order(np.array([[0.0, 0.0, 0.0], [0.0, np.nan, 1.0]]))


# -- categorize -------------------------------------------------------------------


def test_categorize_slot_presence():
    obj = np.array([[0.0, 0.0, 0.05]])
    scene = np.array([[0.2, 0.2, 0.02], [0.3, 0.1, 0.02]])
    cloud = categorize({"object": obj}, scene, gripper_position=[1.0, 1.0, 1.0])
    labels = set(cloud.labels.tolist())
    assert labels == {TARGET_OBJECT, OBSTACLE}


def test_categorize_robot_precedence_over_object():
    obj = np.array([[0.0, 0.0, 0.05]])
    cloud = categorize({"object": obj}, np.empty((0, 3)),
                       gripper_position=[0.0, 0.0, 0.06])
    assert cloud.labels.tolist() == [ROBOT]


def test_categorize_held_object_points_are_robot():
    scene = np.array([[0.5, 0.5, 0.02], [0.0, 0.0, 0.3]])
    ids = np.array([7, 3])
    cloud = categorize({}, scene, gripper_position=[9.0, 9.0, 9.0],
                       held_id=7, scene_ids=ids)
    assert cloud.labels.tolist() == [ROBOT, OBSTACLE]


def test_categorize_partition_and_counts():
    # Crafted three-group scene with hand-enumerated counts.
    obj = np.array([[0.0, 0.0, 0.02], [0.005, 0.0, 0.02]])
    loc = np.array([[0.1, 0.0, 0.01]])
    scene = np.array([
        [0.2, 0.0, 0.02],      # obstacle
        [0.21, 0.0, 0.02],     # obstacle
        [0.0, 0.0, 0.21],      # within 3 cm of gripper -> robot
    ])
    cloud = categorize({"object": obj, "location": loc}, scene,
                       gripper_position=[0.0, 0.0, 0.2])
    assert len(cloud) == 6
    assert cloud.counts() == {
        "target_object": 2, "target_location": 1, "robot": 1, "obstacle": 2,
    }
    # Partition: one label per point, all points labeled.
    assert cloud.labels.shape == (6,)
    assert np.all((cloud.labels >= 0) & (cloud.labels <= 3))


# -- DBSCAN -----------------------------------------------------------------------


def _brute_force_dbscan(points, eps, min_pts):
    """Definitional DBSCAN: core points, density-reachability, label sets.

    Returns the set of clustered (non-noise) point indices, computed with
    plain loops, entirely independent of the library implementation.
    """
    n = len(points)
    neighbors = [
        {j for j in range(n)
         if np.linalg.norm(points[i] - points[j]) <= eps}
        for i in range(n)
    ]
    core = [len(neighbors[i]) >= min_pts for i in range(n)]
    labels = [-1] * n
    cluster = 0
    for i in range(n):
        if not core[i] or labels[i] != -1:
            continue
        queue = [i]
        labels[i] = cluster
        while queue:
            q = queue.pop()
            for j in neighbors[q]:
                if labels[j] == -1:
                    labels[j] = cluster
                    if core[j]:
                        queue.append(j)
        cluster += 1
    return {i for i in range(n) if labels[i] != -1}


def test_dbscan_outlier_example():
    rng = np.random.default_rng(0)
    ball = rng.normal(scale=0.005, size=(50, 3))
    outlier = np.array([[1.0, 1.0, 1.0]])
    pts = np.concatenate([ball, outlier])
    out = dbscan_filter(pts, DbscanParams(eps=0.05, min_pts=5))
    assert len(out) == 50
    assert np.abs(out).max() < 0.5


def test_dbscan_single_cluster_identity(rng):
    pts = rng.normal(scale=0.004, size=(30, 3))
    out = dbscan_filter(pts, DbscanParams(eps=0.05, min_pts=5))
    assert np.array_equal(out, canonical_order(pts))


def test_dbscan_empty_input():
    assert len(dbscan_filter(np.empty((0, 3)), DbscanParams())) == 0


def test_dbscan_matches_brute_force(rng):
    for trial in range(100):
        n = int(rng.integers(2, 100))
        pts = rng.uniform(-0.1, 0.1, size=(n, 3))
        eps = float(rng.uniform(0.01, 0.07))
        min_pts = int(rng.integers(1, 8))
        params = DbscanParams(eps=eps, min_pts=min_pts)
        kept_ref = _brute_force_dbscan(pts, eps, min_pts)
        out = dbscan_filter(pts, params)
        expected = canonical_order(pts[sorted(kept_ref)]) if kept_ref else np.empty((0, 3))
        assert np.array_equal(out, expected)


def test_dbscan_idempotent(rng):
    for _ in range(25):
        pts = rng.uniform(-0.08, 0.08, size=(60, 3))
        params = DbscanParams(eps=0.02, min_pts=4)
        once = dbscan_filter(pts, params)
        twice = dbscan_filter(once, params)
        assert np.array_equal(once, twice)


def test_dbscan_output_subset_of_input(rng):
    pts = rng.uniform(-0.1, 0.1, size=(80, 3))
    out = dbscan_filter(pts, DbscanParams(eps=0.02, min_pts=5))
    in_set = {tuple(p) for p in pts}
    assert all(tuple(p) in in_set for p in out)


# -- grid neighbour search and packed voxel keys against the dense references ---


def _dense_eps_neighbours(pts, params):
    """(N x N within-eps adjacency, core mask): the all-pairs reference."""
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    adj = d2 <= params.eps**2
    return adj, adj.sum(axis=1) >= params.min_pts


def _dense_dbscan_filter(points, params):
    pts = canonical_order(points)
    if len(pts) == 0:
        return pts
    adj, core = _dense_eps_neighbours(pts, params)
    keep = core | adj[:, core].any(axis=1)
    return pts[keep]


def _unique_rows_fuse(point_lists, voxel=FUSE_VOXEL):
    """Voxel fusion on np.unique(axis=0) of the integer voxel triples."""
    nonempty = [np.asarray(p, dtype=float).reshape(-1, 3) for p in point_lists]
    nonempty = [p for p in nonempty if len(p)]
    if not nonempty:
        return np.empty((0, 3))
    pts = canonical_order(np.concatenate(nonempty))
    keys = np.floor(pts / voxel).astype(np.int64)
    _, inverse, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    sums = np.zeros((len(counts), 3))
    np.add.at(sums, inverse.reshape(-1), pts)
    return canonical_order(sums / counts[:, None])


def _assert_dbscan_matches_dense(pts, params):
    assert np.array_equal(dbscan_filter(pts, params), _dense_dbscan_filter(pts, params))
    # The grid step yields each ordered within-eps pair exactly once: a pair
    # within one cell in each order, a pair across cells once, read both ways.
    order, si, sj, same, sorted_core = _eps_neighbours(pts, params)
    i = order[np.concatenate([si, sj[same:]])]
    j = order[np.concatenate([sj, si[same:]])]
    core = np.empty_like(sorted_core)
    core[order] = sorted_core
    adj, dense_core = _dense_eps_neighbours(pts, params)
    dense_i, dense_j = np.nonzero(adj)
    assert sorted(zip(i.tolist(), j.tolist())) == list(zip(dense_i.tolist(), dense_j.tolist()))
    assert np.array_equal(core, dense_core)


_coord = st.floats(-0.1, 0.1, allow_nan=False, allow_infinity=False)
_cloud = st.lists(st.tuples(_coord, _coord, _coord), min_size=1, max_size=120)
_params = st.builds(DbscanParams, eps=st.floats(0.005, 0.08), min_pts=st.integers(1, 8))


@settings(max_examples=200, deadline=None)
@given(cloud=_cloud, params=_params)
# eps + 2**-280 rounds to eps, so the pair is within eps yet its points lie in
# cells -1 and 1 of a grid exactly eps wide.
@example(cloud=[(0.0, 0.0, 0.0625), (0.0, 0.0, -(2.0**-280))],
         params=DbscanParams(eps=0.0625, min_pts=1))
def test_grid_dbscan_equals_dense_on_random_clouds(cloud, params):
    _assert_dbscan_matches_dense(np.array(cloud), params)


@settings(max_examples=150, deadline=None)
@given(cloud=_cloud, picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=60),
       params=_params)
def test_grid_dbscan_equals_dense_with_duplicate_points(cloud, picks, params):
    pts = np.array(cloud)
    pts = np.concatenate([pts, pts[[k % len(pts) for k in picks]]])
    _assert_dbscan_matches_dense(pts, params)


@settings(max_examples=200, deadline=None)
@given(
    steps=st.lists(st.tuples(*[st.integers(-4, 4)] * 3), min_size=1, max_size=80),
    eps=st.sampled_from([2.0**-5, 0.008, 0.01, 0.02, 0.03]),
    origin=st.sampled_from([0.0, -(2.0**-55), -0.37, 1e3, 1e6]),
    min_pts=st.integers(1, 7),
)
def test_grid_dbscan_equals_dense_on_an_eps_lattice(steps, eps, origin, min_pts):
    # Lattice neighbours sit exactly at (or one rounding off) distance eps;
    # the tiny negative origin puts pairs exactly eps apart across a cell
    # boundary at zero.
    pts = origin + eps * np.array(steps, dtype=float)
    _assert_dbscan_matches_dense(pts, DbscanParams(eps=eps, min_pts=min_pts))


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_pair_exactly_eps_apart_across_a_cell_boundary_is_kept(axis):
    eps = 2.0**-5
    pts = np.zeros((2, 3))
    pts[:, axis] = [-(2.0**-55), eps - 2.0**-55]  # both exact; difference is eps
    params = DbscanParams(eps=eps, min_pts=2)
    _assert_dbscan_matches_dense(pts, params)
    assert len(dbscan_filter(pts, params)) == 2


@settings(max_examples=200, deadline=None)
@given(
    views=st.lists(st.lists(st.tuples(_coord, _coord, _coord), max_size=60), max_size=4),
    voxel=st.sampled_from([FUSE_VOXEL, 0.02, 1e-6, 2.0**-6, 0.5]),
    dup=st.booleans(),
)
def test_packed_fuse_equals_unique_rows(views, voxel, dup):
    point_lists = [np.array(v, dtype=float).reshape(-1, 3) for v in views]
    if dup:  # every point twice: voxels with several members
        point_lists = point_lists + [p.copy() for p in point_lists]
    assert np.array_equal(fuse_views(point_lists, voxel), _unique_rows_fuse(point_lists, voxel))


@settings(max_examples=50, deadline=None)
@given(magnitude=st.floats(1e7, 1e300), eps=st.floats(0.005, 0.08))
def test_cell_keys_that_would_overflow_int64_raise(magnitude, eps):
    pts = np.array([[-magnitude] * 3, [magnitude] * 3])
    with pytest.raises(ValueError, match="overflow int64"):
        fuse_views([pts])
    with pytest.raises(ValueError, match="overflow int64"):
        dbscan_filter(pts, DbscanParams(eps=eps, min_pts=1))


def test_overflow_error_names_span_and_cell_size():
    pts = np.array([[0.0, 0.0, 0.0], [1e20, 1e20, 1e20]])
    with pytest.raises(ValueError, match=r"cells of 0\.005 m"):
        fuse_views([pts])


def test_dbscan_params_validated():
    with pytest.raises(ValueError):
        DbscanParams(eps=0.0)
    with pytest.raises(ValueError):
        DbscanParams(min_pts=0)

