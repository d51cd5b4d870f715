"""Camera math and the grounding-to-3D pipeline.

Masked depth pixels are unprojected to world points, fused across views with
voxel deduplication, labeled into the four point categories consumed by the
motion policy, and optionally cleaned with DBSCAN outlier removal. All
functions are pure and canonicalize point order, so results are independent
of view order and safe to compare bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scene import CameraModel

# Point category labels.
TARGET_OBJECT = 0
TARGET_LOCATION = 1
ROBOT = 2
OBSTACLE = 3
LABEL_NAMES = ("target_object", "target_location", "robot", "obstacle")

ROBOT_RADIUS = 0.03
FUSE_VOXEL = 0.005


@dataclass(frozen=True)
class DbscanParams:
    eps: float = 0.02
    min_pts: int = 5

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.min_pts < 1:
            raise ValueError("min_pts must be >= 1")


@dataclass
class LabeledPointCloud:
    """World points with exactly one category label each."""

    points: np.ndarray  # (N, 3) float64
    labels: np.ndarray  # (N,) int8

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        self.labels = np.asarray(self.labels, dtype=np.int8).reshape(-1)
        if len(self.points) != len(self.labels):
            raise ValueError("points and labels must have equal length")

    def __len__(self) -> int:
        return len(self.points)

    def select(self, label: int) -> np.ndarray:
        return self.points[self.labels == label]

    def counts(self) -> dict[str, int]:
        return {
            name: int(np.count_nonzero(self.labels == i))
            for i, name in enumerate(LABEL_NAMES)
        }

    def to_json(self) -> list:
        return [
            [float(x), float(y), float(z), LABEL_NAMES[l]]
            for (x, y, z), l in zip(self.points, self.labels)
        ]


def project(points: np.ndarray, camera: CameraModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """World points -> (u, v) pixel coordinates and camera-z depth."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    cam = pts @ camera.rotation.T + camera.translation
    z = cam[:, 2]
    u = camera.fx * cam[:, 0] / z + camera.cx
    v = camera.fy * cam[:, 1] / z + camera.cy
    return u, v, z


def unproject(depth: np.ndarray, mask: np.ndarray, camera: CameraModel) -> np.ndarray:
    """World points for every masked pixel with positive depth.

    Pixel (u, v) at depth d maps to the camera-frame point
    (d*(u-cx)/fx, d*(v-cy)/fy, d), then through the inverse extrinsic.
    """
    depth = np.asarray(depth)
    mask = np.asarray(mask, dtype=bool)
    if depth.shape != mask.shape:
        raise ValueError(f"depth {depth.shape} and mask {mask.shape} differ")
    vs, us = np.nonzero(mask & (depth > 0))
    if len(us) == 0:
        return np.empty((0, 3))
    d = depth[vs, us].astype(float)
    x = d * (us - camera.cx) / camera.fx
    y = d * (vs - camera.cy) / camera.fy
    cam_pts = np.stack([x, y, d], axis=1)
    return (cam_pts - camera.translation) @ camera.rotation


def canonical_order(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))
    return pts[order]


def fuse_views(point_lists: list[np.ndarray], voxel: float = FUSE_VOXEL) -> np.ndarray:
    """Concatenate world-frame point lists and deduplicate on a voxel grid.

    Points falling in the same voxel merge to their centroid. Input points
    are canonically sorted before accumulation, so the output is bit-exact
    under any permutation of views or points.
    """
    nonempty = [np.asarray(p, dtype=float).reshape(-1, 3) for p in point_lists]
    nonempty = [p for p in nonempty if len(p)]
    if not nonempty:
        return np.empty((0, 3))
    pts = canonical_order(np.concatenate(nonempty))
    keys = np.floor(pts / voxel).astype(np.int64)
    _, inverse, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    sums = np.zeros((len(counts), 3))
    np.add.at(sums, inverse, pts)
    centroids = sums / counts[:, None]
    return canonical_order(centroids)


def _eps_neighbours(pts: np.ndarray, params: DbscanParams) -> tuple[np.ndarray, np.ndarray]:
    """(N x N within-eps adjacency, core mask); min_pts counts the point itself."""
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    adj = d2 <= params.eps**2
    return adj, adj.sum(axis=1) >= params.min_pts


def dbscan_filter(points: np.ndarray, params: DbscanParams = DbscanParams()) -> np.ndarray:
    """Drop DBSCAN noise points; all clusters survive.

    min_pts counts the point itself. Points are canonically sorted before
    clustering, so output is deterministic and filtering is idempotent.
    """
    pts = canonical_order(points)
    if len(pts) == 0:
        return pts
    adj, core = _eps_neighbours(pts, params)
    # A point is kept iff it is a core point or within eps of one.
    keep = core | adj[:, core].any(axis=1)
    return pts[keep]


def dbscan_labels(points: np.ndarray, params: DbscanParams = DbscanParams()) -> np.ndarray:
    """Full DBSCAN labeling: cluster index per point, -1 for noise.

    Border points attach to the lowest-indexed adjacent core cluster.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(pts)
    labels = np.full(n, -1, dtype=int)
    if n == 0:
        return labels
    adj, core = _eps_neighbours(pts, params)
    cluster = 0
    for i in range(n):
        if not core[i] or labels[i] != -1:
            continue
        # Expand over density-connected core points.
        frontier = np.zeros(n, dtype=bool)
        frontier[i] = True
        members = np.zeros(n, dtype=bool)
        while frontier.any():
            members |= frontier
            reach = adj[frontier].any(axis=0) & core & ~members
            frontier = reach
        labels[members] = cluster
        # Border points adjacent to this cluster's cores.
        border = adj[:, members & core].any(axis=1) & ~core & (labels == -1)
        labels[border] = cluster
        cluster += 1
    return labels


def categorize(
    reference_clouds: dict[str, np.ndarray],
    scene_points: np.ndarray,
    gripper_position: np.ndarray,
    held_id: int | None = None,
    scene_ids: np.ndarray | None = None,
) -> LabeledPointCloud:
    """Label points with the four motion-policy categories.

    reference_clouds maps "object"/"location" to that reference's fused
    cloud. Scene points default to obstacle. Points within ROBOT_RADIUS
    of the gripper, plus scene points belonging to the held object, become
    robot points; precedence is robot > target object > target location >
    obstacle.
    """
    parts, labels = [], []
    obj = reference_clouds.get("object")
    if obj is not None and len(obj):
        parts.append(np.asarray(obj, dtype=float).reshape(-1, 3))
        labels.append(np.full(len(parts[-1]), TARGET_OBJECT, dtype=np.int8))
    loc = reference_clouds.get("location")
    if loc is not None and len(loc):
        parts.append(np.asarray(loc, dtype=float).reshape(-1, 3))
        labels.append(np.full(len(parts[-1]), TARGET_LOCATION, dtype=np.int8))
    scene_pts = np.asarray(scene_points, dtype=float).reshape(-1, 3)
    held_mask = None
    if len(scene_pts):
        parts.append(scene_pts)
        labels.append(np.full(len(scene_pts), OBSTACLE, dtype=np.int8))
        if held_id is not None and scene_ids is not None:
            held_mask = np.asarray(scene_ids).reshape(-1) == held_id
    if not parts:
        return LabeledPointCloud(np.empty((0, 3)), np.empty(0, dtype=np.int8))
    points = np.concatenate(parts)
    label = np.concatenate(labels)
    if held_mask is not None:
        scene_offset = len(points) - len(scene_pts)
        label[scene_offset:][held_mask] = ROBOT
    gp = np.asarray(gripper_position, dtype=float).reshape(3)
    near = np.linalg.norm(points - gp, axis=1) <= ROBOT_RADIUS
    label[near] = ROBOT
    return LabeledPointCloud(points, label)
