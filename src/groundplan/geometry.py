"""Camera math and the grounding-to-3D pipeline.

Masked depth pixels are unprojected to world points, fused across views with
voxel deduplication, labeled into the four point categories of the motion
policy, and optionally cleaned with DBSCAN outlier removal. The policy reads
target-object, target-location and robot points only, so the grounded cloud
stores those and counts the other obstacles; it keeps obstacle points only
where they lie close enough to the gripper that they might have been robot. All
functions are pure and canonicalize point order, so results are independent
of view order and safe to compare bit-for-bit.

Voxels and DBSCAN cells are both addressed by one int64 key per point: the
integer cell triple, offset by its per-axis minimum and packed in mixed
radix. DBSCAN finds neighbours on a grid of cells with an edge of at least
eps (Gunawan 2013; Gan & Tao 2015): points are sorted by cell key, and a
point is tested only against the points of the 27 cells around its own,
read from one gather of the points, in cell order, into three contiguous
columns. Pairs within a cell are enumerated in both orders, pairs across
adjacent cells once, and a near pair across cells counts for both points,
so no candidate is gathered twice. The expected cost is O(N) for clouds of
bounded density, against the O(N^2) time and memory of an all-pairs
distance matrix, and each candidate pair is decided by the same float
expression as the all-pairs test, (dx^2 + dy^2) + dz^2 <= eps^2, so
results are bit-identical.

Sums and norms over x, y, z are written out as elementwise adds in the
order numpy's reductions add them, ((x + y) + z), because the reduction
machinery costs more than the arithmetic on an axis of length 3. Adds in a
fixed order round the same way every time, so results stay bit-identical
to np.sum(..., axis=-1) and np.linalg.norm(..., axis=1).

Pixel indices come from a 1-D scan of a bool mask, np.flatnonzero, whose
flat indices are split by the frame width into rows and columns. That gives
np.nonzero's integer indices in the same row-major order. On a 256x256 frame
a 2-D np.nonzero, which builds multi-indices as it scans, or a scan of the
int32 id map in place of a bool mask takes 9-16x as long as the 1-D scan,
and 6-8x as long as the scan and the split together.
"""

from __future__ import annotations

import math
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
    """World points with exactly one category label each, plus obstacles that
    are only counted.

    The motion policy reads target-object, target-location and robot points
    alone, so grounding stores those and only counts most obstacle points:
    `hidden_obstacles` of them have no entry in `points`, and `counts()` adds
    them to the obstacle count.
    """

    points: np.ndarray  # (N, 3) float64
    labels: np.ndarray  # (N,) int8
    hidden_obstacles: int = 0

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
        counts = {name: int(np.count_nonzero(self.labels == i))
                  for i, name in enumerate(LABEL_NAMES)}
        counts["obstacle"] += self.hidden_obstacles
        return counts


def unproject(
    depth: np.ndarray, mask: np.ndarray, camera: CameraModel, valid: np.ndarray | None = None
) -> np.ndarray:
    """World points for every masked pixel with positive depth, in row-major order.

    Pixel (u, v) at depth d maps to the camera-frame point
    (d*(u-cx)/fx, d*(v-cy)/fy, d), then through the inverse extrinsic. Given
    `valid` (`View.valid_pixels`), the mask is read at those pixels alone.
    """
    depth = np.asarray(depth)
    mask = np.asarray(mask, dtype=bool)
    if depth.shape != mask.shape:
        raise ValueError(f"depth {depth.shape} and mask {mask.shape} differ")
    if valid is None:
        vs, us = pixel_indices(mask & (depth > 0))
    else:
        vs, us = np.divmod(valid[mask.ravel()[valid]], mask.shape[1])
    return unproject_pixels(depth, vs, us, camera)


def pixel_indices(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(vs, us) of a 2-D bool mask's True pixels in row-major order, equal to
    np.nonzero(mask): its flat indices split by the width."""
    if mask.ndim != 2:
        raise ValueError(f"pixel mask must be 2-D, got shape {mask.shape}")
    return np.divmod(np.flatnonzero(mask), mask.shape[1])


def unproject_pixels(
    depth: np.ndarray, vs: np.ndarray, us: np.ndarray, camera: CameraModel
) -> np.ndarray:
    """World points of the pixels (vs[k], us[k]), in that order."""
    if len(us) == 0:
        return np.empty((0, 3))
    d = depth[vs, us].astype(float)
    x = d * (us - camera.cx) / camera.fx
    y = d * (vs - camera.cy) / camera.fy
    cam_pts = np.stack([x, y, d], axis=1)
    return (cam_pts - camera.translation) @ camera.rotation


def canonical_order(points: np.ndarray) -> np.ndarray:
    """Rows sorted by x, then y, then z, ties in input order: np.lexsort's order.

    One stable sort on (x, y) as one complex key, which numpy orders by real
    part, then imaginary part; it is near-linear on rows already in order.
    Only when two rows tie in (x, y) does a stable pass on z go first. A NaN
    would order differently from np.lexsort, so NaN is a ValueError.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if np.isnan(pts).any():
        raise ValueError("canonical_order: points must not be NaN")
    xy = np.empty(len(pts), dtype=complex)
    xy.real, xy.imag = pts[:, 0], pts[:, 1]
    order = np.argsort(xy, kind="stable")
    ordered = xy[order]
    if (ordered[1:] == ordered[:-1]).any():
        order = np.argsort(pts[:, 2], kind="stable")
        order = order[np.argsort(xy[order], kind="stable")]
    return pts[order]


def sq_norms(v: np.ndarray) -> np.ndarray:
    """Squared length of each (x, y, z) along the last axis, bit-identical
    to np.sum(v**2, axis=-1): the same adds, in the same order."""
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    s = x * x
    s += y * y
    s += z * z
    return s


def _pack_cells(cells: np.ndarray, size: float, pad: int = 0) -> tuple[np.ndarray, list[int]]:
    """One int64 key per row of integer-valued (float) cell triples, and the radices.

    Each axis is offset by its minimum less `pad` and the triple is packed in
    mixed radix, so keys sort like the triples and every cell within `pad`
    of an occupied one has a key too. Raises ValueError, naming the span and
    the cell size, when the keys would not fit in int64.
    """
    # Reduced along rows of a contiguous copy: an axis-0 reduction of the (n, 3)
    # array strides through memory and takes several times as long. min and max
    # are exact, so the keys are the same.
    per_axis = np.ascontiguousarray(cells.T)
    lo, hi = per_axis.min(axis=1), per_axis.max(axis=1)
    radix = None
    if np.isfinite([lo, hi]).all() and -(2**63) <= lo.min() and hi.max() < 2**63:
        radix = [int(h) - int(l) + 1 + 2 * pad for l, h in zip(lo, hi)]
    if radix is None or math.prod(radix) >= 2**63:
        raise ValueError(
            f"points span {(hi - lo + 1).tolist()} cells of {size!r} m per axis; "
            "their packed cell keys would overflow int64"
        )
    # Integer arithmetic: float offsets could merge distinct cells past 2**53.
    off = cells.astype(np.int64) - lo.astype(np.int64) + pad
    return (off[:, 0] * radix[1] + off[:, 1]) * radix[2] + off[:, 2], radix


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
    keys, _ = _pack_cells(np.floor(pts / voxel), voxel)
    _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    # bincount adds each voxel's points in input order, as np.add.at did.
    sums = np.stack([np.bincount(inverse, weights=pts[:, k], minlength=len(counts))
                     for k in range(3)], axis=1)
    centroids = sums / counts[:, None]
    return canonical_order(centroids)


def _runs(first: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k, first[k] + r) for every k and every r < lengths[k], in order."""
    k = np.repeat(np.arange(len(lengths)), lengths)
    start = np.repeat(first - (np.cumsum(lengths) - lengths), lengths)
    return k, start + np.arange(len(k))


def _eps_neighbours(
    pts: np.ndarray, params: DbscanParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, np.ndarray]:
    """(order, i, j, same, core) for finite points; `order` sorts them by cell,
    and i, j and core index that order. (i[k], j[k]) are the pairs within eps:
    for k < same, each ordered pair within one cell, self pairs included; then
    each pair across cells once. `core` counts the point itself in min_pts.
    """
    n = len(pts)
    # Cells wider than eps by more than the rounding of pts / size, so two
    # points that pass the distance test below never land two cells apart.
    # That rounding grows with |pts| / eps, and so does the margin.
    scale = float(np.abs(pts).max()) / params.eps
    size = params.eps * (1.0 + 2.0**-30 + 2.0**-50 * scale)
    keys, radix = _pack_cells(np.floor(pts / size), size, pad=1)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.flatnonzero(np.diff(sorted_keys, prepend=-1))  # keys are >= 0
    counts = np.diff(starts, append=n)
    cells = sorted_keys[starts]
    # Key steps to the 13 neighbours of a cell that sort after it; every other
    # pair of adjacent cells is met from its lower cell.
    steps = np.array([(dx * radix[1] + dy) * radix[2] + dz
                      for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)])
    steps = steps[steps > 0]
    targets = (cells[:, None] + steps).ravel()
    found = np.minimum(np.searchsorted(cells, targets), len(cells) - 1)
    hit = cells[found] == targets
    # Candidates: every point of cell a against every point of cell b, for
    # each cell with itself first, then for each pair of adjacent cells.
    own = np.arange(len(cells))
    a = np.concatenate([own, np.repeat(own, len(steps))[hit]])
    b = np.concatenate([own, found[hit]])
    row, p = _runs(starts[a], counts[a])
    col, q = _runs(starts[b[row]], counts[b[row]])
    p = p[col]
    x, y, z = np.ascontiguousarray(pts[order].T)
    dx, dy, dz = x[p] - x[q], y[p] - y[q], z[p] - z[q]
    near = (dx * dx + dy * dy) + dz * dz <= params.eps**2
    same = int(np.count_nonzero(near[:(counts * counts).sum()]))
    i, j = p[near], q[near]
    degree = np.bincount(i, minlength=n) + np.bincount(j[same:], minlength=n)
    return order, i, j, same, degree >= params.min_pts


def dbscan_filter(points: np.ndarray, params: DbscanParams = DbscanParams()) -> np.ndarray:
    """Drop DBSCAN noise points; all clusters survive.

    min_pts counts the point itself. Points are canonically sorted before
    clustering, so output is deterministic and filtering is idempotent.
    """
    pts = canonical_order(points)
    if len(pts) == 0:
        return np.empty((0, 3))
    order, i, j, same, core = _eps_neighbours(pts, params)
    # A point is kept iff it is a core point or within eps of one.
    keep = core.copy()
    keep[i[core[j]]] = True
    keep[j[same:][core[i[same:]]]] = True
    kept = np.empty(len(pts), dtype=bool)
    kept[order] = keep
    return pts[kept]


def categorize(
    reference_clouds: dict[str, np.ndarray],
    scene_points: np.ndarray,
    gripper_position: np.ndarray,
    held_id: int | None = None,
    scene_ids: np.ndarray | None = None,
    hidden_obstacles: int = 0,
) -> LabeledPointCloud:
    """Label points with the four motion-policy categories.

    reference_clouds maps "object"/"location" to that reference's fused
    cloud. Scene points default to obstacle. Points within ROBOT_RADIUS
    of the gripper, plus scene points belonging to the held object, become
    robot points; precedence is robot > target object > target location >
    obstacle. hidden_obstacles counts obstacle points left out of
    scene_points; the cloud carries the count.
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
        return LabeledPointCloud(np.empty((0, 3)), np.empty(0, dtype=np.int8), hidden_obstacles)
    points = np.concatenate(parts)
    label = np.concatenate(labels)
    if held_mask is not None:
        scene_offset = len(points) - len(scene_pts)
        label[scene_offset:][held_mask] = ROBOT
    gp = np.asarray(gripper_position, dtype=float).reshape(3)
    near = np.sqrt(sq_norms(points - gp)) <= ROBOT_RADIUS
    label[near] = ROBOT
    return LabeledPointCloud(points, label, hidden_obstacles)
