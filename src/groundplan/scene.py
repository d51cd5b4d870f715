"""World-state types for the tabletop simulator.

Everything lives in a right-handed world frame with z up and the table
surface at z = 0. Cameras follow the usual pinhole convention: x right,
y down, z forward; the extrinsic (R, t) maps world points into the camera
frame as p_cam = R @ p_world + t.

This module owns how a shape is made of solids. `SceneObject.solids()` is
the one decomposition: a box, sphere or cylinder is one solid and a
prismatic object is two boxes, its body then its slider. The renderer
ray-casts those solids, and bounds, heights and table rest heights derive
from them, so no other module dispatches on shape classes for geometry.
"""

from __future__ import annotations

import copy
import hashlib
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .colors import display_name
from .jsonfile import fields


def _vec3(v) -> np.ndarray:
    a = np.asarray(v, dtype=float).reshape(3)
    return a.copy()


def yaw_matrix(yaw: float) -> np.ndarray:
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@dataclass
class Box:
    half_extents: np.ndarray

    def __post_init__(self):
        self.half_extents = _vec3(self.half_extents)
        if not np.all(self.half_extents > 0):
            raise ValueError("box half extents must be positive")


@dataclass
class Cylinder:
    radius: float
    height: float

    def __post_init__(self):
        if self.radius <= 0 or self.height <= 0:
            raise ValueError("cylinder radius and height must be positive")


@dataclass
class Sphere:
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("sphere radius must be positive")


@dataclass
class Prismatic:
    """A fixed body with a slider that travels along an axis.

    The slider center sits at body position + slider_offset +
    axis * travel * fraction (all in the object frame before yaw).
    A ratcheting joint (e.g. a latching button) only advances when pushed;
    slide_joint steps can still move it both ways.
    """

    body_half: np.ndarray
    slider_half: np.ndarray
    slider_offset: np.ndarray
    axis: np.ndarray
    travel: float
    fraction: float = 0.0
    ratchet: bool = False

    def __post_init__(self):
        self.body_half = _vec3(self.body_half)
        self.slider_half = _vec3(self.slider_half)
        self.slider_offset = _vec3(self.slider_offset)
        axis = _vec3(self.axis)
        n = np.linalg.norm(axis)
        if n == 0:
            raise ValueError("prismatic axis must be nonzero")
        self.axis = axis / n
        if self.travel <= 0:
            raise ValueError("prismatic travel must be positive")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")


Shape = Box | Cylinder | Sphere | Prismatic


def _half_extents(solid: tuple) -> np.ndarray:
    """Half extents of the box that bounds a solid in its own frame."""
    kind, _center, *dims = solid
    if kind == "box":
        return dims[0]
    if kind == "cylinder":
        return np.array([dims[0], dims[0], dims[1] / 2.0])
    return np.full(3, dims[0])


@dataclass
class SceneObject:
    id: int
    raw_name: str
    color: tuple[int, int, int]
    shape: Shape
    position: np.ndarray
    yaw: float = 0.0
    graspable: bool = False
    is_location: bool = False
    color_varies: bool = False

    def __post_init__(self):
        if self.id <= 0:
            raise ValueError("object ids must be positive (0 is background)")
        self.position = _vec3(self.position)
        self.color = tuple(int(c) for c in self.color)

    def copy(self) -> "SceneObject":
        """Only a Prismatic is ever mutated (its fraction); other shapes are shared.

        A Prismatic's copy re-runs __post_init__, which normalises its axis
        again, so a non-axis-aligned axis and the slider it places can end in
        other last bits after n steps than after one.
        `test_stepped_drawer_axes_match_recorded_bytes` pins those bytes: a
        change to how steps copy objects keeps them, or says that it changes them.
        """
        obj = copy.copy(self)
        obj.position = self.position.copy()
        if isinstance(self.shape, Prismatic):
            obj.shape = replace(self.shape)
        return obj

    def display_name(self) -> str:
        return display_name(self.raw_name, self.color, self.color_varies)

    # -- geometric queries -------------------------------------------------

    def solids(self) -> list[tuple]:
        """The solids the object is made of, in world coordinates:
        ("box", center, half_extents, yaw), ("sphere", center, radius) or
        ("cylinder", center, radius, height). A prismatic is its body, then its slider."""
        s = self.shape
        if isinstance(s, Box):
            return [("box", self.position, s.half_extents, self.yaw)]
        if isinstance(s, Sphere):
            return [("sphere", self.position, s.radius)]
        if isinstance(s, Cylinder):
            return [("cylinder", self.position, s.radius, s.height)]
        return [("box", self.position, s.body_half, self.yaw),
                ("box", self.slider_center(), s.slider_half, self.yaw)]

    def height(self) -> float:
        solids = self.solids()
        if len(solids) == 1:
            return 2.0 * _half_extents(solids[0])[2]
        lo, hi = self.aabb()
        return hi[2] - lo[2]

    def rest_z(self) -> float:
        """Center z at which the object stands on the table: its first solid's half height."""
        return float(_half_extents(self.solids()[0])[2])

    def slider_center(self) -> np.ndarray:
        s = self.shape
        if not isinstance(s, Prismatic):
            raise TypeError("slider_center only applies to prismatic objects")
        local = s.slider_offset + s.axis * s.travel * s.fraction
        return self.position + yaw_matrix(self.yaw) @ local

    def aabb(self) -> tuple[np.ndarray, np.ndarray]:
        """World axis-aligned bounds, yaw-aware."""
        rot = yaw_matrix(self.yaw)
        los, his = [], []
        for solid in self.solids():
            center, half = solid[1], _half_extents(solid)
            # Extent of a rotated box along world axes.
            ext = np.abs(rot) @ half
            los.append(center - ext)
            his.append(center + ext)
        return np.min(los, axis=0), np.max(his, axis=0)

    def top_z(self) -> float:
        return float(self.aabb()[1][2])

    def bottom_z(self) -> float:
        return float(self.aabb()[0][2])

    def bounding_radius(self) -> float:
        lo, hi = self.aabb()
        return float(np.linalg.norm(hi - lo) / 2.0)

    def horizontal_radius(self) -> float:
        lo, hi = self.aabb()
        return float(np.linalg.norm((hi - lo)[:2]) / 2.0)


@dataclass
class Scene:
    objects: list[SceneObject]
    roles: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        ids = [o.id for o in self.objects]
        if len(ids) != len(set(ids)):
            raise ValueError("object ids must be unique within a scene")

    def copy(self) -> "Scene":
        return Scene(objects=[o.copy() for o in self.objects], roles=dict(self.roles))

    def object_by_id(self, oid: int) -> SceneObject:
        for o in self.objects:
            if o.id == oid:
                return o
        raise KeyError(f"no object with id {oid}")

    def role_object(self, role: str) -> SceneObject:
        return self.object_by_id(self.roles[role])

    def inventory(self) -> list[tuple[int, str]]:
        """(id, display name) for every object with a displayable name."""
        out = []
        for o in self.objects:
            try:
                out.append((o.id, o.display_name()))
            except ValueError:
                continue
        return out


@dataclass
class GripperState:
    position: np.ndarray
    open: bool = True
    held: int | None = None
    held_offset: np.ndarray | None = None

    def __post_init__(self):
        self.position = _vec3(self.position)
        if self.held is not None and self.open:
            raise ValueError("a held object implies a closed gripper")
        if self.held_offset is not None:
            self.held_offset = _vec3(self.held_offset)

    def copy(self) -> "GripperState":
        return GripperState(
            position=self.position.copy(),
            open=self.open,
            held=self.held,
            held_offset=None if self.held_offset is None else self.held_offset.copy(),
        )


# -- cameras ----------------------------------------------------------------

DEFAULT_RESOLUTION = 256


@dataclass
class CameraModel:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    rotation: np.ndarray
    translation: np.ndarray
    role: str = ""

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        self.rotation = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        self.translation = _vec3(self.translation)
        err = np.abs(self.rotation @ self.rotation.T - np.eye(3)).max()
        if err > 1e-9:
            raise ValueError(f"rotation not orthonormal (max error {err:g})")

    @property
    def center(self) -> np.ndarray:
        """Camera center in world coordinates."""
        return -self.rotation.T @ self.translation


def look_at(eye, target) -> tuple[np.ndarray, np.ndarray]:
    """World-to-camera extrinsic for a camera at `eye` looking at `target`, with
    world z up, or world x up when it looks straight up or down."""
    eye = _vec3(eye)
    forward = _vec3(target) - eye
    n = np.linalg.norm(forward)
    if n == 0:
        raise ValueError("eye and target coincide")
    z = forward / n
    up = np.array([0.0, 0.0, 1.0])
    if np.linalg.norm(np.cross(z, up)) < 1e-9:
        up = np.array([1.0, 0.0, 0.0])
    x = np.cross(z, up)
    x /= np.linalg.norm(x)
    y = np.cross(z, x)
    rot = np.stack([x, y, z])
    return rot, -rot @ eye


def _pinhole(eye, target, role: str, resolution: int) -> CameraModel:
    rot, t = look_at(eye, target)
    f = float(resolution)
    c = resolution / 2.0
    return CameraModel(
        fx=f, fy=f, cx=c, cy=c,
        width=resolution, height=resolution,
        rotation=rot, translation=t, role=role,
    )


WRIST_OFFSET = np.array([0.0, 0.0, 0.30])

# look_at's rotation for a wrist eye straight above its target, by the bytes of
# forward's x and y. For every finite gripper position forward is (0, 0, -a),
# so z = forward / a is (0, 0, -1) and the rotation is the same; only the signs
# of the two zeros can differ (-0.0 - 0.0 is -0.0), so there are four at most.
_WRIST_ROTATIONS: dict[bytes, np.ndarray] = {}


def _wrist_pose(gp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """look_at(gp + WRIST_OFFSET, gp), with its read-only rotation computed once."""
    eye = gp + WRIST_OFFSET
    key = (gp - eye)[:2].tobytes()
    rot = _WRIST_ROTATIONS.get(key)
    if rot is None:
        rot = look_at(eye, gp)[0]
        rot.flags.writeable = False
        _WRIST_ROTATIONS[key] = rot
    return rot, -rot @ eye


@dataclass
class CameraRig:
    cameras: list[CameraModel]

    def __post_init__(self):
        if len(self.cameras) < 1:
            raise ValueError("a rig needs at least one camera")

    def posed(self, gripper_position) -> "CameraRig":
        """Rig with any wrist camera re-aimed at the current gripper pose.

        The wrist camera hovers a fixed offset above the gripper looking
        straight down; other cameras are static. The wrist rotation never
        changes, so the posed camera is a copy with a new translation, and
        the orthonormality check of a new CameraModel is not re-run.
        """
        gp = _vec3(gripper_position)
        cams = []
        for cam in self.cameras:
            if cam.role == "wrist":
                cam = copy.copy(cam)
                cam.rotation, cam.translation = _wrist_pose(gp)
            cams.append(cam)
        return CameraRig(cams)


def default_rig(resolution: int = DEFAULT_RESOLUTION) -> CameraRig:
    """Four-camera rig: front, both shoulders, and a gripper-tracking wrist."""
    center = (0.0, 0.0, 0.05)
    cams = [
        _pinhole((0.85, 0.0, 0.55), center, "front", resolution),
        _pinhole((0.35, 0.65, 0.65), center, "left_shoulder", resolution),
        _pinhole((0.35, -0.65, 0.65), center, "right_shoulder", resolution),
        _pinhole((0.0, 0.0, 0.45), (0.0, 0.0, 0.15), "wrist", resolution),
    ]
    return CameraRig(cams)


# -- rendered views -----------------------------------------------------------


@dataclass(eq=False)
class View:
    """One camera's depth map plus per-pixel instance ids (0 = background).

    A view is a value: its depth and id maps are read-only from construction,
    so what derives from them is computed once and kept, and a view equals only
    itself. Within one episode `render_views` may return a camera's previous
    `View` again; a view is a pure function of the camera and the primitives,
    so reuse is bit-exact.
    """

    depth: np.ndarray
    ids: np.ndarray

    def __post_init__(self):
        if self.depth.shape != self.ids.shape:
            raise ValueError("depth and id maps must share a resolution")
        self.depth.flags.writeable = False
        self.ids.flags.writeable = False

    @cached_property
    def valid_pixels(self) -> np.ndarray:
        """Row-major flat int32 indices of the pixels with positive depth, from the
        one whole-frame scan of the depth map."""
        return np.flatnonzero(self.depth.ravel() > 0).astype(np.int32)

    @cached_property
    def scene_pixels(self) -> int:
        """The pixels with an object id and positive depth: one scene point each."""
        return int(np.count_nonzero(self.ids.ravel()[self.valid_pixels]))

    @cached_property
    def id_counts(self) -> tuple:
        """The id map's shape and its (oid, pixel count) pairs for nonzero oids,
        ascending: equal id maps give equal tuples."""
        ids = self.ids
        oids, counts = np.unique(ids[ids != 0], return_counts=True)
        return ids.shape, tuple(zip(oids.tolist(), counts.tolist()))

    def object_ids(self) -> list[int]:
        """The nonzero ids in the view, ascending."""
        return [oid for oid, _ in self.id_counts[1]]


@dataclass
class ViewSet:
    views: list[View]

    def __len__(self) -> int:
        return len(self.views)

    def __iter__(self):
        return iter(self.views)

    def __getitem__(self, i: int) -> View:
        return self.views[i]

    def masks_for(self, oid: int) -> list[np.ndarray]:
        return [v.ids == oid for v in self.views]

    def visible_ids(self) -> set[int]:
        ids: set[int] = set()
        for v in self.views:
            ids.update(v.object_ids())
        return ids

    def digest(self) -> str:
        """sha256 over every view's depth and id bytes."""
        h = hashlib.sha256()
        for v in self.views:
            for a in (v.depth, v.ids):
                h.update(memoryview(np.ascontiguousarray(a)).cast("B"))
        return h.hexdigest()


# -- shape JSON (task suites) ------------------------------------------------


# kind -> (shape class, the fields of a shape of that kind)
_SHAPES = {
    "box": (Box, {"half_extents": [float]}),
    "cylinder": (Cylinder, {"radius": float, "height": float}),
    "sphere": (Sphere, {"radius": float}),
    "prismatic": (Prismatic, {"body_half": [float], "slider_half": [float],
                              "slider_offset": [float], "axis": [float], "travel": float,
                              "fraction": float, "ratchet": bool}),
}


def shape_from_json(d: dict, path: str = "shape") -> Shape:
    """The shape in JSON object d at field path `path`; errors name the field."""
    cls, table = _SHAPES[fields(d, {"kind": tuple(_SHAPES)}, path)["kind"]]
    values = fields(d, table, path, {"fraction": 0.0, "ratchet": False})
    try:
        return cls(**values)
    except ValueError as e:  # a vector that is not three numbers, or a bad extent
        raise ValueError(f"field '{path}': {e}") from e
