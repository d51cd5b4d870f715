"""Deterministic depth + instance-id rendering via analytic ray casting.

Rays are parametrized so that the intersection parameter t equals depth
along the camera z axis, which is exactly the value stored in the depth map.
Each solid is ray-cast only inside its window, so cost scales with covered
pixels. A box's or cylinder's window is the pixel rectangle of its bounding
box's projected corners, whose hull holds the solid when they are all in front
of the camera; otherwise, and for a sphere, it is its bounding sphere's.
`render_views` prepares each solid once per call. Frame-wide work is confined
to the band of whole rows the windows span: the ray directions, the float64
depth composite and the background pass cover only that band, and the rows
outside it are background (depth 0.0, id 0). The band is whole rows because
numpy evaluates an (h, w, 3) @ (3, 3) product as one (w, 3) @ (3, 3) product
per row: dropping rows leaves every other row's product, and so every bit,
as it was, while slicing columns would change the shape of the BLAS call.

Boxes are hit with the slab method (Kay & Kajiya, SIGGRAPH 1986) in its
branch-free form (Williams et al., JGT 2005): in the box frame, each axis
gives the ray an entry and an exit parameter, and the ray hits when the
largest entry is no later than the smallest exit. Those extremes over x, y, z
are two elementwise maximum or minimum calls each, in the order numpy's
reduction takes the components, so the result is bit-identical to it. The
box and cylinder tests write into their own temporaries; each keeps the
floating-point operations, and their order, of its allocating form.
"""

from __future__ import annotations

import math

import numpy as np

from .scene import (
    CameraModel,
    CameraRig,
    Scene,
    View,
    ViewSet,
    _half_extents,
    yaw_matrix,
)

_EPS = 1e-9

# Pixel-center ray directions per (fx, fy, cx, cy, w, h), camera frame, z=1.
_RAY_CACHE: dict[tuple, np.ndarray] = {}


def _camera_dirs(cam: CameraModel) -> np.ndarray:
    key = (cam.fx, cam.fy, cam.cx, cam.cy, cam.width, cam.height)
    dirs = _RAY_CACHE.get(key)
    if dirs is None:
        u = (np.arange(cam.width) - cam.cx) / cam.fx
        v = (np.arange(cam.height) - cam.cy) / cam.fy
        dirs = np.empty((cam.height, cam.width, 3))
        dirs[:, :, 0] = u[None, :]
        dirs[:, :, 1] = v[:, None]
        dirs[:, :, 2] = 1.0
        _RAY_CACHE[key] = dirs
    return dirs


def _slab_bounds(t1: np.ndarray, t2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(t_near, t_far): the latest slab entry and the earliest slab exit.

    Bit-identical, signed zeros included, to np.minimum(t1, t2).max(axis=-1)
    and np.maximum(t1, t2).min(axis=-1), which take x, y, z in this order.
    """
    # Each outer call writes into the inner call's result, and hi into lo once
    # t_near is taken: a further temporary would raise peak memory.
    lo = np.minimum(t1, t2)
    t_near = np.maximum(lo[..., 0], lo[..., 1])
    np.maximum(t_near, lo[..., 2], out=t_near)
    hi = np.maximum(t1, t2, out=lo)
    t_far = np.minimum(hi[..., 0], hi[..., 1])
    np.minimum(t_far, hi[..., 2], out=t_far)
    return t_near, t_far


def _box_t(origin: np.ndarray, dirs: np.ndarray, center: np.ndarray,
           half: np.ndarray, yaw: float) -> np.ndarray:
    rot = yaw_matrix(-yaw)
    o = rot @ (origin - center)
    d = dirs @ rot.T
    tiny = np.abs(d) < 1e-300
    if tiny.any():
        np.copyto(d, 1e-300, where=tiny)
    t1 = np.divide(-half - o, d)
    t2 = np.divide(half - o, d, out=d)
    t_near, t_far = _slab_bounds(t1, t2)
    return _misses_to_inf(t_near, t_far >= t_near)


def _misses_to_inf(t_near: np.ndarray, hit: np.ndarray) -> np.ndarray:
    """t_near, with inf written in wherever `hit` is false or t_near <= _EPS."""
    hit &= t_near > _EPS
    np.copyto(t_near, np.inf, where=~hit)
    return t_near


def _sphere_t(origin: np.ndarray, dirs: np.ndarray, center: np.ndarray,
              radius: float) -> np.ndarray:
    oc = origin - center
    # Not written out: einsum matches neither (x + y) + z nor x + (y + z) on every shape.
    a = np.einsum("...i,...i->...", dirs, dirs)
    b = 2.0 * dirs @ oc
    c = oc @ oc - radius * radius
    disc = b * b - 4.0 * a * c
    ok = disc >= 0.0
    sq = np.sqrt(np.where(ok, disc, 0.0))
    t = (-b - sq) / (2.0 * a)
    hit = ok & (t > _EPS)
    return np.where(hit, t, np.inf)


def _cylinder_t(origin: np.ndarray, dirs: np.ndarray, center: np.ndarray,
                radius: float, height: float) -> np.ndarray:
    o = origin - center
    dx, dy, dz = dirs[..., 0], dirs[..., 1], dirs[..., 2]
    a = dx * dx
    a += dy * dy
    b = o[0] * dx
    b += o[1] * dy
    b *= 2.0
    c = o[0] * o[0] + o[1] * o[1] - radius * radius

    tiny = a < 1e-300
    two_a = 2.0 * (np.where(tiny, 1e-300, a) if tiny.any() else a)
    disc = b * b
    disc -= 4.0 * a * c
    radial_ok = disc >= 0.0
    np.copyto(disc, 0.0, where=~radial_ok)
    sq = np.sqrt(disc, out=disc)
    np.negative(b, out=b)
    r0 = np.subtract(b, sq)
    r0 /= two_a
    r1 = np.add(b, sq, out=b)
    r1 /= two_a
    # A near-vertical ray is inside or outside the infinite cylinder for all t.
    vertical = a < 1e-12
    if c <= 0.0:
        np.copyto(r0, -np.inf, where=vertical)
        np.copyto(r1, np.inf, where=vertical)
        radial_ok |= vertical
    else:
        np.copyto(r0, np.inf, where=vertical)
        np.copyto(r1, -np.inf, where=vertical)

    tiny = np.abs(dz) < 1e-300
    if tiny.any():
        dz = np.where(tiny, 1e-300, dz)
    z0 = (-height / 2.0 - o[2]) / dz
    z1 = (height / 2.0 - o[2]) / dz
    zlo = np.minimum(z0, z1)
    zhi = np.maximum(z0, z1, out=z1)

    t_near = np.maximum(r0, zlo, out=r0)
    t_far = np.minimum(r1, zhi, out=r1)
    radial_ok &= t_far >= t_near
    return _misses_to_inf(t_near, radial_ok)


def _primitives(scene: Scene) -> list[tuple[int, tuple]]:
    """Every object's solids as (id, solid) render parts, in object order."""
    return [(obj.id, solid) for obj in scene.objects for solid in obj.solids()]


def _bounding_sphere(prim) -> tuple[np.ndarray, float]:
    kind = prim[0]
    if kind == "sphere":
        return prim[1], prim[2]
    if kind == "cylinder":
        _, center, radius, height = prim
        return center, math.hypot(radius, height / 2.0)
    _, center, half, _yaw = prim
    return center, float(np.linalg.norm(half))


def pixel_rect(cam: CameraModel, center: np.ndarray, radius: float):
    """Conservative pixel rectangle covering a bounding sphere, or None."""
    x, y, z = (cam.rotation @ center + cam.translation).tolist()
    if z <= -radius:
        return None  # fully behind the camera
    if z <= radius + 1e-6:
        return 0, cam.width, 0, cam.height  # too close to prune safely
    # Project all corners of the sphere's enclosing box; X/Z is extremal there.
    zs = (z - radius, z + radius)
    us = [(x + sx * radius) / zz for sx in (-1.0, 1.0) for zz in zs]
    vs = [(y + sy * radius) / zz for sy in (-1.0, 1.0) for zz in zs]
    return _clamped(cam, us, vs)


def _clamped(cam: CameraModel, us: list[float], vs: list[float]):
    """The rectangle around image-plane points (X/Z, Y/Z), widened and clipped to the frame."""
    u0 = max(0, math.floor(min(us) * cam.fx + cam.cx) - 1)
    u1 = min(cam.width, math.ceil(max(us) * cam.fx + cam.cx) + 2)
    v0 = max(0, math.floor(min(vs) * cam.fy + cam.cy) - 1)
    v1 = min(cam.height, math.ceil(max(vs) * cam.fy + cam.cy) + 2)
    if u0 >= u1 or v0 >= v1:
        return None
    return u0, u1, v0, v1


def _prepared(prims: list[tuple[int, tuple]]) -> list[tuple]:
    """(id, solid, corners, bounding sphere) per render part: the float triples
    of a box's or cylinder's 8 bounding-box corners, or None for a sphere."""
    out = []
    for oid, prim in prims:
        corners = None
        if prim[0] != "sphere":
            cx, cy, cz = prim[1].tolist()
            hx, hy, hz = _half_extents(prim).tolist()
            c, s = (math.cos(prim[3]), math.sin(prim[3])) if prim[0] == "box" else (1.0, 0.0)
            corners = [(cx + c * x - s * y, cy + s * x + c * y, cz + z)
                       for x in (-hx, hx) for y in (-hy, hy) for z in (-hz, hz)]
        out.append((oid, prim, corners, _bounding_sphere(prim)))
    return out


def _window(cam: CameraModel, pose: tuple, corners, sphere):
    """A solid's pixel rectangle, or None: its projected corners' when all are in
    front of the camera (pose: rotation and translation as lists), else its sphere's."""
    if corners is not None:
        (r0, r1, r2), (t0, t1, t2) = pose
        us, vs = [], []
        for x, y, z in corners:
            zc = r2[0] * x + r2[1] * y + r2[2] * z + t2
            if zc <= 1e-6:
                break
            us.append((r0[0] * x + r0[1] * y + r0[2] * z + t0) / zc)
            vs.append((r1[0] * x + r1[1] * y + r1[2] * z + t1) / zc)
        else:
            return _clamped(cam, us, vs)
    return pixel_rect(cam, *sphere)


def _primitives_key(prims: list[tuple[int, tuple]]) -> tuple:
    """Byte snapshot of render parts, so that editing a scene in place changes the key."""
    return tuple(
        (oid, kind, *(np.asarray(f, dtype=float).tobytes() for f in fields))
        for oid, (kind, *fields) in prims
    )


def render_camera(scene: Scene, cam: CameraModel) -> View:
    return _render(_prepared(_primitives(scene)), cam)


def _render(solids: list[tuple], cam: CameraModel) -> View:
    """One camera's view of solids prepared by `_prepared`."""
    depth = np.zeros((cam.height, cam.width), dtype=np.float32)
    ids = np.zeros((cam.height, cam.width), dtype=np.int32)
    pose = (cam.rotation.tolist(), cam.translation.tolist())
    parts = []
    for oid, prim, corners, sphere in solids:
        rect = _window(cam, pose, corners, sphere)
        if rect is not None:
            parts.append((oid, prim, rect))
    if parts:
        # Rows outside [top, bottom) see no primitive: their depth stays 0.0.
        top = min(rect[2] for _, _, rect in parts)
        bottom = max(rect[3] for _, _, rect in parts)
        origin = cam.center
        dirs_world = _camera_dirs(cam)[top:bottom] @ cam.rotation  # R^T applied row-wise
        band = np.full((bottom - top, cam.width), np.inf)
        band_ids = ids[top:bottom]
        for oid, prim, (u0, u1, v0, v1) in parts:
            window = (slice(v0 - top, v1 - top), slice(u0, u1))
            d = dirs_world[window]
            kind = prim[0]
            if kind == "box":
                t = _box_t(origin, d, prim[1], prim[2], prim[3])
            elif kind == "sphere":
                t = _sphere_t(origin, d, prim[1], prim[2])
            else:
                t = _cylinder_t(origin, d, prim[1], prim[2], prim[3])
            window_d = band[window]
            closer = t < window_d
            np.copyto(window_d, t, where=closer)
            np.copyto(band_ids[window], oid, where=closer)
        # A pixel with an id holds its finite hit depth; every other pixel stays 0.0.
        np.copyto(depth[top:bottom], band, where=band_ids != 0, casting="same_kind")
    return View(depth=depth, ids=ids)


def render_views(scene: Scene, rig: CameraRig, memo: dict | None = None) -> ViewSet:
    """Render every rig camera. Pure function of (scene, rig).

    Every solid is prepared once and shared by the cameras. With a memo (one
    dict per episode, passed on every call), a camera whose intrinsics, pose
    and primitives are all byte-equal to its last render gets that render's
    read-only `View` back instead of a new ray cast. The memo holds each
    camera's last view, under the camera's index. A camera that changed drops
    its entry before it renders, so the stale frame is freed first unless a
    caller still holds it.
    """
    prims = _primitives(scene)
    solids = _prepared(prims)
    if memo is None:
        return ViewSet([_render(solids, cam) for cam in rig.cameras])
    prims_key = _primitives_key(prims)
    views = []
    for i, cam in enumerate(rig.cameras):
        key = (cam.fx, cam.fy, cam.cx, cam.cy, cam.width, cam.height,
               cam.rotation.tobytes(), cam.translation.tobytes(), prims_key)
        if memo.get(i, (None,))[0] != key:
            memo.pop(i, None)
            memo[i] = key, _render(solids, cam)
        views.append(memo[i][1])
    return ViewSet(views)
