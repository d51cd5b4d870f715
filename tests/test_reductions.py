"""Written-out reductions over x, y, z against the numpy reductions they replace.

The render and grounding hot path takes maxima, minima, sums and norms over
axes of length 3 as explicit elementwise calls. Each is checked here bit for
bit (`tobytes()`) against the reduction it replaced, kept below as the
reference, on (h, w, 3) windows and (n, 3) rows, with signed zeros,
subnormals and infinities among the values.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from groundplan.geometry import sq_norms
from groundplan.render import _EPS, _box_t, _cylinder_t, _slab_bounds
from groundplan.scene import yaw_matrix


def _reference_box_t(origin, dirs, center, half, yaw):
    """`render._box_t` as it was, with the slab bounds as axis reductions."""
    rot = yaw_matrix(-yaw)
    o = rot @ (origin - center)
    d = dirs @ rot.T
    d = np.where(np.abs(d) < 1e-300, 1e-300, d)
    t1 = (-half - o) / d
    t2 = (half - o) / d
    t_near = np.minimum(t1, t2).max(axis=-1)
    t_far = np.maximum(t1, t2).min(axis=-1)
    hit = (t_far >= t_near) & (t_near > _EPS)
    return np.where(hit, t_near, np.inf)


def _reference_cylinder_t(origin, dirs, center, radius, height):
    """`render._cylinder_t` as it was, allocating every temporary."""
    o = origin - center
    dx, dy, dz = dirs[..., 0], dirs[..., 1], dirs[..., 2]
    a = dx * dx + dy * dy
    b = 2.0 * (o[0] * dx + o[1] * dy)
    c = o[0] * o[0] + o[1] * o[1] - radius * radius

    a_safe = np.where(a < 1e-300, 1e-300, a)
    disc = b * b - 4.0 * a * c
    radial_ok = disc >= 0.0
    sq = np.sqrt(np.where(radial_ok, disc, 0.0))
    r0 = (-b - sq) / (2.0 * a_safe)
    r1 = (-b + sq) / (2.0 * a_safe)
    vertical = a < 1e-12
    inside = c <= 0.0
    r0 = np.where(vertical, np.where(inside, -np.inf, np.inf), r0)
    r1 = np.where(vertical, np.where(inside, np.inf, -np.inf), r1)
    radial_ok = radial_ok | (vertical & inside)

    dz_safe = np.where(np.abs(dz) < 1e-300, 1e-300, dz)
    z0 = (-height / 2.0 - o[2]) / dz_safe
    z1 = (height / 2.0 - o[2]) / dz_safe
    zlo = np.minimum(z0, z1)
    zhi = np.maximum(z0, z1)

    t_near = np.maximum(r0, zlo)
    t_far = np.minimum(r1, zhi)
    hit = radial_ok & (t_far >= t_near) & (t_near > _EPS)
    return np.where(hit, t_near, np.inf)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# Values that separate one order of maxima or adds from another: both zeros,
# the 1e-300 clamp and its neighbours, a subnormal, ties and infinities.
_special = st.sampled_from(
    [0.0, -0.0, 1e-300, -1e-300, 5e-301, -5e-301, 5e-324, 1.0, -1.0, 0.5, math.inf, -math.inf]
)
_finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
_value = st.one_of(_special, _finite, st.floats(allow_nan=False))
_shape = st.one_of(
    st.tuples(st.integers(0, 24), st.just(3)),  # (n, 3) rows
    st.tuples(st.integers(1, 6), st.integers(1, 6), st.just(3)),  # (h, w, 3) windows
)


def _xyz_arrays(elements):
    return _shape.flatmap(lambda shape: hnp.arrays(np.float64, shape, elements=elements))


# -- slab bounds ----------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    pair=_shape.flatmap(lambda shape: st.tuples(
        hnp.arrays(np.float64, shape, elements=_value),
        hnp.arrays(np.float64, shape, elements=_value),
    ))
)
@example(pair=(np.array([[-0.0, 0.0, -1.0], [0.0, -0.0, -1.0]]),
               np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])))
@example(pair=(np.array([[-1.0, -1.0, -1.0], [-1.0, -1.0, -1.0]]),
               np.array([[-0.0, 0.0, 2.0], [0.0, -0.0, 2.0]])))
def test_slab_bounds_equal_the_axis_reductions(pair):
    # The examples tie -0.0 and 0.0 as the largest entry and the smallest
    # exit, where the maximum or minimum returns whichever comes second.
    t1, t2 = pair
    t_near, t_far = _slab_bounds(t1, t2)
    assert _same_bits(t_near, np.minimum(t1, t2).max(axis=-1))
    assert _same_bits(t_far, np.maximum(t1, t2).min(axis=-1))


# -- box intersection ---------------------------------------------------------------

_coord = st.floats(-2.0, 2.0, allow_nan=False)
_vec = st.tuples(_coord, _coord, _coord).map(np.array)
_half = st.tuples(*[st.floats(0.01, 0.5)] * 3).map(np.array)
# Yaw 0 keeps a zero direction component zero in the box frame (a ray
# parallel to a slab); the quarter turns swap or negate the components.
_yaw = st.one_of(st.sampled_from([0.0, -0.0, math.pi / 2, math.pi]), st.floats(-3.2, 3.2))
_dir_value = st.one_of(_special.filter(math.isfinite), st.floats(-2.0, 2.0))


@settings(max_examples=300, deadline=None)
@given(
    center=_vec,
    half=_half,
    yaw=_yaw,
    offset=st.one_of(_vec, st.tuples(*[st.floats(-0.99, 0.99)] * 3).map(np.array)),
    inside=st.booleans(),
    dirs=_xyz_arrays(_dir_value),
)
def test_box_t_equals_the_reference(center, half, yaw, offset, inside, dirs):
    # With `inside`, the origin is within the box: offset is then a fraction
    # of the half extents, before the yaw.
    origin = center + (yaw_matrix(yaw) @ (offset * half) if inside else offset)
    assert _same_bits(_box_t(origin, dirs, center, half, yaw),
                      _reference_box_t(origin, dirs, center, half, yaw))


@settings(max_examples=100, deadline=None)
@given(
    k=st.integers(1, 16),
    hx=st.integers(1, 8),
    hy=st.integers(1, 8),
    oz=st.integers(-3, 3),
    scale=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
    shape=st.sampled_from([(1, 3), (5, 3), (2, 3, 3)]),
)
def test_box_t_grazing_hit_equals_the_reference(k, hx, hy, oz, scale, shape):
    # All values are small dyadic rationals, so every slab parameter is
    # exact. The ray (s, s, 0) from (0, 0, oz/8) enters the x slab at the
    # parameter where it leaves the y slab (t_near == t_far == k/s) and runs
    # parallel to the z slab, which it stays inside.
    half = np.array([hx, hy, 4.0]) / 8.0
    center = np.array([k / 8.0 + half[0], k / 8.0 - half[1], 0.0])
    origin = np.array([0.0, 0.0, oz / 8.0])
    dirs = np.broadcast_to(np.array([scale, scale, 0.0]), shape).copy()
    t = _box_t(origin, dirs, center, half, 0.0)
    assert _same_bits(t, _reference_box_t(origin, dirs, center, half, 0.0))
    assert np.all(t == (k / 8.0) / scale)


# -- cylinder intersection ------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    center=_vec,
    radius=st.floats(0.01, 0.5),
    height=st.floats(0.01, 1.0),
    offset=st.one_of(_vec, st.tuples(*[st.floats(-0.99, 0.99)] * 3).map(np.array)),
    inside=st.booleans(),
    dirs=_xyz_arrays(_dir_value),
)
def test_cylinder_t_equals_the_reference(center, radius, height, offset, inside, dirs):
    # With `inside`, the origin is within the cylinder's bounding box: offset
    # is then a fraction of its half extents.
    if inside:
        offset = offset * np.array([radius, radius, height / 2.0])
    origin = center + offset
    before = dirs.copy()
    t = _cylinder_t(origin, dirs, center, radius, height)
    assert _same_bits(t, _reference_cylinder_t(origin, dirs, center, radius, height))
    assert _same_bits(dirs, before)  # the rays are read, never written


@settings(max_examples=200, deadline=None)
@given(
    r=st.floats(0.01, 0.5),
    frac=st.sampled_from([0.0, 0.5, 0.999, 1.0, 1.001, 2.0]),
    side=st.sampled_from([-1.0, 1.0]),
    dz=st.sampled_from([1.0, -1.0, 0.5, 1e-301, 0.0, -0.0]),
    tilt=st.sampled_from([0.0, -0.0, 1e-7, 1e-200, 5e-324]),
    shape=st.sampled_from([(1, 3), (4, 3), (2, 3, 3)]),
)
def test_cylinder_t_rays_along_the_axis_equal_the_reference(r, frac, side, dz, tilt, shape):
    # Rays parallel to the axis (or within 1e-12 of it in a), starting inside
    # (frac < 1) or outside (frac > 1) the radius, above or below the cylinder.
    center = np.array([0.1, -0.2, 0.05])
    origin = center + np.array([frac * r, 0.0, side * 0.3])
    dirs = np.broadcast_to(np.array([tilt, tilt, dz]), shape).copy()
    assert _same_bits(_cylinder_t(origin, dirs, center, r, 0.1),
                      _reference_cylinder_t(origin, dirs, center, r, 0.1))


# -- sums and norms of rows -----------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(v=_xyz_arrays(_value))
# 1 + 1e-16 rounds to 1 and 1 + 2e-16 does not, so these rows tell (x + y) + z
# from x + (y + z) and from every order but (y + x) + z, which equals it.
@example(v=np.array([[1.0, 1e-8, 1e-8], [1e-8, 1.0, 1e-8]]))
def test_sq_norms_equal_the_axis_sum(v):
    with np.errstate(over="ignore"):  # squares of the largest floats
        assert _same_bits(sq_norms(v), np.sum(v**2, axis=-1))


@settings(max_examples=300, deadline=None)
@given(v=_xyz_arrays(_value))
@example(v=np.array([[1.0, 1e-8, 1e-8], [1e-8, 1.0, 1e-8]]))
def test_sqrt_of_sq_norms_equals_linalg_norm(v):
    with np.errstate(over="ignore"):  # squares of the largest floats
        assert _same_bits(np.sqrt(sq_norms(v)), np.linalg.norm(v, axis=-1))
