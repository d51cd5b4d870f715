from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from groundplan.masks import rle_decode, rle_encode


def test_all_zero_mask_is_single_run():
    mask = np.zeros((256, 256), dtype=bool)
    assert rle_encode(mask) == [65536]


def test_all_ones_mask_starts_with_zero_run():
    mask = np.ones((4, 4), dtype=bool)
    assert rle_encode(mask) == [0, 16]


def test_known_pattern():
    mask = np.array([[0, 1, 1, 0], [0, 0, 1, 1]], dtype=bool)
    # Flattened: 0 1 1 0 0 0 1 1
    assert rle_encode(mask) == [1, 2, 3, 2]


def test_decode_validates_total():
    with pytest.raises(ValueError):
        rle_decode([3, 2], (2, 4))
    with pytest.raises(ValueError):
        rle_decode([-1, 9], (2, 4))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32))
def test_roundtrip_random_masks(seed):
    rng = np.random.default_rng(seed)
    h, w = int(rng.integers(1, 20)), int(rng.integers(1, 20))
    mask = rng.random((h, w)) < rng.random()
    back = rle_decode(rle_encode(mask), (h, w))
    assert np.array_equal(mask, back)


def test_runs_sum_to_pixel_count(rng):
    for _ in range(100):
        mask = rng.random((9, 13)) < 0.4
        assert sum(rle_encode(mask)) == 9 * 13


def _reference_rle_encode(mask):
    """`rle_encode` as it was: boundaries from np.flatnonzero of np.diff on uint8."""
    flat = np.asarray(mask).ravel().astype(np.uint8)
    if flat.size == 0:
        return []
    boundaries = np.flatnonzero(np.diff(flat)) + 1
    edges = np.concatenate(([0], boundaries, [flat.size]))
    runs = np.diff(edges).tolist()
    if flat[0] == 1:
        runs = [0] + runs
    return runs


_mask_values = {
    np.bool_: st.booleans(),
    np.uint8: st.sampled_from([0, 1, 2, 255]),
    np.int32: st.sampled_from([0, 1, -1, 2, 256, 257, 2**31 - 1]),
}


@st.composite
def _any_masks(draw):
    dtype = draw(st.sampled_from(list(_mask_values)))
    shape = (draw(st.integers(0, 9)), draw(st.integers(0, 9)))
    fill = draw(st.sampled_from(["random", "zeros", "ones"]))
    if fill == "random":
        return draw(hnp.arrays(dtype, shape, elements=_mask_values[dtype]))
    return (np.zeros if fill == "zeros" else np.ones)(shape, dtype=dtype)


@settings(max_examples=400, deadline=None)
@given(mask=_any_masks())
@example(mask=np.zeros((0, 5), dtype=bool))
@example(mask=np.zeros((3, 4), dtype=bool))
@example(mask=np.ones((3, 4), dtype=bool))
@example(mask=np.ones((1, 1), dtype=bool))
@example(mask=np.zeros((1, 1), dtype=np.uint8))
@example(mask=np.array([[1, 256, 257, 0]], dtype=np.int32))
def test_rle_encode_equals_the_np_diff_reference(mask):
    assert rle_encode(mask) == _reference_rle_encode(mask)
