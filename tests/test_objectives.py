from __future__ import annotations

import math

import numpy as np
import pytest

from groundplan.objectives import (
    SoftMask,
    TokenDistributionSequence,
    bce_mask,
    cross_entropy,
    dice_loss,
    iou,
    joint_grounding_loss,
)


# -- cross entropy ----------------------------------------------------------------


def test_cross_entropy_uniform_closed_form():
    n, vocab = 5, 7
    seq = TokenDistributionSequence(
        probs=np.full((n, vocab), 1.0 / vocab), targets=np.zeros(n, dtype=int)
    )
    assert abs(cross_entropy(seq) - n * math.log(vocab)) < 1e-12


def test_cross_entropy_one_hot_is_zero():
    probs = np.full((3, 4), 1e-13)
    for i in range(3):
        probs[i, i] = 1.0 - 3e-13
    seq = TokenDistributionSequence(probs=probs, targets=np.arange(3))
    assert cross_entropy(seq) < 1e-9


def test_cross_entropy_matches_direct_summation(rng):
    logits = rng.normal(size=(5, 7))
    targets = rng.integers(0, 7, size=5)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    seq = TokenDistributionSequence(e / e.sum(axis=1, keepdims=True), targets)
    expected = 0.0
    for i in range(5):
        expected -= math.log(seq.probs[i, targets[i]])
    assert cross_entropy(seq) == pytest.approx(expected, abs=0.0)


def test_cross_entropy_monotone_in_target_mass():
    base = np.array([[0.2, 0.3, 0.5]])
    better = np.array([[0.1, 0.3, 0.6]])
    t = np.array([2])
    a = cross_entropy(TokenDistributionSequence(base, t))
    b = cross_entropy(TokenDistributionSequence(better, t))
    assert b < a


def test_target_out_of_vocab_rejected():
    with pytest.raises(ValueError):
        TokenDistributionSequence(np.full((1, 3), 1 / 3), np.array([3]))


def test_rows_must_sum_to_one():
    with pytest.raises(ValueError):
        TokenDistributionSequence(np.array([[0.5, 0.4]]), np.array([0]))


# -- BCE / dice -------------------------------------------------------------------


def test_bce_single_pixel_half():
    loss, _ = bce_mask(SoftMask(pred=np.array([[0.5]]), gt=np.array([[1.0]])))
    assert loss == pytest.approx(math.log(2.0), abs=1e-12)


def test_bce_perfect_prediction_small():
    gt = (np.arange(64).reshape(8, 8) % 3 == 0).astype(float)
    loss, _ = bce_mask(SoftMask(pred=gt, gt=gt))  # clamps to 1e-7 / 1-1e-7
    assert loss <= 64 * 1.1e-7


def test_dice_identical_masks_closed_form():
    gt = np.zeros((8, 8))
    gt[:4] = 1.0
    s = gt.sum()
    eps = 1e-6
    loss, _ = dice_loss(SoftMask(pred=gt, gt=gt), eps=eps)
    # Clamping nudges pred by <=1e-7 per pixel; tolerance covers it.
    assert loss == pytest.approx(1.0 - 2.0 * s / (2.0 * s + eps), abs=1e-5)


def test_dice_disjoint_supports():
    pred = np.zeros((4, 4))
    pred[0] = 1.0
    gt = np.zeros((4, 4))
    gt[2] = 1.0
    loss, _ = dice_loss(SoftMask(pred=pred, gt=gt))
    assert loss == pytest.approx(1.0, abs=1e-5)


def test_dice_in_unit_interval(rng):
    for _ in range(50):
        pred = rng.uniform(0.01, 0.99, size=(8, 8))
        gt = (rng.random((8, 8)) < 0.5).astype(float)
        loss, _ = dice_loss(SoftMask(pred, gt))
        assert 0.0 <= loss <= 1.0


def test_joint_loss_is_sum_of_parts(rng):
    pred = rng.uniform(0.01, 0.99, size=(8, 8))
    gt = (rng.random((8, 8)) < 0.5).astype(float)
    mask = SoftMask(pred, gt)
    total, grad = joint_grounding_loss(mask)
    b, bg = bce_mask(mask)
    d, dg = dice_loss(mask)
    assert total == pytest.approx(b + d, rel=1e-12)
    assert np.allclose(grad, bg + dg)


def _finite_difference(fn, pred, gt, h=1e-6):
    """Central-difference gradient, written independently of the library."""
    grad = np.zeros_like(pred)
    for i in range(pred.shape[0]):
        for j in range(pred.shape[1]):
            hi = pred.copy()
            lo = pred.copy()
            hi[i, j] += h
            lo[i, j] -= h
            f_hi, _ = fn(SoftMask(hi, gt))
            f_lo, _ = fn(SoftMask(lo, gt))
            grad[i, j] = (f_hi - f_lo) / (2.0 * h)
    return grad


@pytest.mark.parametrize("fn", [bce_mask, dice_loss, joint_grounding_loss])
def test_gradients_match_finite_differences(fn, rng):
    worst = 0.0
    for _ in range(100):
        pred = rng.uniform(0.01, 0.99, size=(8, 8))
        gt = (rng.random((8, 8)) < 0.5).astype(float)
        _, grad = fn(SoftMask(pred, gt))
        num = _finite_difference(fn, pred, gt)
        denom = np.maximum(np.abs(num), 1e-8)
        worst = max(worst, float((np.abs(grad - num) / denom).max()))
    assert worst < 1e-4


# -- IoU --------------------------------------------------------------------------


def test_iou_identical_and_disjoint():
    a = np.zeros((8, 8), dtype=bool)
    a[:3] = True
    b = np.zeros((8, 8), dtype=bool)
    b[5:] = True
    assert iou(a, a) == 1.0
    assert iou(a, b) == 0.0


def test_iou_empty_pair_scores_one():
    empty = np.zeros((4, 4), dtype=bool)
    assert iou(empty, empty) == 1.0


def test_iou_matches_pixel_counting(rng):
    for _ in range(200):
        a = rng.random((8, 8)) < 0.4
        b = rng.random((8, 8)) < 0.4
        inter = sum(
            1 for i in range(8) for j in range(8) if a[i, j] and b[i, j]
        )
        union = sum(
            1 for i in range(8) for j in range(8) if a[i, j] or b[i, j]
        )
        expected = 1.0 if union == 0 else inter / union
        assert iou(a, b) == pytest.approx(expected, abs=0.0)
        assert iou(a, b) == iou(b, a)


def test_iou_monotone_under_intersection_growth():
    a = np.zeros((8, 8), dtype=bool)
    a[0:4] = True
    b = np.zeros((8, 8), dtype=bool)
    prev = iou(a, b)
    for row in range(4):
        b[row] = True
        cur = iou(a, b)
        assert cur >= prev
        prev = cur


def test_iou_shape_mismatch():
    with pytest.raises(ValueError):
        iou(np.zeros((2, 2), dtype=bool), np.zeros((3, 3), dtype=bool))
