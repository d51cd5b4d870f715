"""Training objectives and the grounding metric, with analytic gradients.

All sums are unreduced (no per-pixel averaging) so values match the
summation form of the defining equations exactly; any averaging belongs to
the evaluation harness. Gradients are returned alongside values and are
checked against central finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PROB_CLAMP = 1e-7
DICE_EPS = 1e-6


@dataclass
class TokenDistributionSequence:
    """Per-position probability vectors over a vocabulary plus target ids."""

    probs: np.ndarray  # (n, V) rows summing to 1
    targets: np.ndarray  # (n,) int

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        self.targets = np.asarray(self.targets, dtype=int).reshape(-1)
        if self.probs.ndim != 2 or len(self.probs) != len(self.targets):
            raise ValueError("probs must be (n, V) with one target per row")
        if np.any(self.probs <= 0):
            raise ValueError("probabilities must be positive")
        row_err = np.abs(self.probs.sum(axis=1) - 1.0).max(initial=0.0)
        if row_err > 1e-12:
            raise ValueError(f"rows must sum to 1 within 1e-12 (err {row_err:g})")
        if np.any(self.targets < 0) or np.any(self.targets >= self.probs.shape[1]):
            raise ValueError("target index out of vocabulary")


def cross_entropy(seq: TokenDistributionSequence) -> float:
    """Next-token loss: -sum_i log p_i(y_i)."""
    picked = seq.probs[np.arange(len(seq.targets)), seq.targets]
    return float(-np.log(picked).sum())


@dataclass
class SoftMask:
    """A predicted probability mask paired with its binary ground truth.

    Predictions are clamped into [1e-7, 1 - 1e-7] on construction; the BCE
    terms are undefined at exactly 0 or 1.
    """

    pred: np.ndarray
    gt: np.ndarray

    def __post_init__(self):
        self.pred = np.clip(np.asarray(self.pred, dtype=float), PROB_CLAMP, 1.0 - PROB_CLAMP)
        self.gt = np.asarray(self.gt, dtype=float)
        if self.pred.shape != self.gt.shape:
            raise ValueError("pred and gt must share a shape")
        if not np.all((self.gt == 0.0) | (self.gt == 1.0)):
            raise ValueError("ground truth must be binary")


def bce_mask(mask: SoftMask) -> tuple[float, np.ndarray]:
    """Binary cross-entropy summed over pixels, with d(loss)/d(pred)."""
    p, g = mask.pred, mask.gt
    loss = -np.sum(g * np.log(p) + (1.0 - g) * np.log(1.0 - p))
    grad = -(g / p) + (1.0 - g) / (1.0 - p)
    return float(loss), grad


def dice_loss(mask: SoftMask, eps: float = DICE_EPS) -> tuple[float, np.ndarray]:
    """Dice loss 1 - 2<p,g> / (sum p + sum g + eps), with gradient."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    p, g = mask.pred, mask.gt
    inter = float(np.sum(p * g))
    denom = float(np.sum(p) + np.sum(g) + eps)
    loss = 1.0 - 2.0 * inter / denom
    # Quotient rule: d/dp_j [2 inter / denom] = (2 g_j denom - 2 inter) / denom^2
    grad = -(2.0 * g * denom - 2.0 * inter) / (denom * denom)
    return float(loss), grad


def joint_grounding_loss(mask: SoftMask, eps: float = DICE_EPS) -> tuple[float, np.ndarray]:
    """BCE plus dice; the gradient is the sum of both gradients."""
    bce, bce_grad = bce_mask(mask)
    dice, dice_grad = dice_loss(mask, eps)
    return bce + dice, bce_grad + dice_grad


def iou(a: np.ndarray, b: np.ndarray) -> float:
    """Intersection over union of two binary masks in [0, 1].

    Both masks empty scores 1.0: predicting "not visible in this view" when
    the object truly is invisible is correct.
    """
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    if a.shape != b.shape:
        raise ValueError(f"mask shapes differ: {a.shape} vs {b.shape}")
    union = int(np.count_nonzero(a | b))
    if union == 0:
        return 1.0
    return int(np.count_nonzero(a & b)) / union


def gradient_check_report(seed: int = 0, trials: int = 100) -> dict[str, float]:
    """Max relative error of analytic vs central-difference gradients.

    Each trial draws an 8x8 prediction and ground truth and perturbs every
    pixel by +-1e-6. Used by the `check-grads` CLI subcommand.
    """
    h = 1e-6
    rng = np.random.default_rng(seed)
    worst = {"bce": 0.0, "dice": 0.0, "joint": 0.0}
    funcs = {"bce": bce_mask, "dice": dice_loss, "joint": joint_grounding_loss}
    for _ in range(trials):
        pred = rng.uniform(0.01, 0.99, size=(8, 8))
        gt = (rng.random((8, 8)) < 0.5).astype(float)
        for name, fn in funcs.items():
            _, grad = fn(SoftMask(pred, gt))
            num = np.empty_like(pred)
            for idx in np.ndindex(pred.shape):
                hi = pred.copy()
                lo = pred.copy()
                hi[idx] += h
                lo[idx] -= h
                f_hi, _ = fn(SoftMask(hi, gt))
                f_lo, _ = fn(SoftMask(lo, gt))
                num[idx] = (f_hi - f_lo) / (2.0 * h)
            scale = np.maximum(np.abs(grad), np.maximum(np.abs(num), 1e-8))
            rel = float((np.abs(grad - num) / scale).max())
            worst[name] = max(worst[name], rel)
    return worst
