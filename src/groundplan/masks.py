"""Run-length codec for binary masks.

Runs alternate zero/one counts, always starting with the zero run (which may
be 0), over the row-major flattened mask. The run counts sum to the pixel
count, so the encoding is self-validating. In JSON a mask is
``{"size": [h, w], "runs": [...]}``.
"""

from __future__ import annotations

import numpy as np


def rle_encode(mask: np.ndarray) -> list[int]:
    """Encode a 2D binary mask as alternating zero/one run lengths."""
    flat = np.asarray(mask).ravel().astype(np.uint8)
    if flat.size == 0:
        return []
    boundaries = np.flatnonzero(np.diff(flat)) + 1
    edges = np.concatenate(([0], boundaries, [flat.size]))
    runs = np.diff(edges).tolist()
    if flat[0] == 1:
        runs = [0] + runs
    return runs


def rle_decode(runs: list[int], shape: tuple[int, int]) -> np.ndarray:
    """Decode run lengths back to a 2D boolean mask."""
    h, w = shape
    total = sum(runs)
    if total != h * w:
        raise ValueError(f"run lengths sum to {total}, expected {h * w}")
    if any(r < 0 for r in runs):
        raise ValueError("run lengths must be non-negative")
    values = np.zeros(len(runs), dtype=bool)
    values[1::2] = True
    flat = np.repeat(values, runs)
    return flat.reshape(h, w)


def mask_to_json(mask: np.ndarray) -> dict:
    return {"size": list(mask.shape), "runs": rle_encode(mask)}


def mask_from_json(d: dict) -> np.ndarray:
    return rle_decode(d["runs"], tuple(d["size"]))
