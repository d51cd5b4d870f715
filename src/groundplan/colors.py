"""Semantic label standardization: name cleanup and nearest-color naming.

Raw simulator object names carry helper markers and numeric prefixes
("distractor0_cup", "success"). `refine_name` strips that noise, and
`display_name` optionally prepends the nearest named color for objects whose
color changes between task variations.
"""

from __future__ import annotations

import json
import re
from importlib import resources

RGB = tuple[int, int, int]

# Tokens that are pure scene plumbing and never part of a display name.
_NOISE_TOKENS = frozenset({"distractor", "success"})

_DIGITS = re.compile(r"^\d+|\d+$")


class FilteredNameError(ValueError):
    """Raised when an object's raw name refines to nothing displayable."""


def load_color_table() -> list[tuple[str, RGB]]:
    """Load the 20-entry color table shipped with the package, in tie-breaking order."""
    raw = resources.files("groundplan.data").joinpath("colors.json").read_text()
    table = [(name, tuple(rgb)) for name, rgb in json.loads(raw)]
    names = [name for name, _ in table]
    if len(names) != len(set(names)):
        raise ValueError("color table names must be unique")
    return table


COLOR_TABLE: list[tuple[str, RGB]] = load_color_table()


def refine_name(raw: str) -> str | None:
    """Strip noise from a raw object name; None if nothing is left.

    Underscores act as separators; leading/trailing digits are dropped per
    token; "distractor"/"success" tokens are removed entirely.

    >>> refine_name("distractor0_cup")
    'cup'
    """
    tokens = raw.replace("_", " ").lower().split()
    kept = []
    for tok in tokens:
        tok = _DIGITS.sub("", tok)
        if not tok or tok in _NOISE_TOKENS:
            continue
        kept.append(tok)
    if not kept:
        return None
    return " ".join(kept)


def nearest_color(rgb: RGB | list[int]) -> str:
    """Name of the COLOR_TABLE color closest in squared RGB distance.

    Ties break by table order, which is fixed.
    """
    r, g, b = rgb
    if not all(0 <= c <= 255 for c in (r, g, b)):
        raise ValueError(f"rgb components must be in [0, 255], got {rgb!r}")
    best_name, best_d = None, None
    for name, (tr, tg, tb) in COLOR_TABLE:
        d = (r - tr) ** 2 + (g - tg) ** 2 + (b - tb) ** 2
        if best_d is None or d < best_d:
            best_name, best_d = name, d
    return best_name


def display_name(raw_name: str, color: RGB | list[int], color_varies: bool) -> str:
    """Human-facing object name, with color prepended when it disambiguates.

    Raises FilteredNameError for names that refine to nothing (helper
    markers have no display name).
    """
    refined = refine_name(raw_name)
    if refined is None:
        raise FilteredNameError(f"raw name {raw_name!r} is filtered entirely")
    if color_varies:
        return f"{nearest_color(color)} {refined}"
    return refined
