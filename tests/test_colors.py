from __future__ import annotations

import pytest

from groundplan.colors import (
    COLOR_TABLE,
    FilteredNameError,
    display_name,
    nearest_color,
    refine_name,
)


def test_table_has_twenty_unique_entries():
    assert len(COLOR_TABLE) == 20
    names = [n for n, _ in COLOR_TABLE]
    assert len(set(names)) == 20
    expected = {
        "red", "maroon", "lime", "green", "blue", "navy", "yellow", "cyan",
        "magenta", "silver", "gray", "orange", "olive", "purple", "teal",
        "azure", "violet", "rose", "black", "white",
    }
    assert set(names) == expected


def test_refine_strips_distractor_prefix():
    assert refine_name("distractor0_cup") == "cup"


def test_refine_identity_on_clean_names():
    assert refine_name("cup") == "cup"


def test_refine_filters_marker_names():
    assert refine_name("success") is None
    assert refine_name("success_0") is None


def test_refine_strips_digit_tokens():
    assert refine_name("1_jar") == "jar"
    assert refine_name("jar2") == "jar"


def test_refine_idempotent():
    for raw in ("distractor0_cup", "1_jar", "big_red_block", "drawer"):
        once = refine_name(raw)
        assert refine_name(once) == once


def test_nearest_color_exact_entries():
    assert nearest_color((255, 0, 0)) == "red"
    assert nearest_color((0, 0, 0)) == "black"
    assert nearest_color((0, 0, 128)) == "navy"


def test_nearest_color_matches_brute_force(rng):
    def brute(rgb):
        best, best_d = None, None
        for name, (r, g, b) in COLOR_TABLE:
            d = (rgb[0] - r) ** 2 + (rgb[1] - g) ** 2 + (rgb[2] - b) ** 2
            if best_d is None or d < best_d:
                best, best_d = name, d
        return best

    assert nearest_color((250, 10, 5)) == brute((250, 10, 5)) == "red"
    for _ in range(500):
        rgb = tuple(int(v) for v in rng.integers(0, 256, size=3))
        assert nearest_color(rgb) == brute(rgb)


def test_nearest_color_idempotent_on_canonical_entries():
    for name, rgb in COLOR_TABLE:
        assert nearest_color(rgb) == name


def test_nearest_color_rejects_out_of_range():
    with pytest.raises(ValueError):
        nearest_color((256, 0, 0))


def test_display_name_composition():
    assert display_name("block", (255, 0, 0), color_varies=True) == "red block"
    assert display_name("drawer", (10, 10, 10), color_varies=False) == "drawer"
    assert display_name("1_jar", (0, 0, 128), color_varies=True) == "navy jar"


def test_display_name_rejects_filtered_names():
    with pytest.raises(FilteredNameError):
        display_name("success", (1, 2, 3), color_varies=False)


def test_display_name_never_contains_noise(rng):
    raws = ("distractor3_cup", "2_block_7", "success_marker_plate")
    for raw in raws:
        rgb = tuple(int(v) for v in rng.integers(0, 256, size=3))
        name = display_name(raw, rgb, color_varies=True)
        assert "distractor" not in name and "success" not in name
        assert not any(ch.isdigit() for ch in name)

