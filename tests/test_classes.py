"""Tests for repro.classes (class definitions, HSV ranges, label colours)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.classes import (
    CLASS_NAMES,
    HSV_RANGES,
    LABEL_COLORS,
    NUM_CLASSES,
    HSVRange,
    SeaIceClass,
    class_map_to_color,
)


class TestClassDefinitions:
    def test_three_classes(self):
        assert NUM_CLASSES == 3
        assert len(SeaIceClass) == 3
        assert set(CLASS_NAMES) == set(SeaIceClass)
        assert set(LABEL_COLORS) == set(SeaIceClass)

    def test_paper_label_colors(self):
        assert LABEL_COLORS[SeaIceClass.THICK_ICE] == (255, 0, 0)  # red
        assert LABEL_COLORS[SeaIceClass.THIN_ICE] == (0, 0, 255)  # blue
        assert LABEL_COLORS[SeaIceClass.OPEN_WATER] == (0, 255, 0)  # green

    def test_paper_hsv_thresholds(self):
        assert HSV_RANGES[SeaIceClass.THICK_ICE].lower == (0, 0, 205)
        assert HSV_RANGES[SeaIceClass.THICK_ICE].upper == (185, 255, 255)
        assert HSV_RANGES[SeaIceClass.THIN_ICE].lower == (0, 0, 31)
        assert HSV_RANGES[SeaIceClass.THIN_ICE].upper == (185, 255, 204)
        assert HSV_RANGES[SeaIceClass.OPEN_WATER].upper == (185, 255, 30)

    def test_value_bands_are_disjoint_and_cover_uint8(self):
        """The paper's three V bands are non-intersecting and exhaustive."""
        bands = sorted((r.lower[2], r.upper[2]) for r in HSV_RANGES.values())
        assert bands[0][0] == 0
        assert bands[-1][1] == 255
        for (lo1, hi1), (lo2, _hi2) in zip(bands, bands[1:]):
            assert hi1 + 1 == lo2


class TestHSVRange:
    def test_contains_masks(self):
        hsv = np.zeros((2, 2, 3), dtype=np.uint8)
        hsv[0, 0] = (10, 50, 250)  # thick ice band
        hsv[0, 1] = (10, 50, 100)  # thin ice band
        hsv[1, 0] = (10, 50, 10)  # open water band
        planes = {c: hsv[..., c] for c in range(3)}
        assert HSV_RANGES[SeaIceClass.THICK_ICE].inside(planes)[0, 0]
        assert HSV_RANGES[SeaIceClass.THIN_ICE].inside(planes)[0, 1]
        assert HSV_RANGES[SeaIceClass.OPEN_WATER].inside(planes)[1, 0]

    def test_boundaries_inclusive(self):
        rng = HSVRange((0, 0, 31), (185, 255, 204))
        hsv = np.array([[[0, 0, 31]], [[185, 255, 204]]], dtype=np.uint8)
        assert rng.inside({c: hsv[..., c] for c in range(3)}).all()


class TestColorMaps:
    def test_color_image_values(self):
        cmap = np.array([[0, 1, 2]], dtype=np.uint8)
        rgb = class_map_to_color(cmap)
        assert tuple(rgb[0, 0]) == (255, 0, 0)
        assert tuple(rgb[0, 1]) == (0, 0, 255)
        assert tuple(rgb[0, 2]) == (0, 255, 0)

    def test_rejects_unknown_class(self):
        with pytest.raises(ValueError):
            class_map_to_color(np.array([[7]], dtype=np.uint8))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            class_map_to_color(np.zeros((2, 2, 2), dtype=np.uint8))
