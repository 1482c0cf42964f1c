"""Tests for repro.imops.morphology."""

from __future__ import annotations

import numpy as np
import pytest

from repro.imops import (
    dilate,
    erode,
    fill_holes,
    morph_close,
    morph_open,
    remove_small_objects,
    structuring_element,
)


@pytest.fixture()
def blob_mask():
    mask = np.zeros((30, 30), dtype=bool)
    mask[5:15, 5:15] = True  # 10x10 blob
    mask[22, 22] = True  # isolated pixel
    return mask


class TestStructuringElement:
    def test_rect_is_full(self):
        assert structuring_element("rect", 3).sum() == 9

    def test_cross_count(self):
        assert structuring_element("cross", 5).sum() == 9

    def test_ellipse_is_subset_of_rect(self):
        e = structuring_element("ellipse", 7)
        assert e.sum() < 49
        assert e[3, 3]

    def test_unknown_shape_raises(self):
        with pytest.raises(ValueError):
            structuring_element("hexagon", 3)

    def test_even_size_raises(self):
        with pytest.raises(ValueError):
            structuring_element("rect", 4)


class TestErodeDilate:
    def test_erosion_shrinks(self, blob_mask):
        out = erode(blob_mask, 3)
        assert out.sum() < blob_mask.sum()
        assert not out[22, 22]

    def test_dilation_grows(self, blob_mask):
        out = dilate(blob_mask, 3)
        assert out.sum() > blob_mask.sum()

    def test_erosion_dilation_are_duals_on_masks(self, blob_mask):
        # erode(m) == ~dilate(~m) for symmetric structuring elements
        a = erode(blob_mask, 3)
        b = ~dilate(~blob_mask, 3)
        np.testing.assert_array_equal(a, b)

    def test_uint8_mask_preserved_levels(self, blob_mask):
        img = blob_mask.astype(np.uint8) * 255
        out = dilate(img, 3)
        assert set(np.unique(out)).issubset({0, 255})

    def test_grayscale_dilation_takes_local_max(self):
        img = np.zeros((9, 9), dtype=np.uint8)
        img[4, 4] = 200
        img[0, 0] = 90
        out = dilate(img, 3)
        assert out[4, 5] == 200
        assert out[1, 1] == 90

    def test_iterations(self, blob_mask):
        once = dilate(blob_mask, 3)
        twice = dilate(once, 3)
        assert twice.sum() > once.sum()

    def test_rejects_3d(self, rgb_image):
        with pytest.raises(ValueError):
            erode(rgb_image, 3)


class TestOpenClose:
    def test_open_removes_specks(self, blob_mask):
        out = morph_open(blob_mask, 3)
        assert not out[22, 22]
        assert out[9, 9]

    def test_close_fills_small_gap(self):
        mask = np.ones((20, 20), dtype=bool)
        mask[10, 10] = False
        out = morph_close(mask, 3)
        assert out[10, 10]


class TestCleanup:
    def test_remove_small_objects(self, blob_mask):
        out = remove_small_objects(blob_mask, min_size=4)
        assert not out[22, 22]
        assert out[9, 9]

    def test_remove_small_objects_empty_mask(self):
        out = remove_small_objects(np.zeros((5, 5), dtype=bool), min_size=2)
        assert out.sum() == 0

    @pytest.mark.parametrize("kind", ["list", "uint8", "bool"])
    @pytest.mark.parametrize("foreground", [False, True])
    def test_remove_small_objects_keeps_the_input_kind(self, kind, foreground):
        """A list mask is read as the array it makes, with or without foreground; the
        result has the input's dtype and levels either way."""
        grid = np.zeros((6, 6), dtype=np.uint8)
        if foreground:
            grid[1:4, 1:4] = 255
            grid[5, 5] = 255  # a 1-pixel speck, dropped
        mask = {"list": grid.tolist(), "uint8": grid, "bool": grid > 0}[kind]
        out = remove_small_objects(mask, min_size=2)
        want = np.asarray(mask).copy()
        want[5, 5] = 0
        assert out.dtype == np.asarray(mask).dtype
        np.testing.assert_array_equal(out, want)

    def test_fill_holes(self):
        mask = np.zeros((20, 20), dtype=bool)
        mask[3:17, 3:17] = True
        mask[8:12, 8:12] = False
        out = fill_holes(mask)
        assert out[10, 10]
        assert not out[0, 0]

    def test_fill_holes_uint8(self):
        mask = np.zeros((10, 10), dtype=np.uint8)
        mask[2:8, 2:8] = 255
        mask[5, 5] = 0
        out = fill_holes(mask)
        assert out[5, 5] == 255
