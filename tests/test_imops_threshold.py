"""Tests for repro.imops.threshold."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.imops import ThresholdType, otsu_threshold, threshold


def _apply(image, level, kind, maxval=255):
    return threshold(image, level, maxval=maxval, kind=kind)[1]


def _cv2_formula(image, level, kind, maxval):
    """``cv2.threshold``'s documented per-pixel rule."""
    above = image > level
    return {
        ThresholdType.BINARY: np.where(above, maxval, 0),
        ThresholdType.BINARY_INV: np.where(above, 0, maxval),
        ThresholdType.TRUNC: np.where(above, level, image),
        ThresholdType.TOZERO: np.where(above, image, 0),
        ThresholdType.TOZERO_INV: np.where(above, 0, image),
    }[kind]


class TestFixedThreshold:
    def test_binary(self, gray_image):
        out = _apply(gray_image, 127, ThresholdType.BINARY)
        assert set(np.unique(out)).issubset({0, 255})
        np.testing.assert_array_equal(out == 255, gray_image > 127)

    def test_binary_inv_is_complement(self, gray_image):
        a = _apply(gray_image, 100, ThresholdType.BINARY)
        b = _apply(gray_image, 100, ThresholdType.BINARY_INV)
        assert np.all((a == 255) ^ (b == 255))

    def test_truncate_clamps_upper(self, gray_image):
        out = _apply(gray_image, 90, ThresholdType.TRUNC)
        assert out.max() <= 90
        np.testing.assert_array_equal(out[gray_image <= 90], gray_image[gray_image <= 90])

    def test_tozero(self, gray_image):
        out = _apply(gray_image, 120, ThresholdType.TOZERO)
        assert np.all(out[gray_image <= 120] == 0)
        np.testing.assert_array_equal(out[gray_image > 120], gray_image[gray_image > 120])

    def test_tozero_inv(self, gray_image):
        out = _apply(gray_image, 120, ThresholdType.TOZERO_INV)
        assert np.all(out[gray_image > 120] == 0)
        np.testing.assert_array_equal(out[gray_image <= 120], gray_image[gray_image <= 120])

    def test_threshold_returns_level(self, gray_image):
        level, _ = threshold(gray_image, 42, kind=ThresholdType.BINARY)
        assert level == 42.0

    def test_rejects_multichannel(self, rgb_image):
        with pytest.raises(ValueError):
            threshold(rgb_image, 127)

    def test_preserves_dtype(self, gray_image):
        assert _apply(gray_image, 90, ThresholdType.TRUNC).dtype == gray_image.dtype

    @settings(max_examples=25, deadline=None)
    @given(
        hnp.arrays(dtype=np.uint8, shape=st.tuples(st.integers(1, 12), st.integers(1, 12))),
        st.integers(0, 255),
    )
    def test_binary_partition_property(self, img, level):
        out = _apply(img, level, ThresholdType.BINARY)
        assert np.count_nonzero(out == 255) + np.count_nonzero(out == 0) == img.size


class TestThresholdMatchesCv2Formula:
    """Every mode at the two extreme levels and one interior level, against the
    per-pixel rule: ``> level`` is strict, so a pixel equal to it counts as below."""

    @pytest.mark.parametrize("level", [0, 128, 255])
    @pytest.mark.parametrize("kind", list(ThresholdType))
    def test_mode_at_level(self, kind, level):
        image = np.arange(256, dtype=np.uint8).reshape(16, 16)
        out = _apply(image, level, kind)
        assert out.dtype == np.uint8
        np.testing.assert_array_equal(out, _cv2_formula(image, level, kind, 255))

    @pytest.mark.parametrize("kind", [ThresholdType.BINARY, ThresholdType.BINARY_INV])
    def test_binary_modes_write_maxval(self, kind, gray_image):
        out = _apply(gray_image, 127, kind, maxval=1)
        assert set(np.unique(out)) == {0, 1}
        np.testing.assert_array_equal(out, _cv2_formula(gray_image, 127, kind, 1))

    @pytest.mark.parametrize("kind", list(ThresholdType))
    def test_float_image_keeps_float_values(self, kind):
        image = np.linspace(0.0, 1.0, 24, dtype=np.float32).reshape(4, 6)
        out = _apply(image, 0.5, kind, maxval=1.0)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, _cv2_formula(image, 0.5, kind, 1.0))

    def test_kind_is_accepted_by_value(self, gray_image):
        np.testing.assert_array_equal(
            _apply(gray_image, 60, "tozero"), _apply(gray_image, 60, ThresholdType.TOZERO)
        )
        with pytest.raises(ValueError):
            threshold(gray_image, 60, kind="adaptive")


class TestOtsu:
    def test_separates_bimodal_image(self):
        rng = np.random.default_rng(0)
        dark = rng.normal(40, 5, size=500)
        bright = rng.normal(200, 5, size=500)
        img = np.clip(np.concatenate([dark, bright]).reshape(40, 25), 0, 255).astype(np.uint8)
        level = otsu_threshold(img)
        assert 60 < level < 180
        # Essentially all bright pixels above, dark below.
        assert np.mean(img[img > 180] > level) > 0.99
        assert np.mean(img[img < 60] <= level) > 0.99

    def test_constant_image_does_not_crash(self):
        img = np.full((8, 8), 77, dtype=np.uint8)
        assert otsu_threshold(img) == 77.0

    def test_empty_image_raises(self):
        with pytest.raises(ValueError):
            otsu_threshold(np.zeros((0, 0), dtype=np.uint8))

    def test_otsu_level_between_min_and_max(self, gray_image):
        level = otsu_threshold(gray_image)
        assert gray_image.min() <= level <= gray_image.max()
