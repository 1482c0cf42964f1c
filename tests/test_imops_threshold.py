"""Tests for repro.imops.threshold."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.imops import (
    ThresholdType,
    adaptive_mean_threshold,
    otsu_threshold,
    threshold,
    threshold_binary,
    threshold_binary_inv,
    threshold_tozero,
    threshold_tozero_inv,
    threshold_truncate,
)


class TestFixedThreshold:
    def test_binary(self, gray_image):
        out = threshold_binary(gray_image, 127)
        assert set(np.unique(out)).issubset({0, 255})
        np.testing.assert_array_equal(out == 255, gray_image > 127)

    def test_binary_inv_is_complement(self, gray_image):
        a = threshold_binary(gray_image, 100)
        b = threshold_binary_inv(gray_image, 100)
        assert np.all((a == 255) ^ (b == 255))

    def test_truncate_clamps_upper(self, gray_image):
        out = threshold_truncate(gray_image, 90)
        assert out.max() <= 90
        np.testing.assert_array_equal(out[gray_image <= 90], gray_image[gray_image <= 90])

    def test_tozero(self, gray_image):
        out = threshold_tozero(gray_image, 120)
        assert np.all(out[gray_image <= 120] == 0)
        np.testing.assert_array_equal(out[gray_image > 120], gray_image[gray_image > 120])

    def test_tozero_inv(self, gray_image):
        out = threshold_tozero_inv(gray_image, 120)
        assert np.all(out[gray_image > 120] == 0)
        np.testing.assert_array_equal(out[gray_image <= 120], gray_image[gray_image <= 120])

    def test_threshold_returns_level(self, gray_image):
        level, _ = threshold(gray_image, 42, kind=ThresholdType.BINARY)
        assert level == 42.0

    def test_rejects_multichannel(self, rgb_image):
        with pytest.raises(ValueError):
            threshold_binary(rgb_image, 127)

    def test_preserves_dtype(self, gray_image):
        assert threshold_truncate(gray_image, 90).dtype == gray_image.dtype

    @settings(max_examples=25, deadline=None)
    @given(
        hnp.arrays(dtype=np.uint8, shape=st.tuples(st.integers(1, 12), st.integers(1, 12))),
        st.integers(0, 255),
    )
    def test_binary_partition_property(self, img, level):
        out = threshold_binary(img, level)
        assert np.count_nonzero(out == 255) + np.count_nonzero(out == 0) == img.size


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


class TestAdaptive:
    def test_detects_local_bright_spot_under_gradient(self):
        # A global threshold cannot separate a faint spot on a strong ramp.
        ramp = np.tile(np.linspace(0, 200, 64, dtype=np.uint8), (64, 1))
        img = ramp.copy()
        img[30:34, 10:14] = np.minimum(img[30:34, 10:14] + 40, 255)
        out = adaptive_mean_threshold(img, block_size=11, offset=5)
        assert out[31, 11] == 255

    def test_rejects_even_block_size(self, gray_image):
        with pytest.raises(ValueError):
            adaptive_mean_threshold(gray_image, block_size=4)

    def test_output_is_binary(self, gray_image):
        out = adaptive_mean_threshold(gray_image, block_size=9)
        assert set(np.unique(out)).issubset({0, 255})
