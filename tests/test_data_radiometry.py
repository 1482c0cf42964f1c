"""Tests for repro.data.radiometry (class prototypes and rendering)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.classes import HSV_RANGES, SeaIceClass
from repro.data import (
    CLASS_RGB_PROTOTYPES,
    CLASS_TEXTURE_AMPLITUDE,
    mix_contaminant,
    prototype_array,
    render_class_map,
)
from repro.imops import rgb_to_hsv


class TestPrototypes:
    def test_every_class_has_prototype_and_texture(self):
        assert set(CLASS_RGB_PROTOTYPES) == set(SeaIceClass)
        assert set(CLASS_TEXTURE_AMPLITUDE) == set(SeaIceClass)

    def test_prototype_values_fall_in_their_own_hsv_band(self):
        """The synthetic radiometry must be consistent with the paper's HSV thresholds."""
        for cls, rgb in CLASS_RGB_PROTOTYPES.items():
            pixel = np.array(rgb, dtype=np.uint8).reshape(1, 1, 3)
            hsv = rgb_to_hsv(pixel)
            assert HSV_RANGES[cls].inside({c: hsv[..., c] for c in range(3)})[0, 0], f"{cls} prototype outside its HSV range"

    def test_texture_keeps_classes_inside_their_bands(self):
        """Prototype ± texture amplitude must not cross the class V thresholds."""
        for cls, rgb in CLASS_RGB_PROTOTYPES.items():
            amp = CLASS_TEXTURE_AMPLITUDE[cls] / 2 + 3 * 2.0  # half peak-to-peak + 3 sigma noise
            vmax = max(rgb) + amp
            vmin = max(rgb) - amp
            lo, hi = HSV_RANGES[cls].lower[2], HSV_RANGES[cls].upper[2]
            assert vmin >= lo - 0.5, f"{cls} can fall below its V band"
            assert vmax <= hi + 0.5 or hi == 255, f"{cls} can exceed its V band"

    def test_prototype_array_shape(self):
        arr = prototype_array()
        assert arr.shape == (3, 3)
        assert arr[int(SeaIceClass.THICK_ICE)].mean() > arr[int(SeaIceClass.OPEN_WATER)].mean()


class TestRenderClassMap:
    def test_output_shape_and_dtype(self):
        cmap = np.zeros((16, 16), dtype=np.uint8)
        rgb = render_class_map(cmap, rng=np.random.default_rng(0))
        assert rgb.shape == (16, 16, 3)
        assert rgb.dtype == np.uint8

    def test_classes_render_with_correct_brightness_ordering(self):
        cmap = np.array([[0, 1, 2]], dtype=np.uint8).repeat(8, axis=0)
        cmap = np.repeat(cmap, 8, axis=1)
        rgb = render_class_map(cmap, rng=np.random.default_rng(0))
        thick = rgb[:, :8].mean()
        thin = rgb[:, 8:16].mean()
        water = rgb[:, 16:].mean()
        assert thick > thin > water

    def test_rejects_unknown_class(self):
        with pytest.raises(ValueError):
            render_class_map(np.array([[9]], dtype=np.uint8))

    def test_rejects_texture_shape_mismatch(self):
        with pytest.raises(ValueError):
            render_class_map(np.zeros((4, 4), dtype=np.uint8), texture=np.zeros((8, 8)))

    def test_deterministic_with_seeded_rng(self):
        cmap = np.random.default_rng(0).integers(0, 3, size=(12, 12)).astype(np.uint8)
        a = render_class_map(cmap, rng=np.random.default_rng(3))
        b = render_class_map(cmap, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)


class TestMixContaminant:
    def test_zero_alpha_is_identity(self, rgb_image):
        out = mix_contaminant(rgb_image, np.zeros(rgb_image.shape[:2]), (255, 255, 255))
        np.testing.assert_array_equal(out, rgb_image)

    def test_full_alpha_is_contaminant(self, rgb_image):
        out = mix_contaminant(rgb_image, np.ones(rgb_image.shape[:2]), (10, 20, 30))
        assert np.all(out.reshape(-1, 3) == np.array([10, 20, 30]))

    def test_intermediate_alpha_brightens_toward_white(self):
        dark = np.full((8, 8, 3), 20, dtype=np.uint8)
        out = mix_contaminant(dark, np.full((8, 8), 0.5), (255, 255, 255))
        assert np.all(out > 100) and np.all(out < 180)

    def test_alpha_out_of_range_raises(self, rgb_image):
        with pytest.raises(ValueError):
            mix_contaminant(rgb_image, np.full(rgb_image.shape[:2], 1.5), (255, 255, 255))

    def test_alpha_shape_mismatch_raises(self, rgb_image):
        with pytest.raises(ValueError):
            mix_contaminant(rgb_image, np.zeros((3, 3)), (255, 255, 255))
