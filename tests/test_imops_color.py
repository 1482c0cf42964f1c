"""Tests for repro.imops.color (RGB to HSV conversion)."""

from __future__ import annotations

import colorsys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from helpers import autolabel_tile
from reference_kernels import reference_rgb_to_hsv, rgb_views

from repro.classes import HSV_RANGES, SeaIceClass
from repro.imops import channel_planes, hsv_planes, rgb_to_hsv


def _opencv_hsv_to_rgb(hsv: np.ndarray) -> np.ndarray:
    """The inverse of OpenCV's 8-bit HSV (hue in 2-degree steps), pixel by pixel through ``colorsys``."""
    flat = hsv.reshape(-1, 3).astype(np.float64)
    rgb = [colorsys.hsv_to_rgb(h * 2.0 / 360.0 % 1.0, s / 255.0, v / 255.0) for h, s, v in flat]
    return np.clip(np.rint(np.asarray(rgb).reshape(hsv.shape) * 255.0), 0, 255).astype(np.uint8)


class TestRgbToHsv:
    def test_output_shape_and_dtype(self, rgb_image):
        hsv = rgb_to_hsv(rgb_image)
        assert hsv.shape == rgb_image.shape
        assert hsv.dtype == np.uint8

    def test_hue_range_is_opencv_convention(self, rgb_image):
        hsv = rgb_to_hsv(rgb_image)
        assert hsv[..., 0].max() <= 179

    def test_pure_colors(self):
        img = np.zeros((1, 3, 3), dtype=np.uint8)
        img[0, 0] = (255, 0, 0)  # red
        img[0, 1] = (0, 255, 0)  # green
        img[0, 2] = (0, 0, 255)  # blue
        hsv = rgb_to_hsv(img)
        assert hsv[0, 0, 0] == 0  # red hue
        assert hsv[0, 1, 0] == 60  # green hue (120 deg / 2)
        assert hsv[0, 2, 0] == 120  # blue hue (240 deg / 2)
        assert np.all(hsv[..., 1] == 255)
        assert np.all(hsv[..., 2] == 255)

    def test_gray_pixels_have_zero_saturation(self):
        img = np.full((4, 4, 3), 123, dtype=np.uint8)
        hsv = rgb_to_hsv(img)
        assert np.all(hsv[..., 0] == 0)
        assert np.all(hsv[..., 1] == 0)
        assert np.all(hsv[..., 2] == 123)

    def test_value_channel_is_max_of_rgb(self, rgb_image):
        hsv = rgb_to_hsv(rgb_image)
        np.testing.assert_array_equal(hsv[..., 2], rgb_image.max(axis=-1))

    def test_black_pixel(self):
        img = np.zeros((2, 2, 3), dtype=np.uint8)
        hsv = rgb_to_hsv(img)
        assert np.all(hsv == 0)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            rgb_to_hsv(np.zeros((4, 4), dtype=np.uint8))

    def test_accepts_float_input_in_unit_range(self):
        img = np.array([[[1.0, 0.0, 0.0]]])
        hsv = rgb_to_hsv(img)
        assert hsv[0, 0, 2] == 255


class TestPlanarRgbToHsvMatchesOracle:
    """The planar conversion against the last-axis / nested-``where`` body it replaced: equal, not close."""

    def test_every_8_bit_colour(self):
        """All 2**24 inputs a uint8 pixel can be, one 256x256 green-blue sheet per red level.

        On the same sheets: a value-only request is channel 2 of the full conversion -- from the uint8
        planes and from float planes of the same integers, the form the cloud/shadow filter hands the
        labeler -- and the unfiltered default label is the paper's value band of that channel.
        """
        green, blue = np.meshgrid(np.arange(256, dtype=np.uint8), np.arange(256, dtype=np.uint8), indexing="ij")
        sheet = np.stack([np.zeros_like(green), green, blue], axis=-1)
        planes = np.moveaxis(sheet, -1, 0)
        band_edges = [HSV_RANGES[SeaIceClass.THIN_ICE].lower[2], HSV_RANGES[SeaIceClass.THICK_ICE].lower[2]]
        for red in range(256):
            sheet[..., 0] = red
            hsv = rgb_to_hsv(sheet)
            np.testing.assert_array_equal(hsv, reference_rgb_to_hsv(sheet), err_msg=f"red={red}")
            np.testing.assert_array_equal(hsv_planes(planes, (2,))[2], hsv[..., 2], err_msg=f"red={red}")
            np.testing.assert_array_equal(hsv_planes(planes.astype(np.float64), (2,), unit=False)[2], hsv[..., 2], err_msg=f"red={red}")
            expected = int(SeaIceClass.OPEN_WATER) - np.digitize(hsv[..., 2], band_edges)
            np.testing.assert_array_equal(autolabel_tile(sheet, apply_cloud_filter=False), expected, err_msg=f"red={red}")

    @settings(max_examples=60, deadline=None)
    @given(rgb_views())
    def test_any_shape_and_layout(self, img):
        hsv = rgb_to_hsv(img)
        assert hsv.dtype == np.uint8 and hsv.flags.c_contiguous
        np.testing.assert_array_equal(hsv, reference_rgb_to_hsv(img))

    @settings(max_examples=60, deadline=None)
    @given(
        hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 12), st.just(3)), elements=st.floats(0, 1)),
        st.sampled_from([1.0, 255.0]),  # unit range, or the 0..255 range the conversion rescales itself
        st.sampled_from([np.float64, np.float32]),
    )
    def test_float_input(self, unit, scale, dtype):
        img = (unit * scale).astype(dtype)
        np.testing.assert_array_equal(rgb_to_hsv(img), reference_rgb_to_hsv(img))

    def test_channel_planes(self, rgb_image):
        planes = channel_planes(rgb_image[:, ::2])
        assert planes.dtype == np.float32 and planes.shape == (3, 40, 28) and planes.flags.c_contiguous
        np.testing.assert_array_equal(np.moveaxis(planes, 0, -1), rgb_image[:, ::2])


class TestHsvRoundTrip:
    """``rgb_to_hsv`` followed by the ``colorsys`` inverse lands back on the input, up to
    the 2-degree hue and 1/255 saturation steps of the 8-bit convention."""

    @settings(max_examples=25, deadline=None)
    @given(
        hnp.arrays(
            dtype=np.uint8,
            shape=st.tuples(st.integers(1, 8), st.integers(1, 8), st.just(3)),
        )
    )
    def test_round_trip_close(self, img):
        back = _opencv_hsv_to_rgb(rgb_to_hsv(img))
        assert np.max(np.abs(back.astype(int) - img.astype(int))) <= 6

    def test_round_trip_on_sea_ice_palette(self):
        from repro.data import prototype_array

        img = np.clip(np.round(prototype_array()), 0, 255).astype(np.uint8).reshape(1, 3, 3)
        back = _opencv_hsv_to_rgb(rgb_to_hsv(img))
        assert np.max(np.abs(back.astype(int) - img.astype(int))) <= 4


class TestMatchesColorsys:
    """Named colours against ``colorsys.rgb_to_hsv`` scaled to OpenCV's 8-bit ranges; a hue
    that rounds up to 180 (``ff0001``, 359.8 degrees) is held at the top of the range, 179."""

    @pytest.mark.parametrize(
        "rgb",
        [(255, 0, 0), (255, 128, 0), (255, 255, 0), (0, 255, 0), (0, 255, 255), (0, 0, 255),
         (255, 0, 255), (255, 0, 1), (255, 255, 255), (0, 0, 0), (128, 128, 128), (10, 40, 90)],
        ids=lambda rgb: "%02x%02x%02x" % rgb,
    )
    def test_named_colour(self, rgb):
        h, s, v = colorsys.rgb_to_hsv(*(c / 255.0 for c in rgb))
        expected = np.rint([h * 360.0 / 2.0, s * 255.0, v * 255.0])
        expected[0] = min(expected[0], 179)
        hsv = rgb_to_hsv(np.array([[rgb]], dtype=np.uint8))[0, 0]
        np.testing.assert_array_equal(hsv, expected)


class TestSplitMerge:
    def test_split_merge_round_trip(self, rgb_image):
        planes = channel_planes(rgb_image)
        assert len(planes) == 3
        np.testing.assert_array_equal(np.moveaxis(planes, 0, -1).astype(np.uint8), rgb_image)

    def test_split_returns_contiguous(self, rgb_image):
        for plane in channel_planes(rgb_image):
            assert plane.flags["C_CONTIGUOUS"]
