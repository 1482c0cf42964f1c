"""Tests for repro.imops.filters."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from reference_kernels import reference_gaussian_blur

from repro.imops import gaussian_blur, gaussian_kernel1d

# Odd kernels from 3 to 63 taps, and 2-D or 3-channel shapes with sides from 1 (smaller than any of them) to 40.
KSIZES = st.integers(1, 31).map(lambda r: 2 * r + 1)
SHAPES = st.tuples(st.integers(1, 40), st.integers(1, 40)) | st.tuples(st.integers(1, 40), st.integers(1, 40), st.just(3))


class TestGaussianKernel:
    def test_normalised(self):
        k = gaussian_kernel1d(7, 1.5)
        assert k.shape == (7,)
        assert np.isclose(k.sum(), 1.0)

    def test_symmetric_and_peaked_at_center(self):
        k = gaussian_kernel1d(9, 2.0)
        np.testing.assert_allclose(k, k[::-1])
        assert np.argmax(k) == 4

    def test_default_sigma_heuristic(self):
        assert np.isclose(gaussian_kernel1d(5).sum(), 1.0)

    def test_rejects_even_ksize(self):
        with pytest.raises(ValueError):
            gaussian_kernel1d(4)

    @pytest.mark.parametrize("ksize", [1, 3, 5, 7, 9, 11])
    def test_default_sigma_is_the_opencv_heuristic(self, ksize):
        """``sigma=None`` is ``0.3 * ((ksize - 1) / 2 - 1) + 0.8``: a normalised, symmetric
        kernel falling off strictly from its centre tap."""
        k = gaussian_kernel1d(ksize)
        sigma = 0.3 * ((ksize - 1) * 0.5 - 1) + 0.8
        x = np.arange(ksize) - (ksize - 1) / 2
        np.testing.assert_allclose(k, np.exp(-x**2 / (2 * sigma**2)) / np.exp(-x**2 / (2 * sigma**2)).sum())
        np.testing.assert_array_equal(k, k[::-1])
        assert np.isclose(k.sum(), 1.0)
        assert np.all(np.diff(k[ksize // 2:]) < 0)


class TestGaussianBlur:
    def test_preserves_constant_image(self):
        img = np.full((20, 20), 99, dtype=np.uint8)
        np.testing.assert_array_equal(gaussian_blur(img, 5), img)

    def test_reduces_variance(self, gray_image):
        out = gaussian_blur(gray_image, 7)
        assert out.astype(float).var() < gray_image.astype(float).var()

    def test_preserves_mean_approximately(self, gray_image):
        out = gaussian_blur(gray_image.astype(np.float64), 5)
        assert abs(out.mean() - gray_image.mean()) < 2.0

    def test_multichannel(self, rgb_image):
        out = gaussian_blur(rgb_image, 5)
        assert out.shape == rgb_image.shape
        assert out.dtype == np.uint8

    def test_rejects_even_kernel(self, gray_image):
        with pytest.raises(ValueError):
            gaussian_blur(gray_image, 6)

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.uint16])
    def test_preserves_integer_dtypes(self, dtype):
        """Non-uint8 integer inputs must not silently come back as float64."""
        rng = np.random.default_rng(0)
        img = rng.integers(0, 1000, size=(16, 16)).astype(dtype)
        out = gaussian_blur(img, 5)
        assert out.dtype == dtype
        assert abs(out.astype(float).mean() - img.astype(float).mean()) < 10.0

    def test_integer_constant_image_unchanged(self):
        img = np.full((12, 12), -321, dtype=np.int16)
        np.testing.assert_array_equal(gaussian_blur(img, 5), img)


def _assert_float32_within_its_rounding(img: np.ndarray, ksize: int) -> None:
    out = gaussian_blur(img, ksize)
    assert out.dtype == np.float32
    # Each pass is a positive-weight sum of 2r + 1 = ksize values in under 3r + 2 roundings,
    # each by at most eps / 2 of the largest magnitude or one subnormal spacing, whichever is
    # larger; the float32 weights add one more.  The bound is computed in float64: in float32
    # it underflows to 0 for subnormal inputs.
    f32 = np.finfo(np.float32)
    bound = 2 * ksize * (float(f32.eps) * float(np.abs(img).max()) + float(f32.smallest_subnormal))
    np.testing.assert_allclose(out, gaussian_blur(img.astype(np.float64), ksize), rtol=0, atol=bound)


class TestGaussianBlurMatchesCorrelate1d:
    """The numpy recurrence against ``scipy.ndimage.correlate1d``, the implementation it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), ksize=KSIZES, shape=SHAPES)
    def test_float64_is_bit_identical(self, data, ksize, shape):
        img = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(-1e4, 1e4)))
        out = gaussian_blur(img, ksize)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, reference_gaussian_blur(img, ksize))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), ksize=KSIZES, shape=SHAPES)
    def test_uint8_is_bit_identical(self, data, ksize, shape):
        img = data.draw(hnp.arrays(np.uint8, shape))
        out = gaussian_blur(img, ksize)
        assert out.dtype == np.uint8
        np.testing.assert_array_equal(out, reference_gaussian_blur(img, ksize))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), ksize=KSIZES, shape=SHAPES)
    def test_float32_stays_float32_within_its_rounding(self, data, ksize, shape):
        _assert_float32_within_its_rounding(
            data.draw(hnp.arrays(np.float32, shape, elements=st.floats(-1e4, 1e4, width=32))), ksize)

    def test_float32_bound_holds_among_subnormals(self):
        """Near zero the rounding error is one subnormal spacing, not a fraction of the magnitude."""
        _assert_float32_within_its_rounding(np.array([[1e-45, 0]], dtype=np.float32), 3)
