"""Tests for repro.data.noise (spectral / fractal noise fields)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import fractal_noise, spectral_noise


class TestSpectralNoise:
    def test_range_and_shape(self):
        field = spectral_noise((32, 48), beta=2.0, rng=np.random.default_rng(0))
        assert field.shape == (32, 48)
        assert field.min() >= 0.0 and field.max() <= 1.0

    def test_deterministic_given_rng_seed(self):
        a = spectral_noise((16, 16), rng=np.random.default_rng(5))
        b = spectral_noise((16, 16), rng=np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = spectral_noise((16, 16), rng=np.random.default_rng(1))
        b = spectral_noise((16, 16), rng=np.random.default_rng(2))
        assert not np.allclose(a, b)

    def test_higher_beta_is_smoother(self):
        rng1, rng2 = np.random.default_rng(3), np.random.default_rng(3)
        rough = spectral_noise((64, 64), beta=0.5, rng=rng1)
        smooth = spectral_noise((64, 64), beta=4.0, rng=rng2)
        rough_grad = np.abs(np.diff(rough, axis=0)).mean()
        smooth_grad = np.abs(np.diff(smooth, axis=0)).mean()
        assert smooth_grad < rough_grad

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            spectral_noise((0, 10))


class TestFractalNoise:
    def test_range(self):
        field = fractal_noise((32, 32), rng=np.random.default_rng(0))
        assert 0.0 <= field.min() and field.max() <= 1.0

    def test_octaves_must_be_positive(self):
        with pytest.raises(ValueError):
            fractal_noise((8, 8), octaves=0)

    def test_single_octave_equals_spectral_structure(self):
        field = fractal_noise((16, 16), octaves=1, rng=np.random.default_rng(0))
        assert field.shape == (16, 16)
