"""Tests for repro.data.clouds (cloud / shadow opacity fields)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import generate_cloud_field, generate_cloud_shadow_pair


class TestCloudField:
    def test_range_and_shape(self):
        field = generate_cloud_field((64, 64), coverage=0.3, max_opacity=0.5, rng=np.random.default_rng(0))
        assert field.shape == (64, 64)
        assert field.min() >= 0.0 and field.max() <= 0.5 + 1e-12

    def test_zero_coverage_is_empty(self):
        field = generate_cloud_field((32, 32), coverage=0.0)
        assert not field.any()

    def test_coverage_roughly_matches(self):
        field = generate_cloud_field((128, 128), coverage=0.4, rng=np.random.default_rng(1))
        assert abs((field > 0).mean() - 0.4) < 0.08

    def test_field_is_smooth(self):
        field = generate_cloud_field((64, 64), coverage=0.5, max_opacity=0.5, rng=np.random.default_rng(2))
        gradient = np.abs(np.diff(field, axis=0)).max()
        # No hard edges in a thin-cloud veil: a step of the full opacity in one
        # pixel would be 0.5; real ramps stay well below that.
        assert gradient < 0.35

    def test_rejects_bad_coverage(self):
        with pytest.raises(ValueError):
            generate_cloud_field((8, 8), coverage=1.2)

    def test_rejects_bad_opacity(self):
        with pytest.raises(ValueError):
            generate_cloud_field((8, 8), coverage=0.3, max_opacity=0.99)


class TestCloudShadowPair:
    def test_shapes_and_masks(self):
        veil = generate_cloud_shadow_pair((64, 64), cloud_coverage=0.3, rng=np.random.default_rng(0))
        assert veil.cloud_alpha.shape == (64, 64)
        assert veil.shadow_alpha.shape == (64, 64)
        assert veil.cloud_mask.dtype == bool
        assert 0.0 <= veil.affected_fraction <= 1.0

    def test_cloud_free_scene(self):
        veil = generate_cloud_shadow_pair((32, 32), cloud_coverage=0.0, rng=np.random.default_rng(0))
        assert veil.affected_fraction == 0.0

    def test_shadow_is_offset_copy_of_cloud(self):
        rng = np.random.default_rng(3)
        veil = generate_cloud_shadow_pair((96, 96), cloud_coverage=0.25, rng=rng)
        # The shadow bank exists and is not identical in place to the cloud bank.
        assert veil.shadow_mask.any()
        overlap = (veil.cloud_mask & veil.shadow_mask).sum()
        assert overlap < veil.cloud_mask.sum()

    def test_shadow_attenuated_under_cloud(self):
        # Every shadow pixel under the cloud must be attenuated to at most
        # 30% of the requested peak opacity (plus smoothing slack).
        rng = np.random.default_rng(5)
        veil = generate_cloud_shadow_pair((96, 96), cloud_coverage=0.4, shadow_max_opacity=0.5, rng=rng)
        under_cloud = veil.shadow_alpha[veil.cloud_alpha > 0.05]
        if under_cloud.size:
            assert under_cloud.max() <= 0.3 * 0.5 + 0.05

    def test_affected_fraction_grows_with_coverage(self):
        small = generate_cloud_shadow_pair((64, 64), cloud_coverage=0.1, rng=np.random.default_rng(6))
        large = generate_cloud_shadow_pair((64, 64), cloud_coverage=0.5, rng=np.random.default_rng(6))
        assert large.affected_fraction > small.affected_fraction
