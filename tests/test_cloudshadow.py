"""Tests for repro.cloudshadow: the veil estimate, its inversion and the batch call."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from helpers import autolabel_tile
from reference_kernels import reference_estimate, reference_remove, rgb_views

from repro.classes import SeaIceClass
from repro.cloudshadow import CloudShadowFilter, removal
from repro.data import build_dataset
from repro.data.radiometry import CLASS_RGB_PROTOTYPES, CLOUD_CONTAMINANT_RGB, SHADOW_CONTAMINANT_RGB
from repro.imops import channel_planes
from repro.labeling import ColorSegmentationLabeler, autolabel_batch
from repro.metrics import accuracy_score, ssim


def estimate(cloud_filter, rgb):
    """``(cloud_alpha, shadow_alpha)`` the filter inverts for ``rgb``."""
    return cloud_filter._estimate(channel_planes(np.asarray(rgb)))


def assert_same_estimate(got, want):
    for name, a, b in zip(("cloud_alpha", "shadow_alpha"), got, want):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        np.testing.assert_array_equal(a, b, err_msg=name)


class TestRemoval:
    def test_clean_scene_nearly_unchanged(self, clear_scene):
        out = CloudShadowFilter().filter_image(clear_scene.rgb)
        assert np.abs(out.astype(int) - clear_scene.rgb.astype(int)).mean() < 8

    def test_filter_recovers_clean_radiometry(self, cloudy_scene):
        filtered = CloudShadowFilter().filter_image(cloudy_scene.rgb)
        err_before = np.abs(cloudy_scene.rgb.astype(int) - cloudy_scene.clean_rgb.astype(int)).mean()
        err_after = np.abs(filtered.astype(int) - cloudy_scene.clean_rgb.astype(int)).mean()
        # The veil error must drop substantially (thick ice under thin cloud is
        # radiometrically ambiguous, so perfect restoration is not expected).
        assert err_after < err_before * 0.6

    def test_filter_improves_ssim(self, cloudy_scene):
        filtered = CloudShadowFilter().filter_image(cloudy_scene.rgb)
        assert ssim(filtered, cloudy_scene.clean_rgb) > ssim(cloudy_scene.rgb, cloudy_scene.clean_rgb)

    @pytest.mark.parametrize("opacity", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7])
    @pytest.mark.parametrize("contaminant", ["cloud", "shadow"])
    @pytest.mark.parametrize("surface", list(SeaIceClass), ids=lambda cls: cls.name.lower())
    def test_inverts_a_uniform_veil_over_each_surface(self, surface, contaminant, opacity):
        """A surface prototype mixed with a contaminant at any opacity up to ``max_alpha`` (the model the filter
        inverts) comes back as the surface, and labels as its class.  Rounding the veiled colour to 8 bits moves
        it by up to 0.5 DN, which the inversion scales by 1 / (1 - opacity) <= 3.3: 2 DN after rounding."""
        surface_rgb = np.array(CLASS_RGB_PROTOTYPES[surface])
        veil_rgb = np.array(CLOUD_CONTAMINANT_RGB if contaminant == "cloud" else SHADOW_CONTAMINANT_RGB)
        tile = np.full((16, 16, 3), np.round((1 - opacity) * surface_rgb + opacity * veil_rgb), dtype=np.uint8)
        assert np.abs(CloudShadowFilter().filter_image(tile) - surface_rgb).max() <= 2
        assert (autolabel_tile(tile) == int(surface)).all()

    @pytest.mark.parametrize("shape", [(1, 1), (7, 5), (32, 32)])
    @pytest.mark.parametrize("surface", list(SeaIceClass), ids=lambda cls: cls.name.lower())
    def test_leaves_a_clean_surface_as_it_is(self, surface, shape):
        tile = np.full(shape + (3,), CLASS_RGB_PROTOTYPES[surface], dtype=np.uint8)
        np.testing.assert_array_equal(CloudShadowFilter().filter_image(tile), tile)

    def test_estimate_finds_veil_where_it_is(self, cloudy_scene):
        cloud_alpha, _ = estimate(CloudShadowFilter(), cloudy_scene.rgb)
        true_cloud = cloudy_scene.veil.cloud_alpha
        # Estimated opacity should be much larger inside the true cloud bank.
        inside = cloud_alpha[true_cloud > 0.3]
        outside = cloud_alpha[true_cloud < 0.02]
        if inside.size and outside.size:
            assert inside.mean() > outside.mean() + 0.1

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            CloudShadowFilter().filter_image(np.zeros((4, 4)))

    @pytest.mark.parametrize("ksize", [3, 7])
    def test_runs_with_other_odd_kernels_and_no_opacity_floor(self, monkeypatch, ksize):
        monkeypatch.setattr(removal, "SMOOTH_KSIZE", ksize)
        monkeypatch.setattr(removal, "SCORE_SMOOTH_KSIZE", ksize)
        monkeypatch.setattr(removal, "MIN_ALPHA", 0.0)
        assert estimate(CloudShadowFilter(), np.zeros((4, 4, 3), dtype=np.uint8))[0].dtype == np.float32


class TestPlanarKernelMatchesBroadcastOracle:
    """The planar kernel against the (H, W, K, M, 3) formulation it replaced: equal, not close."""

    @pytest.mark.parametrize("scene", ["clear_scene", "cloudy_scene"])
    def test_scenes(self, scene, request):
        rgb = request.getfixturevalue(scene).rgb
        cloud_filter = CloudShadowFilter()
        got = estimate(cloud_filter, rgb)
        assert_same_estimate(got, reference_estimate(cloud_filter, rgb))
        np.testing.assert_array_equal(cloud_filter.filter_image(rgb), reference_remove(cloud_filter, rgb, got))
        assert got[0].any() or scene == "clear_scene"

    @settings(max_examples=60, deadline=None)
    @given(
        rgb=rgb_views(),
        # a small palette, so that duplicate prototypes (tied hypotheses) are drawn often
        prototypes=st.lists(st.tuples(*[st.sampled_from([0.0, 2.0, 124.0, 126.5, 238.0, 255.0])] * 3), min_size=1, max_size=4),
        smooth=st.sampled_from([3, 5, 11]),
        score_smooth=st.sampled_from([3, 5, 11]),
        band_rows=st.integers(1, 3),
    )
    def test_any_shape_layout_and_calibration(self, rgb, prototypes, smooth, score_smooth, band_rows):
        """``band_rows`` sets the hypothesis loop's band height, so most images run as several bands, often with a
        short last one."""
        calibration = dict(SURFACE_PROTOTYPES=np.array(prototypes), SMOOTH_KSIZE=smooth, SCORE_SMOOTH_KSIZE=score_smooth)
        with mock.patch.multiple(removal, _BAND_PIXELS=band_rows * rgb.shape[1], **calibration):
            cloud_filter = CloudShadowFilter()
            assert_same_estimate(estimate(cloud_filter, rgb), reference_estimate(cloud_filter, rgb))
            filtered = cloud_filter.filter_image(rgb)
            np.testing.assert_array_equal(filtered, reference_remove(cloud_filter, rgb))
        assert filtered.dtype == np.uint8 and filtered.flags.c_contiguous

    @settings(max_examples=20, deadline=None)
    @given(rgb=hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 12), st.just(3)),
                          elements=st.integers(0, 255 * 8).map(lambda eighths: eighths / 8)))
    def test_float_input(self, rgb):
        cloud_filter = CloudShadowFilter()
        assert_same_estimate(estimate(cloud_filter, rgb), reference_estimate(cloud_filter, rgb))
        np.testing.assert_array_equal(cloud_filter.filter_image(rgb), reference_remove(cloud_filter, rgb))

    def test_inexact_products_agree_to_the_last_bit_or_two(self, cloudy_scene, monkeypatch):
        """Equality above rests on every product of the projection being exact (8-bit pixels, colours
        on a binary grid).  Off that grid the oracle is itself host-dependent -- ``einsum`` fuses the
        multiply-adds where the CPU can -- and the kernel, which rounds each product, stays within ulps."""
        monkeypatch.setattr(removal, "SURFACE_PROTOTYPES", np.array([[238.3, 242.1, 248.7], [126.37, 124.2, 120.9], [2.1, 13.3, 22.7]]))
        cloud_filter = CloudShadowFilter()
        got, want = estimate(cloud_filter, cloudy_scene.rgb), reference_estimate(cloud_filter, cloudy_scene.rgb)
        ulps = 4 * np.finfo(np.float32).eps
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=0, atol=ulps)
        np.testing.assert_array_equal(cloud_filter.filter_image(cloudy_scene.rgb), reference_remove(cloud_filter, cloudy_scene.rgb, want))

    @pytest.mark.parametrize("scene", ["clear_scene", "cloudy_scene"])
    @pytest.mark.parametrize("flip", [(0,), (1,), (0, 1)], ids=["rows", "columns", "both"])
    def test_mirrored_input_gives_mirrored_output(self, scene, flip, request):
        """Every pass is per pixel or a blur with a symmetric kernel and mirrored borders, whose paired taps
        ``x[i - j] + x[i + j]`` add the same two values either way round: no bit depends on orientation."""
        rgb = request.getfixturevalue(scene).rgb
        cloud_filter = CloudShadowFilter()
        np.testing.assert_array_equal(cloud_filter.filter_image(np.flip(rgb, flip)), np.flip(cloud_filter.filter_image(rgb), flip))

    def test_one_filter_shared_by_threads(self, cloudy_scene, clear_scene):
        """Scratch is per call: concurrent estimates on one filter do not see each other's planes."""
        from concurrent.futures import ThreadPoolExecutor

        cloud_filter = CloudShadowFilter()
        images = [cloudy_scene.rgb, clear_scene.rgb, cloudy_scene.rgb[::-1], clear_scene.rgb[:, ::-1]] * 4
        expected = [cloud_filter.filter_image(img) for img in images[:4]] * 4
        with ThreadPoolExecutor(max_workers=4) as pool:
            for got, want in zip(pool.map(cloud_filter.filter_image, images), expected):
                np.testing.assert_array_equal(got, want)


class TestFloat32AgreesWithTheFloat64Filter:
    """The float32 filter against the broadcast oracle run in float64, which is the filter as it was
    before it went float32: class maps equal; filtered pixel-channels that sit on a rounding boundary
    may move by 1 DN, on a share no larger than 1e-5."""

    @staticmethod
    def moved_pixel_channels(images) -> int:
        cloud_filter = CloudShadowFilter()
        moved = 0
        for rgb in images:
            filtered = reference_remove(cloud_filter, rgb, dtype=np.float64)
            np.testing.assert_array_equal(autolabel_tile(rgb), autolabel_tile(filtered, apply_cloud_filter=False))
            delta = np.abs(cloud_filter.filter_image(rgb).astype(np.int16) - filtered)
            assert delta.max() <= 1
            moved += int(np.count_nonzero(delta))
        return moved

    def test_shared_scenes_and_tiles(self, clear_scene, cloudy_scene, tiny_dataset):
        self.moved_pixel_channels([clear_scene.rgb, cloudy_scene.rgb, *tiny_dataset.images])

    @pytest.mark.parametrize("seed", [7, 23])
    def test_bench_shaped_datasets(self, seed):
        """The tiles the auto-label benchmark labels at these seeds: 24 of 256 x 256, half the scenes cloudy."""
        images = build_dataset(num_scenes=6, scene_size=512, tile_size=256, base_seed=seed, cloudy_fraction=0.5).images
        moved = self.moved_pixel_channels(images)
        print(f"seed {seed}: {moved} of {images.size:,} filtered pixel-channels moved by 1 DN")
        assert moved <= 1e-5 * images.size


#: The batch calls over a ``(N, H, W, 3)`` stack, and the channel axis of what they return.
BATCH_CALLS = [(CloudShadowFilter().apply_batch, (3,)),
               (ColorSegmentationLabeler(apply_cloud_filter=True).label_batch, ()),
               (autolabel_batch, ())]
BATCH_IDS = ["filter", "labeler", "autolabel_batch"]


class TestFilterPipeline:
    def test_apply_batch_shape(self, tiny_dataset):
        out = CloudShadowFilter().apply_batch(tiny_dataset.images)
        assert out.shape == tiny_dataset.images.shape
        assert out.dtype == np.uint8

    def test_apply_batch_rejects_bad_shape(self, tiny_dataset):
        with pytest.raises(ValueError):
            CloudShadowFilter().apply_batch(tiny_dataset.labels)

    @pytest.mark.parametrize("tile", [(1, 1), (8, 6), (32, 32)])
    @pytest.mark.parametrize("batch_call, channels", BATCH_CALLS, ids=BATCH_IDS)
    def test_an_empty_stack_gives_an_empty_stack(self, batch_call, channels, tile):
        """``np.stack`` of no tiles raised; an empty stack is what ``predict_tile_probabilities`` returns too."""
        out = batch_call(np.zeros((0, *tile, 3), dtype=np.uint8))
        assert out.shape == (0, *tile, *channels) and out.dtype == np.uint8

    @pytest.mark.parametrize("shape", [(8, 6, 3), (2, 8, 6), (2, 8, 6, 4), (0, 8, 6)])
    @pytest.mark.parametrize("batch_call, channels", BATCH_CALLS, ids=BATCH_IDS)
    def test_batch_calls_reject_what_is_not_a_tile_stack(self, batch_call, channels, shape):
        with pytest.raises(ValueError, match="tile stack"):
            batch_call(np.zeros(shape, dtype=np.uint8))

    def test_filtering_improves_autolabel_accuracy(self, cloudy_scene):
        """The central claim of the paper's filter: labels on filtered imagery are better."""
        raw_labels = ColorSegmentationLabeler(apply_cloud_filter=False)(cloudy_scene.rgb)
        filtered_labels = ColorSegmentationLabeler(apply_cloud_filter=True)(cloudy_scene.rgb)
        raw_acc = accuracy_score(cloudy_scene.class_map, raw_labels)
        filtered_acc = accuracy_score(cloudy_scene.class_map, filtered_labels)
        assert filtered_acc > raw_acc
