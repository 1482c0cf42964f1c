"""Tests for repro.cloudshadow (detection, removal, pipeline)."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from reference_kernels import reference_brightness_deviation, reference_estimate, reference_remove, rgb_views

from repro.cloudshadow import (
    CloudShadowFilter,
    ThinCloudShadowRemover,
    detect_cloud_shadow,
    filter_tiles,
)
from repro.cloudshadow.detection import _brightness_deviation
from repro.metrics import accuracy_score, ssim


def assert_same_estimate(got, want):
    for name in ("cloud_alpha", "shadow_alpha", "surface_class"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        np.testing.assert_array_equal(a, b, err_msg=name)


class TestDetection:
    def test_clear_scene_low_coverage(self, clear_scene):
        masks = detect_cloud_shadow(clear_scene.rgb)
        assert masks.coverage < 0.05

    def test_cloudy_scene_detected(self, cloudy_scene):
        masks = detect_cloud_shadow(cloudy_scene.rgb)
        assert masks.coverage > 0.10

    def test_detected_coverage_correlates_with_truth(self, clear_scene, cloudy_scene):
        assert detect_cloud_shadow(cloudy_scene.rgb).coverage > detect_cloud_shadow(clear_scene.rgb).coverage

    def test_masks_are_bit_identical_to_the_pinned_digest(self, clear_scene, cloudy_scene, tiny_dataset):
        """Cloud and shadow masks of the shared scenes and tiles, pinned before ``otsu_threshold``
        came to return its level alone and the morphology lost its unused options."""
        digest = hashlib.sha256()
        for rgb in [clear_scene.rgb, cloudy_scene.rgb, *tiny_dataset.images]:
            masks = detect_cloud_shadow(rgb)
            digest.update(masks.cloud.tobytes())
            digest.update(masks.shadow.tobytes())
        assert digest.hexdigest() == "3128f5857f322fa975449c281f970afd361f67f33daf74e54b3c91fe06d0984c"

    def test_masks_are_boolean_and_shaped(self, cloudy_scene):
        masks = detect_cloud_shadow(cloudy_scene.rgb)
        assert masks.cloud.dtype == bool and masks.shadow.dtype == bool
        assert masks.cloud.shape == cloudy_scene.rgb.shape[:2]
        np.testing.assert_array_equal(masks.affected, masks.cloud | masks.shadow)

    def test_rejects_gray_input(self, gray_image):
        with pytest.raises(ValueError):
            detect_cloud_shadow(gray_image)

    def test_detected_clouds_overlap_true_clouds(self, cloudy_scene):
        masks = detect_cloud_shadow(cloudy_scene.rgb)
        true_cloud = cloudy_scene.veil.cloud_alpha > 0.15
        if masks.cloud.any() and true_cloud.any():
            overlap = (masks.cloud & true_cloud).sum() / masks.cloud.sum()
            assert overlap > 0.4


class TestRemoval:
    def test_clean_scene_nearly_unchanged(self, clear_scene):
        remover = ThinCloudShadowRemover()
        out = remover.remove(clear_scene.rgb)
        assert np.abs(out.astype(int) - clear_scene.rgb.astype(int)).mean() < 8

    def test_filter_recovers_clean_radiometry(self, cloudy_scene):
        remover = ThinCloudShadowRemover()
        filtered = remover.remove(cloudy_scene.rgb)
        err_before = np.abs(cloudy_scene.rgb.astype(int) - cloudy_scene.clean_rgb.astype(int)).mean()
        err_after = np.abs(filtered.astype(int) - cloudy_scene.clean_rgb.astype(int)).mean()
        # The veil error must drop substantially (thick ice under thin cloud is
        # radiometrically ambiguous, so perfect restoration is not expected).
        assert err_after < err_before * 0.6

    def test_filter_improves_ssim(self, cloudy_scene):
        remover = ThinCloudShadowRemover()
        filtered = remover.remove(cloudy_scene.rgb)
        assert ssim(filtered, cloudy_scene.clean_rgb) > ssim(cloudy_scene.rgb, cloudy_scene.clean_rgb)

    def test_estimate_finds_veil_where_it_is(self, cloudy_scene):
        est = ThinCloudShadowRemover().estimate(cloudy_scene.rgb)
        true_cloud = cloudy_scene.veil.cloud_alpha
        # Estimated opacity should be much larger inside the true cloud bank.
        inside = est.cloud_alpha[true_cloud > 0.3]
        outside = est.cloud_alpha[true_cloud < 0.02]
        if inside.size and outside.size:
            assert inside.mean() > outside.mean() + 0.1

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            ThinCloudShadowRemover().estimate(np.zeros((4, 4)))

    def test_rejects_bad_prototypes(self):
        with pytest.raises(ValueError):
            ThinCloudShadowRemover(surface_prototypes=np.zeros((3, 2)))

    def test_callable_alias(self, cloudy_scene):
        remover = ThinCloudShadowRemover()
        np.testing.assert_array_equal(remover(cloudy_scene.rgb), remover.remove(cloudy_scene.rgb))


class TestPlanarKernelMatchesBroadcastOracle:
    """The planar kernel against the (H, W, K, M, 3) formulation it replaced: equal, not close."""

    @pytest.mark.parametrize("scene", ["clear_scene", "cloudy_scene"])
    def test_scenes(self, scene, request):
        rgb = request.getfixturevalue(scene).rgb
        remover = ThinCloudShadowRemover()
        estimate = remover.estimate(rgb)
        assert_same_estimate(estimate, reference_estimate(remover, rgb))
        np.testing.assert_array_equal(remover.remove(rgb, estimate), reference_remove(remover, rgb, estimate))
        assert estimate.cloud_alpha.any() or scene == "clear_scene"

    @settings(max_examples=60, deadline=None)
    @given(
        rgb=rgb_views(),
        # a small palette, so that duplicate prototypes (tied hypotheses) are drawn often
        prototypes=st.lists(st.tuples(*[st.sampled_from([0.0, 2.0, 124.0, 126.5, 238.0, 255.0])] * 3), min_size=1, max_size=4),
        smooth=st.sampled_from([0, 3, 5, 11]),
        score_smooth=st.sampled_from([0, 3, 5, 11]),
    )
    def test_any_shape_layout_and_calibration(self, rgb, prototypes, smooth, score_smooth):
        remover = ThinCloudShadowRemover(surface_prototypes=np.array(prototypes), smooth_ksize=smooth, score_smooth_ksize=score_smooth)
        estimate = remover.estimate(rgb)
        assert_same_estimate(estimate, reference_estimate(remover, rgb))
        filtered = remover.remove(rgb)
        assert filtered.dtype == np.uint8 and filtered.flags.c_contiguous
        np.testing.assert_array_equal(filtered, reference_remove(remover, rgb))

    @settings(max_examples=20, deadline=None)
    @given(rgb=hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 12), st.just(3)),
                          elements=st.integers(0, 255 * 8).map(lambda eighths: eighths / 8)))
    def test_float_input(self, rgb):
        remover = ThinCloudShadowRemover()
        assert_same_estimate(remover.estimate(rgb), reference_estimate(remover, rgb))
        np.testing.assert_array_equal(remover.remove(rgb), reference_remove(remover, rgb))

    def test_inexact_products_agree_to_the_last_bit_or_two(self, cloudy_scene):
        """Equality above rests on every product of the projection being exact (8-bit pixels, colours
        on a binary grid).  Off that grid the oracle is itself host-dependent -- ``einsum`` fuses the
        multiply-adds where the CPU can -- and the kernel, which rounds each product, stays within ulps."""
        remover = ThinCloudShadowRemover(surface_prototypes=np.array([[238.3, 242.1, 248.7], [126.37, 124.2, 120.9], [2.1, 13.3, 22.7]]))
        got, want = remover.estimate(cloudy_scene.rgb), reference_estimate(remover, cloudy_scene.rgb)
        np.testing.assert_array_equal(got.surface_class, want.surface_class)
        np.testing.assert_allclose(got.cloud_alpha, want.cloud_alpha, rtol=0, atol=1e-15)
        np.testing.assert_allclose(got.shadow_alpha, want.shadow_alpha, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(remover.remove(cloudy_scene.rgb, got), reference_remove(remover, cloudy_scene.rgb, want))

    def test_one_remover_shared_by_threads(self, cloudy_scene, clear_scene):
        """Scratch is per call: concurrent estimates on one remover do not see each other's planes."""
        from concurrent.futures import ThreadPoolExecutor

        remover = ThinCloudShadowRemover()
        images = [cloudy_scene.rgb, clear_scene.rgb, cloudy_scene.rgb[::-1], clear_scene.rgb[:, ::-1]] * 4
        expected = [remover.remove(img) for img in images[:4]] * 4
        with ThreadPoolExecutor(max_workers=4) as pool:
            for got, want in zip(pool.map(remover.remove, images), expected):
                np.testing.assert_array_equal(got, want)

    @settings(max_examples=25, deadline=None)
    @given(rgb=rgb_views(max_side=40), ksize=st.sampled_from([3, 11, 63]))
    def test_brightness_deviation_without_the_hsv_round_trip(self, rgb, ksize):
        np.testing.assert_array_equal(_brightness_deviation(rgb, ksize), reference_brightness_deviation(rgb, ksize))


class TestFilterPipeline:
    def test_detection_uses_the_filters_own_calibration_and_estimates_once(self, cloudy_scene, monkeypatch):
        # Prototypes that call everything bright "surface": the default calibration sees cloud here, this one must not.
        remover = ThinCloudShadowRemover(surface_prototypes=np.array([[255.0, 255.0, 255.0], [126.0, 124.0, 120.0], [2.0, 13.0, 22.0]]))
        calls = []
        original = ThinCloudShadowRemover.estimate
        monkeypatch.setattr(ThinCloudShadowRemover, "estimate", lambda self, rgb: calls.append(self) or original(self, rgb))

        result = CloudShadowFilter(remover=remover).apply(cloudy_scene.rgb)
        assert len(calls) == 1 and calls[0] is remover
        own = detect_cloud_shadow(cloudy_scene.rgb, estimate=result.veil)
        np.testing.assert_array_equal(result.masks.cloud, own.cloud)
        np.testing.assert_array_equal(result.masks.shadow, own.shadow)
        assert (detect_cloud_shadow(cloudy_scene.rgb).cloud != result.masks.cloud).any()  # what the default calibration sees

        calls.clear()
        assert CloudShadowFilter(remover=remover).coverage(cloudy_scene.rgb) == result.coverage
        assert len(calls) == 1 and calls[0] is remover

    def test_apply_returns_all_products(self, cloudy_scene):
        result = CloudShadowFilter().apply(cloudy_scene.rgb)
        assert result.filtered.shape == cloudy_scene.rgb.shape
        assert 0.0 <= result.coverage <= 1.0
        assert result.veil.cloud_alpha.shape == cloudy_scene.rgb.shape[:2]

    def test_apply_batch_shape(self, tiny_dataset):
        out = CloudShadowFilter().apply_batch(tiny_dataset.images)
        assert out.shape == tiny_dataset.images.shape
        assert out.dtype == np.uint8

    def test_apply_batch_rejects_bad_shape(self, tiny_dataset):
        with pytest.raises(ValueError):
            CloudShadowFilter().apply_batch(tiny_dataset.labels)

    def test_filter_tiles_helper(self, tiny_dataset):
        out = filter_tiles(tiny_dataset.images[:2])
        assert out.shape == tiny_dataset.images[:2].shape

    def test_filtering_improves_autolabel_accuracy(self, cloudy_scene):
        """The central claim of the paper's filter: labels on filtered imagery are better."""
        from repro.labeling import ColorSegmentationLabeler

        raw_labels = ColorSegmentationLabeler(apply_cloud_filter=False)(cloudy_scene.rgb)
        filtered_labels = ColorSegmentationLabeler(apply_cloud_filter=True)(cloudy_scene.rgb)
        raw_acc = accuracy_score(cloudy_scene.class_map, raw_labels)
        filtered_acc = accuracy_score(cloudy_scene.class_map, filtered_labels)
        assert filtered_acc > raw_acc
