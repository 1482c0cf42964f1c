"""Tests for repro.cloudshadow (detection, removal, pipeline)."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from reference_kernels import reference_brightness_deviation, reference_estimate, reference_remove, rgb_views

from repro.cloudshadow import CloudShadowFilter, ThinCloudShadowRemover, detect_cloud_shadow
from repro.cloudshadow.detection import _brightness_deviation
from repro.data import build_dataset
from repro.labeling import autolabel_tile
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

    @pytest.mark.parametrize("min_alpha, max_alpha", [(0.9, 0.75), (0.75, 0.75), (-0.01, 0.75)])
    def test_rejects_an_opacity_floor_outside_the_ceiling(self, min_alpha, max_alpha):
        """A floor at or above ``max_alpha`` zeroed every veil: the filter silently did nothing."""
        with pytest.raises(ValueError, match="min_alpha"):
            ThinCloudShadowRemover(min_alpha=min_alpha, max_alpha=max_alpha)

    @pytest.mark.parametrize("name", ["smooth_ksize", "score_smooth_ksize"])
    @pytest.mark.parametrize("ksize", [4, -3, 1, 2, 5.0])
    def test_rejects_a_kernel_that_is_not_off_or_odd(self, name, ksize):
        """Even sizes failed only at the first estimate, and negative ones silently disabled smoothing."""
        with pytest.raises(ValueError, match=name):
            ThinCloudShadowRemover(**{name: ksize})

    @pytest.mark.parametrize("ksize", [0, 3, 7, np.int64(5)])
    def test_accepts_the_edges_of_each_range(self, ksize):
        remover = ThinCloudShadowRemover(smooth_ksize=ksize, score_smooth_ksize=ksize, min_alpha=0.0)
        assert remover.estimate(np.zeros((4, 4, 3), dtype=np.uint8)).cloud_alpha.dtype == np.float32

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
        ulps = 4 * np.finfo(np.float32).eps
        np.testing.assert_allclose(got.cloud_alpha, want.cloud_alpha, rtol=0, atol=ulps)
        np.testing.assert_allclose(got.shadow_alpha, want.shadow_alpha, rtol=0, atol=ulps)
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


class TestFloat32AgreesWithTheFloat64Filter:
    """The float32 filter against the broadcast oracle run in float64, which is the filter as it was
    before it went float32: class maps and detection masks equal; filtered pixel-channels that sit on a
    rounding boundary may move by 1 DN, on a share no larger than 1e-5."""

    @staticmethod
    def moved_pixel_channels(images) -> int:
        remover = ThinCloudShadowRemover()
        moved = 0
        for rgb in images:
            wide = reference_estimate(remover, rgb, np.float64)
            filtered = reference_remove(remover, rgb, wide, np.float64)
            np.testing.assert_array_equal(autolabel_tile(rgb), autolabel_tile(filtered, apply_cloud_filter=False))
            narrow = remover.estimate(rgb)
            got, want = detect_cloud_shadow(rgb, estimate=narrow), detect_cloud_shadow(rgb, estimate=wide)
            np.testing.assert_array_equal(got.cloud, want.cloud)
            np.testing.assert_array_equal(got.shadow, want.shadow)
            delta = np.abs(remover.remove(rgb, narrow).astype(np.int16) - filtered)
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

    def test_filtering_improves_autolabel_accuracy(self, cloudy_scene):
        """The central claim of the paper's filter: labels on filtered imagery are better."""
        from repro.labeling import ColorSegmentationLabeler

        raw_labels = ColorSegmentationLabeler(apply_cloud_filter=False)(cloudy_scene.rgb)
        filtered_labels = ColorSegmentationLabeler(apply_cloud_filter=True)(cloudy_scene.rgb)
        raw_acc = accuracy_score(cloudy_scene.class_map, raw_labels)
        filtered_acc = accuracy_score(cloudy_scene.class_map, filtered_labels)
        assert filtered_acc > raw_acc
