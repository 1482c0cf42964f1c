"""Tests for repro.labeling (auto-labeling and simulated manual annotation)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from reference_kernels import reference_contains, reference_segment, rgb_views

from repro.classes import HSV_RANGES, NUM_CLASSES, HSVRange, SeaIceClass
from repro.data import SceneSpec, build_dataset, synthesize_scene
from repro.imops import hsv_planes
from repro.labeling import (
    ColorSegmentationLabeler,
    ManualLabelSimulator,
    autolabel_batch,
    autolabel_tile,
    simulate_manual_labels,
)
from repro.mapreduce.autolabel_job import run_mapreduce_autolabel
from repro.metrics import accuracy_score


class TestColorSegmentationLabeler:
    def test_clean_scene_matches_ground_truth(self, clear_scene):
        labeler = ColorSegmentationLabeler(apply_cloud_filter=False)
        labels = labeler(clear_scene.clean_rgb)
        assert accuracy_score(clear_scene.class_map, labels) > 0.98

    def test_every_pixel_gets_a_class(self, cloudy_scene):
        labels = ColorSegmentationLabeler(apply_cloud_filter=False)(cloudy_scene.rgb)
        assert labels.min() >= 0 and labels.max() < NUM_CLASSES

    def test_masks_are_disjoint(self, clear_scene):
        masks = ColorSegmentationLabeler().segment(clear_scene.clean_rgb).masks
        total = sum(m.astype(int) for m in masks.values())
        assert total.max() <= 1  # the paper's HSV ranges are non-intersecting

    def test_segment_returns_label_image_and_masks(self, clear_scene):
        result = ColorSegmentationLabeler().segment(clear_scene.clean_rgb)
        assert result.label_image.shape == clear_scene.clean_rgb.shape
        assert set(result.masks) == set(SeaIceClass)
        assert result.class_map.dtype == np.uint8

    def test_filtered_segmentation_returns_filtered_rgb(self, cloudy_scene):
        result = ColorSegmentationLabeler(apply_cloud_filter=True).segment(cloudy_scene.rgb)
        assert result.filtered_rgb is not None
        assert result.filtered_rgb.shape == cloudy_scene.rgb.shape

    def test_cloud_filter_improves_accuracy(self, cloudy_scene):
        raw = ColorSegmentationLabeler(apply_cloud_filter=False)(cloudy_scene.rgb)
        filt = ColorSegmentationLabeler(apply_cloud_filter=True)(cloudy_scene.rgb)
        assert accuracy_score(cloudy_scene.class_map, filt) >= accuracy_score(cloudy_scene.class_map, raw)

    def test_value_thresholds_drive_labels(self):
        """Pixels engineered to sit inside each V band get the matching class."""
        img = np.zeros((1, 3, 3), dtype=np.uint8)
        img[0, 0] = (230, 235, 240)  # V=240 -> thick
        img[0, 1] = (120, 120, 120)  # V=120 -> thin
        img[0, 2] = (5, 10, 20)  # V=20  -> water
        labels = ColorSegmentationLabeler(apply_cloud_filter=False)(img)
        assert labels[0, 0] == int(SeaIceClass.THICK_ICE)
        assert labels[0, 1] == int(SeaIceClass.THIN_ICE)
        assert labels[0, 2] == int(SeaIceClass.OPEN_WATER)

    def test_rejects_incomplete_ranges(self):
        with pytest.raises(ValueError):
            ColorSegmentationLabeler(hsv_ranges={SeaIceClass.THICK_ICE: HSV_RANGES[SeaIceClass.THICK_ICE]})

    def test_rejects_bad_input_shape(self):
        with pytest.raises(ValueError):
            ColorSegmentationLabeler()(np.zeros((4, 4), dtype=np.uint8))

    def test_batch_labeling_matches_per_tile(self, tiny_dataset):
        labeler = ColorSegmentationLabeler(apply_cloud_filter=False)
        batch = labeler.label_batch(tiny_dataset.images[:3])
        for i in range(3):
            np.testing.assert_array_equal(batch[i], labeler(tiny_dataset.images[i]))

    def test_module_level_helpers(self, tiny_dataset):
        single = autolabel_tile(tiny_dataset.images[0], apply_cloud_filter=False)
        assert single.shape == (32, 32)
        batch = autolabel_batch(tiny_dataset.images[:2], apply_cloud_filter=False)
        assert batch.shape == (2, 32, 32)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 255))
    def test_uniform_value_images_label_consistently(self, value):
        """A constant-V image must be labelled entirely as the band that V falls in."""
        img = np.full((8, 8, 3), value, dtype=np.uint8)
        labels = ColorSegmentationLabeler(apply_cloud_filter=False)(img)
        if value >= 205:
            expected = int(SeaIceClass.THICK_ICE)
        elif value >= 31:
            expected = int(SeaIceClass.THIN_ICE)
        else:
            expected = int(SeaIceClass.OPEN_WATER)
        assert np.all(labels == expected)


@st.composite
def value_bands(draw):
    """Three HSV ranges that may leave gaps (pixels for ``_nearest_class``) and may overlap (first class wins)."""
    ranges = {}
    for cls in SeaIceClass:
        lower = [draw(st.sampled_from([0, 0, 20, 90])), draw(st.sampled_from([0, 0, 40])), draw(st.integers(0, 255))]
        upper = [draw(st.sampled_from([185, 185, 100])), draw(st.sampled_from([255, 255, 200])), draw(st.integers(lower[2], 255))]
        ranges[cls] = HSVRange(lower=tuple(lower), upper=tuple(upper))
    return ranges


class TestPlanarLabelerMatchesOracle:
    """Class map, label image, masks and filtered tile against the bodies they replaced: equal, not close."""

    @staticmethod
    def assert_same_segmentation(labeler, rgb):
        result = labeler.segment(rgb)
        class_map, label_image, masks, filtered = reference_segment(labeler, rgb)
        np.testing.assert_array_equal(result.class_map, class_map)
        np.testing.assert_array_equal(result.label_image, label_image)
        assert set(result.masks) == set(masks)
        for cls in masks:
            assert result.masks[cls].dtype == bool
            np.testing.assert_array_equal(result.masks[cls], masks[cls], err_msg=str(cls))
        if filtered is None:
            assert result.filtered_rgb is None
        else:
            np.testing.assert_array_equal(result.filtered_rgb, filtered)
        np.testing.assert_array_equal(labeler(rgb), class_map)

    @pytest.mark.parametrize("scene", ["clear_scene", "cloudy_scene"])
    @pytest.mark.parametrize("apply_cloud_filter", [False, True])
    def test_scenes(self, scene, apply_cloud_filter, request):
        self.assert_same_segmentation(ColorSegmentationLabeler(apply_cloud_filter=apply_cloud_filter), request.getfixturevalue(scene).rgb)

    @settings(max_examples=60, deadline=None)
    @given(rgb=rgb_views(), ranges=value_bands(), apply_cloud_filter=st.booleans())
    def test_any_shape_layout_and_ranges(self, rgb, ranges, apply_cloud_filter):
        self.assert_same_segmentation(ColorSegmentationLabeler(hsv_ranges=ranges, apply_cloud_filter=apply_cloud_filter), rgb)

    @settings(max_examples=40, deadline=None)
    @given(
        unit=hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 12), st.just(3)), elements=st.floats(0, 1)),
        dtype=st.sampled_from([np.float64, np.float32]),
        ranges=value_bands(),
    )
    def test_unit_float_tiles(self, unit, dtype, ranges):
        """Float ``[0, 1]`` tiles, the other input ``rgb_to_hsv`` documents (unfiltered: the filter reads 0-255)."""
        self.assert_same_segmentation(ColorSegmentationLabeler(hsv_ranges=ranges), unit.astype(dtype))

    @settings(max_examples=30, deadline=None)
    @given(hsv=rgb_views(), ranges=value_bands())
    def test_range_masks(self, hsv, ranges):
        for rng in ranges.values():
            np.testing.assert_array_equal(rng.inside({c: hsv[..., c] for c in range(3)}), reference_contains(rng, hsv))

    def test_executors_agree_on_a_cloudy_stack(self):
        tiles = build_dataset(num_scenes=2, scene_size=64, tile_size=32, base_seed=5, cloudy_fraction=1.0).images
        expected = np.stack([reference_segment(ColorSegmentationLabeler(apply_cloud_filter=True), tile)[0] for tile in tiles])
        assert len(np.unique(expected)) > 1
        for executor in ("serial", "threads", "processes"):
            labels = run_mapreduce_autolabel(tiles, executor=executor, parallelism=2).labels
            np.testing.assert_array_equal(labels, expected, err_msg=executor)
        np.testing.assert_array_equal(autolabel_batch(tiles), expected)


class TestLabelPathDoesOnlyWhatLabelsDependOn:
    """Counts, not timings: which HSV planes the label path asks for, and how many bytes one tile costs."""

    @staticmethod
    def requested(monkeypatch, labeler, rgb):
        asked = []

        def spy(planes, channels=(0, 1, 2), unit=None):
            asked.append(tuple(channels))
            return hsv_planes(planes, channels, unit)

        monkeypatch.setattr("repro.labeling.autolabel.hsv_planes", spy)
        labeler(rgb)
        labeler.segment(rgb)
        assert len(asked) == 2 and asked[0] == asked[1]
        return asked[0]

    @pytest.mark.parametrize("apply_cloud_filter", [False, True])
    def test_paper_thresholds_never_evaluate_hue_or_saturation(self, monkeypatch, cloudy_scene, apply_cloud_filter):
        asked = self.requested(monkeypatch, ColorSegmentationLabeler(apply_cloud_filter=apply_cloud_filter), cloudy_scene.rgb)
        print(f"planes requested with the paper's thresholds (filter={apply_cloud_filter}): {asked}")
        assert asked == (2,)

    @pytest.mark.parametrize("bound, channel", [(("lower", 0, 1), 0), (("upper", 0, 178), 0), (("lower", 1, 1), 1), (("upper", 1, 254), 1)])
    def test_a_range_that_bounds_a_channel_requests_it(self, monkeypatch, clear_scene, bound, channel):
        side, index, limit = bound
        ranges = dict(HSV_RANGES)
        thin = ranges[SeaIceClass.THIN_ICE]
        edited = {"lower": list(thin.lower), "upper": list(thin.upper)}
        edited[side][index] = limit
        ranges[SeaIceClass.THIN_ICE] = HSVRange(lower=tuple(edited["lower"]), upper=tuple(edited["upper"]))
        assert self.requested(monkeypatch, ColorSegmentationLabeler(hsv_ranges=ranges), clear_scene.rgb) == (channel, 2)

    @pytest.mark.parametrize("apply_cloud_filter, ceiling", [(True, 6_000_000), (False, 1_000_000)])
    def test_peak_bytes_of_one_tile(self, apply_cloud_filter, ceiling):
        """Measured 5.0 MB filtered (float32 planes), 0.85 MB unfiltered.  8.6 MB filtered means the filter's planes
        went float64 again; 12.7 MB adds K x 2 opacity planes, two plane splits and a full HSV conversion."""
        tile = synthesize_scene(SceneSpec(height=256, width=256, cloud_coverage=0.25, seed=7)).rgb
        autolabel_tile(tile, apply_cloud_filter=apply_cloud_filter)  # imports and caches out of the measurement
        tracemalloc.start()
        try:
            autolabel_tile(tile, apply_cloud_filter=apply_cloud_filter)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        print(f"autolabel_tile(256x256, apply_cloud_filter={apply_cloud_filter}) peak: {peak:,} B (ceiling {ceiling:,})")
        assert peak <= ceiling


class TestManualLabelSimulator:
    def test_exact_when_noise_disabled(self, tiny_dataset):
        sim = ManualLabelSimulator(boundary_jitter=0.0, min_region_size=0)
        np.testing.assert_array_equal(sim.annotate(tiny_dataset.labels[0]), tiny_dataset.labels[0])

    def test_high_agreement_with_truth(self, tiny_dataset):
        annotated = simulate_manual_labels(tiny_dataset.labels, seed=0)
        assert accuracy_score(tiny_dataset.labels, annotated) > 0.9

    def test_output_classes_valid(self, tiny_dataset):
        annotated = simulate_manual_labels(tiny_dataset.labels, seed=1)
        assert set(np.unique(annotated)).issubset(set(range(NUM_CLASSES)))

    def test_batch_and_single_apis(self, tiny_dataset):
        sim = ManualLabelSimulator(seed=2)
        single = sim.annotate(tiny_dataset.labels[0])
        batch = sim.annotate_batch(tiny_dataset.labels[:2])
        assert single.shape == (32, 32)
        assert batch.shape == (2, 32, 32)

    def test_rejects_bad_inputs(self):
        sim = ManualLabelSimulator()
        with pytest.raises(ValueError):
            sim.annotate(np.zeros((4, 4, 4), dtype=np.uint8))
        with pytest.raises(ValueError):
            sim.annotate(np.full((4, 4), 9, dtype=np.uint8))
        with pytest.raises(ValueError):
            ManualLabelSimulator(boundary_jitter=-1.0)
        with pytest.raises(ValueError):
            ManualLabelSimulator(min_region_size=-2)

    def test_jitter_changes_some_boundary_pixels(self):
        cmap = np.zeros((32, 32), dtype=np.uint8)
        cmap[:, 16:] = 1
        sim = ManualLabelSimulator(boundary_jitter=2.0, min_region_size=0, seed=3)
        annotated = sim.annotate(cmap)
        diff = (annotated != cmap).mean()
        assert 0.0 < diff < 0.3
