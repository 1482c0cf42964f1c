"""Integration tests for repro.workflow (auto-label pipeline, accuracy experiment, prep timing)."""

from __future__ import annotations

import multiprocessing as mp

import numpy as np
import pytest

from helpers import confusion_matrices
from helpers import available_backends
from repro.workflow import (
    AccuracyExperimentConfig,
    AutoLabelWorkflow,
    AutoLabelWorkflowConfig,
    run_accuracy_experiment,
    run_preparation_pipeline,
    training,
)


class TestAutoLabelWorkflow:
    def test_serial_run(self, tiny_dataset):
        result = AutoLabelWorkflow(AutoLabelWorkflowConfig(backend="serial")).run(tiny_dataset)
        assert result.auto_labels.shape == tiny_dataset.labels.shape
        assert 0.0 <= result.ssim_vs_manual <= 1.0
        assert 0.0 <= result.pixel_agreement <= 1.0
        assert result.elapsed_s > 0
        summary = result.summary()
        assert summary["tiles"] == len(tiny_dataset)

    def test_backends_agree_on_labels(self, tiny_dataset):
        serial = AutoLabelWorkflow(AutoLabelWorkflowConfig(backend="serial")).run(tiny_dataset)
        for name in available_backends():
            fanned = AutoLabelWorkflow(AutoLabelWorkflowConfig(backend=name, num_workers=2)).run(tiny_dataset)
            assert fanned.backend == name
            np.testing.assert_array_equal(serial.auto_labels, fanned.auto_labels)

    def test_filter_improves_agreement(self, tiny_dataset):
        with_filter = AutoLabelWorkflow(AutoLabelWorkflowConfig(apply_cloud_filter=True)).run(tiny_dataset)
        without = AutoLabelWorkflow(AutoLabelWorkflowConfig(apply_cloud_filter=False)).run(tiny_dataset)
        assert with_filter.pixel_agreement >= without.pixel_agreement - 0.02

    def test_invalid_backend_rejected(self):
        for gone in ("spark", "multiprocessing", "mapreduce"):
            with pytest.raises(ValueError):
                AutoLabelWorkflowConfig(backend=gone)
        with pytest.raises(ValueError):
            AutoLabelWorkflowConfig(num_workers=0)

    def test_manual_label_shape_mismatch(self, tiny_dataset):
        workflow = AutoLabelWorkflow()
        with pytest.raises(ValueError):
            workflow.run(tiny_dataset, manual_labels=tiny_dataset.labels[:2])


class TestPreparationPipeline:
    def test_timing_summary(self):
        timing = run_preparation_pipeline(num_scenes=1, scene_size=64, tile_size=32, seed=0)
        assert timing.num_tiles == 4
        assert timing.total_s > 0
        summary = timing.summary()
        assert summary["num_scenes"] == 1
        assert summary["seconds_per_scene"] > 0

    def test_scales_with_scene_count(self):
        one = run_preparation_pipeline(num_scenes=1, scene_size=64, tile_size=32)
        two = run_preparation_pipeline(num_scenes=2, scene_size=64, tile_size=32)
        assert two.num_tiles == 2 * one.num_tiles

    def test_overlap_produces_more_tiles(self):
        disjoint = run_preparation_pipeline(num_scenes=1, scene_size=64, tile_size=32)
        overlapped = run_preparation_pipeline(num_scenes=1, scene_size=64, tile_size=32, overlap=8)
        assert overlapped.num_tiles > disjoint.num_tiles
        assert overlapped.summary()["tile_overlap"] == 8


class TestAccuracyExperiment:
    @pytest.fixture(scope="class")
    def small_result(self):
        """One small end-to-end run shared by the assertions below."""
        config = AccuracyExperimentConfig(
            num_scenes=3,
            scene_size=64,
            tile_size=32,
            epochs=18,
            batch_size=4,
            learning_rate=3e-3,
            unet_depth=2,
            unet_base_channels=8,
            unet_dropout=0.0,
            seed=1,
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(training, "CLOUDY_FRACTION", 0.7)
            return run_accuracy_experiment(config)

    def test_structure(self, small_result):
        rows4 = small_result.table4_rows()
        assert len(rows4) == 2
        assert {"dataset", "unet_man_accuracy_pct", "unet_auto_accuracy_pct"} <= set(rows4[0])
        assert small_result.unet_man is not small_result.unet_auto
        matrices = confusion_matrices(small_result)
        assert set(matrices) == {"man_original", "man_filtered", "auto_original", "auto_filtered"}
        assert matrices["auto_filtered"].shape == (3, 3)

    def test_models_learned_something(self, small_result):
        for variant in ("original", "filtered"):
            for model in ("man", "auto"):
                assert small_result.table4[variant][model].accuracy > 0.5

    def test_autolabel_quality_reported(self, small_result):
        assert 0.0 < small_result.autolabel_ssim <= 1.0
        assert 0.5 < small_result.autolabel_agreement <= 1.0

    def test_table5_rows_subset_of_splits(self, small_result):
        rows = small_result.table5_rows()
        assert 0 < len(rows) <= 4
        for row in rows:
            assert 0.0 <= row["unet_man_accuracy_pct"] <= 100.0

    @pytest.mark.skipif("fork" not in mp.get_all_start_methods(), reason="fork start method unavailable")
    def test_worker_count_does_not_touch_the_tables(self, tmp_path):
        """The abstract's "distributed training without affecting the accuracy", held as an
        identity: Tables IV/V and both weights digests are the same in-process and on 1 or 2
        forked workers (dropout, augmentation and mid-epoch checkpoints all on)."""
        config = AccuracyExperimentConfig(num_scenes=2, scene_size=64, tile_size=16, epochs=2, batch_size=8,
                                          unet_depth=2, unet_base_channels=4, unet_dropout=0.1, seed=3)
        outcomes = []
        for workers in (0, 1, 2):
            result = run_accuracy_experiment(config, workers=workers, step_timeout_s=30.0,
                                             checkpoint_dir=tmp_path / str(workers), checkpoint_every=3)
            training = result.training
            assert set(training) == {"man", "auto"} and training["man"]["target_workers"] == workers
            assert training["man"]["micro_shards"] == 2  # derived, the same for all three
            assert len(training["auto"]["losses"]) == 2
            outcomes.append((result.table4_rows(), result.table5_rows(),
                             {name: (run["weights_digest"], run["losses"]) for name, run in training.items()}))
            assert sorted(path.name for path in (tmp_path / str(workers)).iterdir()) == ["auto", "man"]
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert outcomes[0][2]["man"] != outcomes[0][2]["auto"]
