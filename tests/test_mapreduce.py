"""Tests for repro.mapreduce (sparklite engine, executor kinds, cluster model)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce import (
    PAPER_TABLE2_ROWS,
    ClusterShape,
    GCDClusterModel,
    SparkLiteContext,
    mapreduce_scaling_sweep,
    paper_table2,
    partition_items,
    run_mapreduce_autolabel,
)
from repro.mapreduce import dataset as dataset_module


def add_one(x):
    return x + 1


def double(x):
    return 2 * x


class TestPartitioning:
    def test_balanced_partitions(self):
        parts = partition_items(list(range(10)), 3)
        sizes = [len(p) for p in parts]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1

    def test_preserves_order(self):
        parts = partition_items(list(range(7)), 2)
        flattened = [x for p in parts for x in p.items]
        assert flattened == list(range(7))

    def test_more_partitions_than_items(self):
        parts = partition_items([1, 2], 5)
        assert sum(len(p) for p in parts) == 2

    def test_empty_items(self):
        parts = partition_items([], 3)
        assert len(parts) == 1 and len(parts[0]) == 0

    def test_rejects_zero_partitions(self):
        with pytest.raises(ValueError):
            partition_items([1], 0)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(), max_size=40), st.integers(1, 8))
    def test_partition_concat_identity(self, items, k):
        parts = partition_items(items, k)
        assert [x for p in parts for x in p.items] == items


class TestExecutors:
    @pytest.mark.parametrize("kind", ["serial", "threads", "processes"])
    def test_all_backends_agree(self, kind):
        context = SparkLiteContext(executor=kind, parallelism=2)
        data = context.parallelize(list(range(30)), num_partitions=4)
        result = data.map(add_one).map(double).collect()
        expected = [2 * (x + 1) for x in range(30)]
        assert result == expected

    def test_make_executor_rejects_unknown(self):
        with pytest.raises(ValueError):
            SparkLiteContext(executor="gpu")

    def test_executor_parallelism_bounds(self):
        for kind in ("threads", "processes"):
            with pytest.raises(ValueError):
                SparkLiteContext(executor=kind, parallelism=0)
        assert SparkLiteContext(executor="serial", parallelism=0).parallelism == 1


def call(thunk):
    return thunk()


def fail_on_seven(x):
    if x == 7:
        raise RuntimeError("seven")
    return x


class TestPartitionsAreInheritedNotSent:
    """An action registers its partitions before its backend forks; task messages carry partition indices."""

    @pytest.mark.parametrize("kind", ["serial", "threads", "processes"])
    def test_items_that_cannot_be_pickled(self, kind):
        """Closures do not pickle: worker processes can only hold them by having forked after the registration."""
        thunks = [(lambda i=i: 3 * i) for i in range(11)]
        context = SparkLiteContext(executor=kind, parallelism=2)
        assert context.parallelize(thunks, num_partitions=4).map(call).collect() == [3 * i for i in range(11)]
        assert not dataset_module._IN_FLIGHT

    def test_task_messages_are_indices(self, monkeypatch):
        sent = []
        make_backend = dataset_module.make_backend

        def spying(kind, workers):
            backend = make_backend(kind, workers)
            backend_map = backend.map
            backend.map = lambda fn, items, **options: sent.extend(items) or backend_map(fn, items, **options)
            return backend

        monkeypatch.setattr(dataset_module, "make_backend", spying)
        data = SparkLiteContext(executor="processes", parallelism=2).parallelize(list(range(30)), num_partitions=4)
        assert data.map(add_one).collect() == list(range(1, 31))
        assert sent == [0, 1, 2, 3]

    @pytest.mark.parametrize("kind", ["serial", "processes"])
    def test_registration_does_not_outlive_a_failed_action(self, kind):
        data = SparkLiteContext(executor=kind, parallelism=2).parallelize(list(range(10)), num_partitions=3)
        with pytest.raises(Exception, match="seven"):
            data.map(fail_on_seven).collect()
        assert not dataset_module._IN_FLIGHT

    def test_concurrent_actions_keep_their_own_partitions(self):
        from concurrent.futures import ThreadPoolExecutor

        def action(offset):
            kind = "processes" if offset % 2 else "threads"
            items = list(range(offset, offset + 40))
            return SparkLiteContext(executor=kind, parallelism=2).parallelize(items, num_partitions=5).map(add_one).collect()

        with ThreadPoolExecutor(max_workers=4) as pool:
            for offset, got in zip(range(0, 800, 100), pool.map(action, range(0, 800, 100))):
                assert got == list(range(offset + 1, offset + 41))
        assert not dataset_module._IN_FLIGHT


class TestDatasetSemantics:
    def test_map_is_lazy(self):
        calls = []

        def tracer(x):
            calls.append(x)
            return x

        context = SparkLiteContext()
        data = context.parallelize([1, 2, 3]).map(tracer)
        assert calls == []  # nothing ran yet
        data.collect()
        assert sorted(calls) == [1, 2, 3]

    def test_collect_equals_serial_map(self):
        context = SparkLiteContext(executor="threads", parallelism=3)
        items = list(range(25))
        assert context.parallelize(items).map(add_one).collect() == [add_one(x) for x in items]

    def test_timings_recorded(self):
        context = SparkLiteContext()
        data = context.parallelize(list(range(100)))
        data.map(add_one).collect()
        timings = context.last_timings
        assert timings.load_time >= 0 and timings.reduce_time > 0
        assert set(timings.as_row()) == {"load_time_s", "map_time_s", "reduce_time_s"}

    def test_transformations_do_not_mutate_parent(self):
        context = SparkLiteContext()
        base = context.parallelize([1, 2, 3, 4])
        mapped = base.map(add_one)
        assert base.collect() == [1, 2, 3, 4]
        assert mapped.collect() == [2, 3, 4, 5]


class TestAutoLabelJob:
    def test_mapreduce_labels_match_serial(self, tiny_dataset):
        from repro.labeling import autolabel_batch

        tiles = tiny_dataset.images[:4]
        result = run_mapreduce_autolabel(tiles, executor="serial", parallelism=1)
        np.testing.assert_array_equal(result.labels, autolabel_batch(tiles, apply_cloud_filter=True))

    def test_process_backend_matches_serial(self, tiny_dataset):
        tiles = tiny_dataset.images[:4]
        serial = run_mapreduce_autolabel(tiles, executor="serial")
        procs = run_mapreduce_autolabel(tiles, executor="processes", parallelism=2)
        np.testing.assert_array_equal(serial.labels, procs.labels)

    def test_rejects_bad_stack(self, tiny_dataset):
        with pytest.raises(ValueError):
            run_mapreduce_autolabel(tiny_dataset.labels)


class TestClusterModel:
    def test_paper_table_has_nine_rows(self):
        assert len(PAPER_TABLE2_ROWS) == 9
        derived = paper_table2()
        assert derived[-1]["speedup_reduce"] == pytest.approx(16.25, abs=0.01)
        assert derived[-1]["speedup_load"] == pytest.approx(9.0, abs=0.01)

    def test_model_matches_paper_shape(self):
        model = GCDClusterModel()
        assert model.relative_error_vs_paper() < 0.15

    def test_times_decrease_with_slots(self):
        model = GCDClusterModel()
        t1 = model.reduce_time(ClusterShape(1, 1))
        t4 = model.reduce_time(ClusterShape(2, 2))
        t16 = model.reduce_time(ClusterShape(4, 4))
        assert t1 > t4 > t16

    def test_speedups_relative_to_baseline(self):
        rows = GCDClusterModel().sweep()
        base = rows[0]
        assert base["speedup_load"] == 1.0 and base["speedup_reduce"] == 1.0
        assert rows[-1]["speedup_reduce"] > 10

    def test_map_time_constant_and_small(self):
        model = GCDClusterModel()
        times = {model.map_time(ClusterShape(e, c)) for e in (1, 2, 4) for c in (1, 2, 4)}
        assert len(times) == 1
        assert times.pop() < 1.0

    def test_calibration_from_measurement(self):
        model = GCDClusterModel.calibrated_from_measurement(100, measured_load_time=10.0, measured_reduce_time=50.0)
        row = model.predict_row(ClusterShape(1, 1))
        assert row["load_time_s"] == pytest.approx(10.0, rel=0.1)
        assert row["reduce_time_s"] == pytest.approx(50.0, rel=0.1)

    def test_calibration_rejects_bad_times(self):
        with pytest.raises(ValueError):
            GCDClusterModel.calibrated_from_measurement(10, measured_load_time=0.0, measured_reduce_time=1.0)

    def test_cluster_shape_validation(self):
        with pytest.raises(ValueError):
            ClusterShape(0, 1)
        assert ClusterShape(4, 4).slots == 16

    def test_sweep_with_real_measurement(self, tiny_dataset):
        rows = mapreduce_scaling_sweep(tiles=tiny_dataset.images[:2])
        assert len(rows) == 9
        assert rows[-1]["reduce_time_s"] < rows[0]["reduce_time_s"]
