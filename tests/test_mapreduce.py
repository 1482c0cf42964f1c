"""Tests for repro.mapreduce (the auto-label job, its span cutter, executor kinds, cluster model)."""

from __future__ import annotations

import os
import signal
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import autolabel_tile, run_python
from leaks import gone, shm_segments
from repro.backend.base import session_backend
from repro.backend.store import SEGMENT_PREFIX
from repro.labeling import autolabel_batch
from repro.mapreduce import (
    PAPER_TABLE2_ROWS,
    ClusterShape,
    GCDClusterModel,
    mapreduce_scaling_sweep,
    paper_table2,
    run_mapreduce_autolabel,
)
from repro.mapreduce import autolabel_job
from repro.mapreduce.autolabel_job import _cut_spans


def random_tiles(n, seed=0):
    return np.random.default_rng(seed).integers(0, 256, size=(n, 32, 32, 3), dtype=np.uint8)


class TestPartitioning:
    """The job's span cutter: ``count`` contiguous, balanced ``(start, stop)`` spans."""

    def test_balanced_partitions(self):
        sizes = [stop - start for start, stop in _cut_spans(10, 3)]
        assert sizes == [4, 3, 3]

    def test_preserves_order(self):
        items = list(range(7))
        assert [x for start, stop in _cut_spans(7, 2) for x in items[start:stop]] == items

    def test_more_partitions_than_items(self):
        assert _cut_spans(2, 5) == [(0, 1), (1, 2)]

    def test_empty_items(self):
        assert _cut_spans(0, 3) == [(0, 0)]

    def test_rejects_zero_partitions(self):
        with pytest.raises(ValueError):
            _cut_spans(1, 0)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(), max_size=40), st.integers(1, 8))
    def test_partition_concat_identity(self, items, k):
        spans = _cut_spans(len(items), k)
        assert len(spans) == min(k, max(1, len(items)))
        assert [x for start, stop in spans for x in items[start:stop]] == items

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 200), st.integers(1, 16))
    def test_span_sizes_differ_by_at_most_one_longest_first(self, num_tiles, k):
        sizes = [stop - start for start, stop in _cut_spans(num_tiles, k)]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] - sizes[-1] <= 1


#: Each executor kind, plus the fork executor on one worker, which runs every
#: span task of a job in turn in the same process.
executors = pytest.mark.parametrize("kind, parallelism", [("serial", 1), ("processes", 2), ("processes", 1)],
                                    ids=["serial", "processes", "one-worker"])


class TestExecutors:
    @executors
    def test_all_backends_agree(self, kind, parallelism):
        tiles = random_tiles(9)
        labels = run_mapreduce_autolabel(tiles, executor=kind, parallelism=parallelism).labels
        np.testing.assert_array_equal(labels, autolabel_batch(tiles))

    def test_make_executor_rejects_unknown(self):
        for kind in ("gpu", "threads"):
            with pytest.raises(ValueError, match=f"unknown executor kind '{kind}'; expected serial / processes"):
                run_mapreduce_autolabel(random_tiles(1), executor=kind)

    def test_executor_parallelism_bounds(self):
        with pytest.raises(ValueError, match="parallelism"):
            run_mapreduce_autolabel(random_tiles(1), executor="processes", parallelism=0)
        assert run_mapreduce_autolabel(random_tiles(5), executor="serial", parallelism=0).num_partitions == 2


def raise_seven(*args):
    raise RuntimeError("seven")


_EXIT_SCRIPT = """
import os

import numpy as np
from repro.backend.base import session_backend
from repro.mapreduce import run_mapreduce_autolabel

run_mapreduce_autolabel(np.zeros((4, 16, 16, 3), dtype=np.uint8), executor="processes", parallelism=2)
print(os.getpid(), *session_backend("fork", 2).occupancy()["worker_pids"], flush=True)
"""


class TestTilesArePublishedNotSent:
    """A job borrows the process's started backend, copies its stack into one shared segment and sends
    ``(start, stop)`` spans; the segment goes when the job ends, the backend does not."""

    def test_task_messages_are_spans(self, monkeypatch):
        sent = []
        backend = session_backend("fork", 2)
        backend_map = backend.map
        monkeypatch.setattr(backend, "map",
                            lambda fn, items, **options: sent.extend(items) or backend_map(fn, items, **options))
        tiles = random_tiles(10)
        np.testing.assert_array_equal(run_mapreduce_autolabel(tiles, executor="processes", parallelism=2).labels,
                                      autolabel_batch(tiles))
        assert sent == [(0, 3), (3, 6), (6, 8), (8, 10)]

    @pytest.mark.parametrize("kind", ["serial", "processes"])
    def test_no_segment_outlives_a_job(self, kind, monkeypatch):
        before = shm_segments()
        tiles = random_tiles(5)
        np.testing.assert_array_equal(run_mapreduce_autolabel(tiles, executor=kind, parallelism=2).labels,
                                      autolabel_batch(tiles))
        assert shm_segments() == before
        # The task raises where it runs: for ``processes`` in a worker that a job before this one started.
        monkeypatch.setattr(autolabel_job, "_label_span", raise_seven)
        with pytest.raises(Exception, match="seven"):
            run_mapreduce_autolabel(tiles, executor=kind, parallelism=2)
        assert shm_segments() == before

    def test_concurrent_jobs_keep_their_own_stacks(self):
        before = shm_segments()

        def job(seed):
            return run_mapreduce_autolabel(random_tiles(6, seed), executor="processes", parallelism=2).labels

        with ThreadPoolExecutor(max_workers=4) as pool:
            for seed, got in zip(range(8), pool.map(job, range(8))):
                np.testing.assert_array_equal(got, autolabel_batch(random_tiles(6, seed)))
        assert shm_segments() == before

    def test_successive_jobs_run_on_the_same_workers(self):
        pids = []
        for seed in range(2):
            run_mapreduce_autolabel(random_tiles(4, seed), executor="processes", parallelism=2)
            pids.append(session_backend("fork", 2).occupancy()["worker_pids"])
        assert len(pids[0]) == 2 and pids[1] == pids[0]

    def test_a_worker_killed_between_jobs_is_respawned(self):
        run_mapreduce_autolabel(random_tiles(4), executor="processes", parallelism=2)
        backend = session_backend("fork", 2)
        respawns = backend.occupancy()["respawns"]
        victim = backend._workers[0].process
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(5.0)
        tiles = random_tiles(7, seed=3)
        np.testing.assert_array_equal(run_mapreduce_autolabel(tiles, executor="processes", parallelism=2).labels,
                                      autolabel_batch(tiles))
        info = backend.occupancy()
        assert session_backend("fork", 2) is backend
        assert info["respawns"] > respawns and victim.pid not in info["worker_pids"] and info["alive_workers"] == 2

    def test_a_process_that_exits_without_closing_leaves_nothing_behind(self):
        child = run_python(_EXIT_SCRIPT, timeout=30)
        assert child.returncode == 0, child.stderr
        pid, *workers = (int(token) for token in child.stdout.split())
        assert len(workers) == 2 and all(gone(worker) for worker in workers)
        assert not [name for name in os.listdir("/dev/shm") if name.startswith(f"{SEGMENT_PREFIX}{pid:x}_")]


class TestJobSemantics:
    def test_collect_equals_serial_map(self):
        tiles = random_tiles(7)
        labels = run_mapreduce_autolabel(tiles, executor="processes", parallelism=3).labels
        np.testing.assert_array_equal(labels, np.stack([autolabel_tile(tile) for tile in tiles]))

    def test_timings_recorded(self):
        timings = run_mapreduce_autolabel(random_tiles(4), executor="serial").timings
        assert timings.load_time >= 0 and timings.map_time >= 0 and timings.reduce_time > 0
        assert set(timings.as_row()) == {"load_time_s", "map_time_s", "reduce_time_s"}

    @pytest.mark.parametrize("apply_cloud_filter", [True, False], ids=["filtered", "unfiltered"])
    @pytest.mark.parametrize("num_tiles", [0, 1, 3, 7])
    @executors
    def test_labels_come_back_in_input_order(self, kind, parallelism, num_tiles, apply_cloud_filter):
        """Spans are labelled wherever they land and gathered in span order; uneven spans and more spans than
        tiles included.  Random tiles differ from each other, so any other order gives other labels."""
        tiles = random_tiles(num_tiles, seed=num_tiles)
        result = run_mapreduce_autolabel(tiles, executor=kind, parallelism=parallelism,
                                         apply_cloud_filter=apply_cloud_filter)
        assert result.num_partitions == min(2 * parallelism, max(1, num_tiles))
        assert result.labels.shape == (num_tiles, 32, 32) and result.labels.dtype == np.uint8
        np.testing.assert_array_equal(result.labels, autolabel_batch(tiles, apply_cloud_filter))

    @executors
    def test_strided_view_is_labelled_as_given(self, kind, parallelism):
        """A non-contiguous view is published as the tiles it shows; workers slice the published copy."""
        tiles = random_tiles(12)[::2, :, ::-1]
        result = run_mapreduce_autolabel(tiles, executor=kind, parallelism=parallelism)
        np.testing.assert_array_equal(result.labels, autolabel_batch(np.ascontiguousarray(tiles)))

    def test_transformations_do_not_mutate_parent(self):
        tiles = random_tiles(5)
        before = tiles.copy()
        for kind in ("serial", "processes"):
            for apply_cloud_filter in (True, False):
                run_mapreduce_autolabel(tiles, executor=kind, parallelism=2, apply_cloud_filter=apply_cloud_filter)
        np.testing.assert_array_equal(tiles, before)


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

    @pytest.mark.parametrize("shape", [(32, 32, 3), (2, 32, 32), (2, 32, 32, 4)])
    def test_rejects_a_stack_that_is_not_n_h_w_3(self, shape):
        with pytest.raises(ValueError, match=r"expected \(N, H, W, 3\) tile stack"):
            run_mapreduce_autolabel(np.zeros(shape, dtype=np.uint8), executor="serial")


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

    def test_sweep_models_the_load_column_from_the_paper_ratio(self, monkeypatch):
        """Only the measured reduce time calibrates the 1×1 row; the measured load (a registration) is not read."""
        measured = autolabel_job.MapReduceAutoLabelResult(
            labels=np.zeros((4, 32, 32), np.uint8), num_partitions=1,
            timings=autolabel_job.JobTimings(load_time=5.0, map_time=0.0, reduce_time=2.0))
        monkeypatch.setattr(autolabel_job, "run_mapreduce_autolabel", lambda *args, **kwargs: measured)
        base = mapreduce_scaling_sweep(tiles=random_tiles(4))[0]
        overhead = 0.005 * 2.0
        assert base["reduce_time_s"] == pytest.approx(2.0 + overhead, abs=1e-4)
        assert base["load_time_s"] == pytest.approx(2.0 * 108.0 / 390.0 + overhead, abs=1e-4)
