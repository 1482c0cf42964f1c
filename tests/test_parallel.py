"""Tests for the single-machine auto-label path and the map it runs on.

``repro.parallel`` is gone: the workflow runs the map-reduce job on an
execution backend, the Table I harness times that job on a started backend,
and shared arrays are :mod:`repro.backend.store` segments.
The map and shared-memory cases below are the old module's, ported to what
replaced it; the cross-backend property test lives in ``tests/test_backend.py``.
"""

from __future__ import annotations

import pickle
from multiprocessing import resource_tracker

import numpy as np
import pytest

from repro.backend import SerialBackend, available_cpu_count, make_backend
from repro.backend.base import _default_chunk_size
from repro.backend.store import (
    SharedArrayField,
    attach_segment,
    close_segment,
    create_segment,
    ndarray_view,
)
from repro.workflow import AutoLabelWorkflow, AutoLabelWorkflowConfig, autolabel_scaling_table


def square(x):
    return x * x


def double_array(a):
    return a * 2


class TestChunking:
    def test_available_cpu_count_positive(self):
        assert available_cpu_count() >= 1

    def test_default_chunk_size_bounds(self):
        assert _default_chunk_size(0, 4) == 1
        assert _default_chunk_size(100, 4) >= 1
        assert _default_chunk_size(3, 8) == 1


class TestParallelMap:
    def test_serial_map_reference(self):
        with SerialBackend() as backend:
            assert backend.map(square, [1, 2, 3]) == [1, 4, 9]

    def test_single_worker_matches_serial(self):
        with make_backend("fork", 1) as backend:
            assert backend.map(square, list(range(20))) == [square(i) for i in range(20)]

    def test_multiworker_preserves_order_and_values(self):
        items = list(range(37))
        with make_backend("fork", 2) as backend:
            assert backend.map(square, items, chunk_size=5) == [square(i) for i in items]

    def test_works_on_arrays(self):
        arrays = [np.full((4, 4), i) for i in range(8)]
        with make_backend("fork", 2) as backend:
            results = backend.map(double_array, arrays)
        for i, out in enumerate(results):
            np.testing.assert_array_equal(out, arrays[i] * 2)

    def test_empty_input(self):
        with make_backend("fork", 2) as backend:
            assert backend.map(square, []) == []

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            make_backend("fork", 0)

    def test_rejects_bad_chunk_size(self):
        with make_backend("fork", 2) as backend:
            for bad in (0, -3):
                with pytest.raises(ValueError):
                    backend.map(square, [1, 2], chunk_size=bad)


class TestSharedMemory:
    def test_round_trip(self):
        data = np.arange(24, dtype=np.float32).reshape(4, 6)
        owner = create_segment(data.nbytes)
        try:
            ndarray_view(owner, data.shape)[...] = data
            attached = attach_segment(owner.name)
            try:
                view = ndarray_view(attached, data.shape)
                np.testing.assert_array_equal(view, data)
                view[0, 0] = 99.0
                assert ndarray_view(owner, data.shape)[0, 0] == 99.0  # same physical memory
                with pytest.raises(ValueError):  # read-only views refuse writes
                    ndarray_view(attached, data.shape, writeable=False)[0, 0] = 1.0
                del view
            finally:
                close_segment(attached)
        finally:
            close_segment(owner, unlink=True)

    def test_attaching_does_not_register_with_the_tracker(self, monkeypatch):
        """Only the owner registers; a worker that registered its attach would start a tracker of its own."""
        registered = []
        monkeypatch.setattr(resource_tracker, "register", lambda *args: registered.append(args))
        owner = create_segment(8)
        try:
            registered.clear()
            close_segment(attach_segment(owner.name))
        finally:
            close_segment(owner, unlink=True)
        assert registered == []

    def test_context_manager_cleans_up(self):
        owner = create_segment(40)
        name = owner.name
        close_segment(owner, unlink=True)
        close_segment(owner, unlink=True)  # idempotent
        # After unlink the block cannot be attached any more.
        with pytest.raises(FileNotFoundError):
            attach_segment(name)

    def test_spec_is_picklable(self):
        field = pickle.loads(pickle.dumps(SharedArrayField("w", (2, 3), 64)))
        assert field.shape == (2, 3) and field.offset == 64 and field.nbytes == 24


class TestAutoLabelRunner:
    def test_parallel_matches_serial_labels(self, tiny_dataset, monkeypatch):
        """``auto`` resolves the way ``classify`` does: ``REPRO_BACKEND`` first, then the worker count."""
        serial = AutoLabelWorkflow(AutoLabelWorkflowConfig(backend="serial")).run(tiny_dataset)
        monkeypatch.setenv("REPRO_BACKEND", "fork")
        forked = AutoLabelWorkflow(AutoLabelWorkflowConfig(num_workers=1)).run(tiny_dataset)
        assert (serial.backend, forked.backend) == ("serial", "fork")
        np.testing.assert_array_equal(serial.auto_labels, forked.auto_labels)

    def test_output_shape(self, tiny_dataset, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        result = AutoLabelWorkflow().run(tiny_dataset)
        assert result.auto_labels.shape == (len(tiny_dataset), 32, 32)
        assert result.summary()["backend"] == "serial"  # the resolved name, not "auto"
        assert result.elapsed_s > 0

    def test_scaling_table_structure(self, tiny_dataset):
        table = autolabel_scaling_table(tiny_dataset.images[:4], worker_counts=(1, 2))
        rows = table.rows()
        assert len(rows) == 2
        assert rows[0]["workers"] == 1 and rows[0]["speedup"] == 1.0
        assert all("items_per_s" in r for r in rows)

    @pytest.mark.parametrize("bad", [0, -2])
    def test_scaling_table_rejects_a_bad_worker_count_before_timing(self, tiny_dataset, monkeypatch, bad):
        """A row no backend can run fails up front, naming the count, instead of after timing the rows before it."""
        built = []
        monkeypatch.setattr("repro.mapreduce.autolabel_job.session_backend", lambda *args: built.append(args))
        monkeypatch.setattr("repro.workflow.autolabel.session_backend", lambda *args: built.append(args))
        with pytest.raises(ValueError, match=str(bad)):
            autolabel_scaling_table(tiny_dataset.images[:2], worker_counts=(1, bad))
        assert built == []
