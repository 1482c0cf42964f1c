"""Tests for repro.metrics.scaling."""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce import autolabel_job
from repro.metrics import (
    ScalingPoint,
    ScalingTable,
    efficiency,
    fit_amdahl_serial_fraction,
    speedup,
    throughput,
)
from repro.metrics.scaling import (
    PAPER_TABLE2_ROWS,
    PAPER_TABLE3_ROWS,
    TABLE2,
    TABLE3,
    ScalingModel,
    relative_error,
    table2_rows,
    table3_rows,
)


class TestBasicMetrics:
    def test_speedup(self):
        assert speedup(10.0, 2.5) == 4.0

    def test_speedup_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            speedup(0.0, 1.0)
        with pytest.raises(ValueError):
            speedup(1.0, -1.0)

    def test_efficiency(self):
        assert efficiency(8.0, 2.0, 4) == 1.0
        assert efficiency(8.0, 4.0, 4) == 0.5

    def test_efficiency_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            efficiency(1.0, 1.0, 0)

    def test_throughput(self):
        assert throughput(100, 4.0) == 25.0
        with pytest.raises(ValueError):
            throughput(10, 0.0)
        with pytest.raises(ValueError):
            throughput(-1, 1.0)


class TestAmdahl:
    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.0, 0.5))
    def test_fit_recovers_serial_fraction(self, f):
        workers = np.array([1, 2, 4, 8, 16])
        speedups = 1.0 / (f + (1.0 - f) / workers)
        recovered = fit_amdahl_serial_fraction(workers, speedups)
        assert abs(recovered - f) < 1e-6

    def test_no_serial_fraction_is_linear(self):
        workers = np.array([1, 2, 4, 8])
        assert fit_amdahl_serial_fraction(workers, workers.astype(float)) == 0.0

    def test_fully_serial_never_speeds_up(self):
        workers = np.array([1, 2, 4, 8])
        assert fit_amdahl_serial_fraction(workers, np.ones(4)) == 1.0

    def test_rejects_bad_fraction(self):
        """Timing noise can put a point past either end of Amdahl's law; the fit still
        returns a fraction in [0, 1], and a table of mismatched columns is refused."""
        workers = np.array([2, 4])
        assert fit_amdahl_serial_fraction(workers, np.array([2.5, 5.0])) == 0.0  # superlinear
        assert fit_amdahl_serial_fraction(workers, np.array([0.8, 0.5])) == 1.0  # slower than serial
        with pytest.raises(ValueError):
            fit_amdahl_serial_fraction(workers, np.array([1.5]))

    def test_fit_needs_multiworker_point(self):
        with pytest.raises(ValueError):
            fit_amdahl_serial_fraction(np.array([1]), np.array([1.0]))

    def test_paper_table3_serial_fraction_is_small(self):
        """The paper's 7.21x at 8 GPUs implies a serial fraction of about 1.6%."""
        workers = np.array([row["gpus"] for row in PAPER_TABLE3_ROWS])
        speedups = np.array([row["speedup"] for row in PAPER_TABLE3_ROWS])
        assert (workers[-1], speedups[-1]) == (8, 7.21)
        f = fit_amdahl_serial_fraction(workers, speedups)
        assert 0.005 < f < 0.03


class TestScalingTable:
    def make_table(self):
        points = [
            ScalingPoint(workers=1, time=17.40, items=4224),
            ScalingPoint(workers=2, time=8.89, items=4224),
            ScalingPoint(workers=4, time=4.69, items=4224),
            ScalingPoint(workers=8, time=3.89, items=4224),
        ]
        return ScalingTable(points=points, label="table1")

    def test_serial_time_is_single_worker_row(self):
        assert self.make_table().serial_time == 17.40

    def test_paper_table1_speedups(self):
        table = self.make_table()
        speedups = table.speedups()
        assert speedups[0] == 1.0
        assert speedups[1] == pytest.approx(1.96, abs=0.01)
        assert speedups[-1] == pytest.approx(4.47, abs=0.01)

    def test_rows_contain_throughput(self):
        rows = self.make_table().rows()
        assert all("items_per_s" in row for row in rows)
        assert rows[-1]["items_per_s"] > rows[0]["items_per_s"]

    def test_points_sorted_by_workers(self):
        table = ScalingTable(points=[ScalingPoint(4, 1.0), ScalingPoint(1, 4.0)])
        assert [p.workers for p in table.points] == [1, 4]

    def test_empty_table_raises(self):
        with pytest.raises(ValueError):
            ScalingTable(points=[])

    def test_serial_fraction_estimate(self):
        f = self.make_table().serial_fraction()
        assert 0.0 <= f <= 0.2


def _one_exchange(exchange_bytes: float) -> ScalingModel:
    """A model of one all-reduce step and nothing else."""
    return ScalingModel(serial_s=0.0, parallel_s=0.0, per_node_s=0.0, items=1, batch=1, exchange_bytes=exchange_bytes,
                        bandwidth_bytes_per_s=1e9, latency_s=1e-5, repeats=1)


class TestScalingModel:
    def test_seconds_is_serial_plus_parallel_share_plus_per_node(self):
        model = ScalingModel(serial_s=1.0, parallel_s=8.0, per_node_s=0.5, items=4, batch=1, exchange_bytes=0.0,
                             bandwidth_bytes_per_s=1.0, latency_s=0.0, repeats=1)
        assert model.seconds(1, 1) == 9.5
        assert model.seconds(4, 2) == 1.0 + 2.0 + 1.0

    def test_the_ring_exchange_is_free_on_one_slot_and_grows_with_slots(self):
        model = _one_exchange(1e6)
        assert model.seconds(1, 1) == 0.0
        assert 0.0 < model.seconds(2, 1) < model.seconds(8, 1)
        assert model.seconds(2, 1) == 1e6 / 1e9 + 2e-5  # 2 (p-1)/p of the bytes, 2 (p-1) latencies

    def test_the_exchange_runs_once_per_step(self):
        one_step = _one_exchange(1e6)
        four_steps = replace(one_step, items=16, batch=2)  # ceil(16 / (2 · 2)) = 4 steps at 2 slots
        assert four_steps.seconds(2, 1) == 4 * one_step.seconds(2, 1)

    def test_calibrated_keeps_the_measured_one_slot_time(self):
        model = TABLE3.calibrated(10.0, 0.014)
        assert model.seconds(1, 1) == pytest.approx(10.0)
        assert model.serial_s == pytest.approx(0.14)
        assert table3_rows(model)[2]["speedup"] > 2.5  # 4 GPUs

    def test_validation(self):
        with pytest.raises(ValueError):
            replace(TABLE3, items=0)
        with pytest.raises(ValueError):
            TABLE3.seconds(0, 1)
        with pytest.raises(ValueError):
            TABLE3.calibrated(0.0, 0.014)
        with pytest.raises(ValueError):
            TABLE3.calibrated(1.0, 1.5)


class TestTable2:
    def test_paper_speedups_are_its_time_ratios(self):
        base = PAPER_TABLE2_ROWS[0]
        assert len(PAPER_TABLE2_ROWS) == 9
        for row in PAPER_TABLE2_ROWS:
            assert row["speedup_load"] == round(base["load_time_s"] / row["load_time_s"], 2)
            assert row["speedup_reduce"] == round(base["reduce_time_s"] / row["reduce_time_s"], 2)
        assert (row["speedup_load"], row["speedup_reduce"]) == (9.0, 16.25)

    def test_rows_scale_from_the_one_by_one_row(self):
        rows = table2_rows(*TABLE2)
        assert [(row["executors"], row["cores"]) for row in rows] == [(row["executors"], row["cores"]) for row in PAPER_TABLE2_ROWS]
        assert rows[0]["speedup_load"] == rows[0]["speedup_reduce"] == 1.0
        reduce = {(row["executors"], row["cores"]): row["reduce_time_s"] for row in rows}
        assert reduce[(1, 1)] > reduce[(2, 2)] > reduce[(4, 4)]
        assert rows[-1]["speedup_reduce"] > 10
        assert {row["map_time_s"] for row in rows} == {0.3}  # registering the lazy task costs the same everywhere

    def test_relative_error_needs_matching_rows(self):
        with pytest.raises(ValueError):
            relative_error(table2_rows(*TABLE2)[:3], PAPER_TABLE2_ROWS, ("load_time_s",))


class TestTable3:
    def test_speedup_and_throughput_rise_while_efficiency_falls(self):
        """The paper observes GPU starvation from the input pipeline at high GPU counts."""
        rows = table3_rows(TABLE3)
        speedups = [row["speedup"] for row in rows]
        assert speedups == sorted(speedups)
        assert [row["images_per_s"] for row in rows] == sorted(row["images_per_s"] for row in rows)
        efficiency = [row["speedup"] / row["gpus"] for row in rows]
        assert efficiency[0] == 1.0 and efficiency[-1] < efficiency[1]
        assert rows[-1]["speedup"] == pytest.approx(7.21, abs=0.3)

    def test_a_run_is_the_epoch_times_its_repeats(self):
        short = table3_rows(replace(TABLE3, repeats=5))
        assert [row["epoch_time_s"] for row in short] == [row["epoch_time_s"] for row in table3_rows(TABLE3)]
        assert short[0]["total_time_s"] == round(TABLE3.seconds(1, 1) * 5, 2)


class TestTableSweepsArePinned:
    """The exact Table II and III rows (sha256 of their sorted-key JSON) and relative errors."""

    @staticmethod
    def digest(rows):
        return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()

    def test_table2_default(self):
        assert self.digest(table2_rows(*TABLE2)) == TABLE2_DEFAULT_SHA256

    def test_table2_calibrated(self, monkeypatch):
        """The sweep calibrated on a measured 0.5 s reduce (the load modelled as 0.5 · 108 / 390 s)."""
        measured = autolabel_job.MapReduceAutoLabelResult(
            labels=np.zeros((48, 32, 32), np.uint8), num_partitions=1,
            timings=autolabel_job.JobTimings(load_time=0.0, map_time=0.0, reduce_time=0.5))
        monkeypatch.setattr(autolabel_job, "run_mapreduce_autolabel", lambda *args, **kwargs: measured)
        assert self.digest(autolabel_job.mapreduce_scaling_sweep(np.zeros((48, 32, 32, 3), np.uint8))) == TABLE2_CALIBRATED_SHA256

    def test_table3_default(self):
        assert self.digest(table3_rows(TABLE3)) == TABLE3_DEFAULT_SHA256

    def test_table3_calibrated(self):
        """A 10 s epoch of 100 images on a 10,000-parameter model."""
        model = replace(TABLE3.calibrated(10.0, 0.014), items=100, exchange_bytes=10000 * 4)
        assert self.digest(table3_rows(model)) == TABLE3_CALIBRATED_SHA256

    def test_relative_errors(self):
        assert relative_error(table2_rows(*TABLE2), PAPER_TABLE2_ROWS, ("load_time_s", "reduce_time_s")) == 0.10346952059282369
        assert relative_error(table3_rows(TABLE3), PAPER_TABLE3_ROWS, ("total_time_s", "speedup")) == 0.00568362726467129


TABLE2_DEFAULT_SHA256 = "9048136e29c7b9ab77fbe24d76d83acfaaaf8f081e8a7c1559e493db2577e09f"
TABLE2_CALIBRATED_SHA256 = "4b5ea6b7537a4f7987fa807f233a7530f564e2a8bf0850f525cfc0fb61e07027"
TABLE3_DEFAULT_SHA256 = "e4cd6fa3aa72fcefa32d2eebbb6f3868fac3465d6efcf864ded016508a61ec39"
TABLE3_CALIBRATED_SHA256 = "f221b761191bdb2a4565192f84412c2ec58bcaf1dad91a26e58cebfb4b6ecb31"
