"""Tests for repro.metrics.scaling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    ScalingPoint,
    ScalingTable,
    efficiency,
    fit_amdahl_serial_fraction,
    speedup,
    throughput,
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
        workers = np.array([2, 4, 6, 8])
        speedups = np.array([1.96, 3.79, 5.44, 7.21])
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
