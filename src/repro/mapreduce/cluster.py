"""Simulated Google Cloud Dataproc cluster for the Table II scaling sweep.

The paper measures PySpark auto-labeling on a 4-node Dataproc cluster
(1 master + 3 workers, 4 cores each).  That hardware is not available here,
so the sweep over (executors × cores) is regenerated with an explicit,
calibrated cost model:

* **Load phase** — reading the S2 archive into the distributed dataframe.
  Modelled with Amdahl's law: a per-image read cost that parallelises over
  all execution slots plus a serial driver fraction (scheduling, metadata,
  driver-side concatenation).  The paper's own load column follows Amdahl
  with a serial fraction of about 5 %, which is the default here.
* **Map phase** — registering the auto-label UDF transformation.  Lazy in
  Spark, and locally only the building of the task object, hence a small constant.
* **Reduce phase** — executing the UDF over every image and collecting the
  results.  Pixel-independent work that scales essentially linearly with
  the number of slots, with a small per-node scheduling overhead.

The model's defaults are calibrated on the paper's 4224-image workload so
that the 1-executor/1-core row matches Table II's baseline; the *shape* of
the predicted sweep (who wins, by how much, where returns diminish) is the
reproduction target.  :func:`~repro.mapreduce.mapreduce_scaling_sweep` can
re-calibrate it on one serial run of the real local job
(:func:`~repro.mapreduce.run_mapreduce_autolabel`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ClusterShape", "GCDClusterModel", "PAPER_TABLE2_ROWS", "paper_table2"]


#: Verbatim rows of the paper's Table II (for side-by-side reporting).
PAPER_TABLE2_ROWS: list[dict] = [
    {"executors": 1, "cores": 1, "load_time_s": 108.0, "map_time_s": 0.4, "reduce_time_s": 390.0},
    {"executors": 1, "cores": 2, "load_time_s": 58.0, "map_time_s": 0.4, "reduce_time_s": 174.0},
    {"executors": 1, "cores": 4, "load_time_s": 33.0, "map_time_s": 0.3, "reduce_time_s": 72.0},
    {"executors": 2, "cores": 1, "load_time_s": 56.0, "map_time_s": 0.3, "reduce_time_s": 156.0},
    {"executors": 2, "cores": 2, "load_time_s": 31.0, "map_time_s": 0.3, "reduce_time_s": 84.0},
    {"executors": 2, "cores": 4, "load_time_s": 19.0, "map_time_s": 0.3, "reduce_time_s": 41.0},
    {"executors": 4, "cores": 1, "load_time_s": 31.0, "map_time_s": 0.2, "reduce_time_s": 78.0},
    {"executors": 4, "cores": 2, "load_time_s": 17.0, "map_time_s": 0.2, "reduce_time_s": 39.0},
    {"executors": 4, "cores": 4, "load_time_s": 12.0, "map_time_s": 0.3, "reduce_time_s": 24.0},
]


def paper_table2() -> list[dict]:
    """Paper Table II with the derived speedup columns filled in."""
    base_load = PAPER_TABLE2_ROWS[0]["load_time_s"]
    base_reduce = PAPER_TABLE2_ROWS[0]["reduce_time_s"]
    rows = []
    for row in PAPER_TABLE2_ROWS:
        out = dict(row)
        out["speedup_load"] = round(base_load / row["load_time_s"], 2)
        out["speedup_reduce"] = round(base_reduce / row["reduce_time_s"], 2)
        rows.append(out)
    return rows


#: Amdahl serial fraction of the load phase (driver-side work).
LOAD_SERIAL_FRACTION = 0.052
#: Amdahl serial fraction of the reduce phase (result collection).
REDUCE_SERIAL_FRACTION = 0.0
#: Constant cost of registering the lazy UDF transformation.
MAP_REGISTRATION_TIME = 0.3


@dataclass(frozen=True)
class ClusterShape:
    """One cluster configuration of the sweep."""

    executors: int
    cores_per_executor: int

    def __post_init__(self) -> None:
        if self.executors < 1 or self.cores_per_executor < 1:
            raise ValueError("executors and cores_per_executor must be >= 1")

    @property
    def slots(self) -> int:
        """Total parallel execution slots."""
        return self.executors * self.cores_per_executor


@dataclass
class GCDClusterModel:
    """Calibrated cost model of the paper's Dataproc cluster.

    Parameters
    ----------
    num_images:
        Number of S2 tiles in the workload (4224 in the paper).
    load_cost_per_image:
        Seconds to read + decode one tile on one core.
    label_cost_per_image:
        Seconds to cloud/shadow-filter + colour-segment one tile on one core.
    scheduler_overhead_per_executor:
        Per-executor task-scheduling overhead added to each phase.

    The phases' serial fractions and the map's registration cost are this
    module's constants.
    """

    num_images: int = 4224
    load_cost_per_image: float = 108.0 / 4224.0
    label_cost_per_image: float = 390.0 / 4224.0
    scheduler_overhead_per_executor: float = 0.05

    def __post_init__(self) -> None:
        if self.num_images < 1:
            raise ValueError("num_images must be >= 1")

    # ------------------------------------------------------------------ #
    def _amdahl_time(self, serial_time: float, serial_fraction: float, slots: int) -> float:
        return serial_time * (serial_fraction + (1.0 - serial_fraction) / slots)

    def load_time(self, shape: ClusterShape) -> float:
        """Predicted wall time of loading the image archive into the dataframe."""
        serial = self.num_images * self.load_cost_per_image
        return (
            self._amdahl_time(serial, LOAD_SERIAL_FRACTION, shape.slots)
            + self.scheduler_overhead_per_executor * shape.executors
        )

    def map_time(self, shape: ClusterShape) -> float:
        """Predicted wall time of registering the (lazy) auto-label map transformation."""
        return MAP_REGISTRATION_TIME

    def reduce_time(self, shape: ClusterShape) -> float:
        """Predicted wall time of executing the UDF and collecting the labels."""
        serial = self.num_images * self.label_cost_per_image
        return (
            self._amdahl_time(serial, REDUCE_SERIAL_FRACTION, shape.slots)
            + self.scheduler_overhead_per_executor * shape.executors
        )

    # ------------------------------------------------------------------ #
    def predict_row(self, shape: ClusterShape) -> dict:
        """One Table II row (times + speedups relative to the 1×1 configuration)."""
        base = ClusterShape(1, 1)
        load = self.load_time(shape)
        red = self.reduce_time(shape)
        return {
            "executors": shape.executors,
            "cores": shape.cores_per_executor,
            "load_time_s": round(load, 4),
            "map_time_s": round(self.map_time(shape), 4),
            "reduce_time_s": round(red, 4),
            "speedup_load": round(self.load_time(base) / load, 2),
            "speedup_reduce": round(self.reduce_time(base) / red, 2),
        }

    def sweep(self) -> list[dict]:
        """Predict the full Table II sweep: the paper's 9 configurations."""
        return [self.predict_row(ClusterShape(e, c)) for e in (1, 2, 4) for c in (1, 2, 4)]

    @classmethod
    def calibrated_from_measurement(
        cls,
        num_images: int,
        measured_load_time: float,
        measured_reduce_time: float,
    ) -> "GCDClusterModel":
        """Build a model whose 1×1 row matches a locally measured single-core run.

        This ties the simulated cluster to the real per-image cost of *this*
        repository's filter + labeler instead of the paper's absolute numbers.
        """
        if measured_load_time <= 0 or measured_reduce_time <= 0:
            raise ValueError("measured times must be positive")
        # Scheduling overhead scales with the workload: for tiny local
        # measurements the paper-scale default (50 ms per executor) would
        # otherwise dominate and invert the scaling trend.
        return cls(
            num_images=num_images,
            load_cost_per_image=measured_load_time / num_images,
            label_cost_per_image=measured_reduce_time / num_images,
            scheduler_overhead_per_executor=min(0.05, 0.005 * measured_reduce_time),
        )

    def relative_error_vs_paper(self) -> float:
        """Mean relative error of the predicted sweep against the paper's Table II.

        Only meaningful for the default (paper-calibrated) parameters; used by
        the benchmark harness to quantify how well the model shape matches.
        """
        predicted = {(r["executors"], r["cores"]): r for r in self.sweep()}
        errors = []
        for row in PAPER_TABLE2_ROWS:
            key = (row["executors"], row["cores"])
            pred = predicted[key]
            for col in ("load_time_s", "reduce_time_s"):
                errors.append(abs(pred[col] - row[col]) / row[col])
        return float(np.mean(errors))
