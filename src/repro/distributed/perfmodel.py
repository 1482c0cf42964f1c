"""DGX A100 multi-GPU training performance model (Table III / Figure 12).

The paper trains its U-Net on an NVIDIA DGX A100 with Horovod and reports
wall time, time per epoch, throughput and speedup for 1–8 GPUs.  No GPUs are
available here, so the scaling table is regenerated from a calibrated
analytic model with three physically meaningful terms per epoch:

* **compute** — the per-GPU forward/backward work, which divides by the
  number of GPUs under synchronous data parallelism;
* **all-reduce communication** — the cost of Horovod's bandwidth-optimal ring
  all-reduce (Patarasuk & Yuan 2009),
  ``2 (p-1)/p · model_bytes / bandwidth + latency · 2 (p-1)``;
* **input pipeline** — host-side data preprocessing and batch preparation
  that does not parallelise across GPUs; the paper explicitly names this as
  the source of GPU starvation at higher GPU counts.

The defaults are calibrated so the 1-GPU row matches the paper (280.72 s for
50 epochs) and the serial fraction matches the observed efficiency roll-off
(7.21× at 8 GPUs).  The same class can be re-calibrated from a locally
measured single-worker epoch time so the simulated sweep reflects this
repository's own U-Net cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PAPER_TABLE3_ROWS", "paper_table3", "DGXTrainingModel"]


#: Verbatim rows of the paper's Table III.
PAPER_TABLE3_ROWS: list[dict] = [
    {"gpus": 1, "total_time_s": 280.72, "epoch_time_s": 5.5, "images_per_s": 585.88, "speedup": 1.00},
    {"gpus": 2, "total_time_s": 142.98, "epoch_time_s": 2.778, "images_per_s": 1160.81, "speedup": 1.96},
    {"gpus": 4, "total_time_s": 74.09, "epoch_time_s": 1.45, "images_per_s": 2229.56, "speedup": 3.79},
    {"gpus": 6, "total_time_s": 51.56, "epoch_time_s": 0.97, "images_per_s": 3330.03, "speedup": 5.44},
    {"gpus": 8, "total_time_s": 38.91, "epoch_time_s": 0.79, "images_per_s": 4248.56, "speedup": 7.21},
]


#: Training epochs (50 in the paper).
EPOCHS = 50
#: Batch size per GPU (32 in the paper), from which the number of optimisation steps per epoch at a given
#: GPU count follows.
PER_WORKER_BATCH_SIZE = 32
#: Effective all-reduce bandwidth between GPUs in gigabytes/second (NVLink-class on a DGX A100).
INTERCONNECT_GB_PER_S = 600.0
#: Per-communication-step latency of the all-reduce ring.
ALLREDUCE_LATENCY_S = 2.0e-5
#: The share of a measured epoch that does not scale with the GPU count (the input pipeline): the
#: fraction the paper's own efficiency curve implies.
SERIAL_FRACTION = 0.014


def paper_table3() -> list[dict]:
    """The paper's Table III rows (copied verbatim for side-by-side reporting)."""
    return [dict(row) for row in PAPER_TABLE3_ROWS]


@dataclass
class DGXTrainingModel:
    """Calibrated per-epoch cost model of Horovod U-Net training on a DGX A100.

    Parameters
    ----------
    images_per_epoch:
        Training images processed per epoch (the paper's 80 % split of 4224
        tiles ≈ 3379; the throughput column implies ≈ 3222, which is what the
        default reproduces).
    compute_time_per_image:
        Seconds of GPU compute per image on one A100.
    input_pipeline_time_per_epoch:
        Host-side preprocessing / batch-preparation seconds per epoch that do
        not scale with the GPU count (the paper's GPU-starvation term).
    model_megabytes:
        Size of the gradient buffer exchanged per step (U-Net with 31 M
        float32 parameters ≈ 124 MB).

    The run length, batch and interconnect are this module's constants.
    """

    images_per_epoch: int = 3379
    compute_time_per_image: float = 5.538 / 3379.0
    input_pipeline_time_per_epoch: float = 0.0766
    model_megabytes: float = 124.0

    def __post_init__(self) -> None:
        if self.images_per_epoch < 1:
            raise ValueError("images_per_epoch must be >= 1")
        if self.compute_time_per_image <= 0:
            raise ValueError("compute_time_per_image must be positive")

    # ------------------------------------------------------------------ #
    def steps_per_epoch(self, gpus: int) -> int:
        """Optimisation steps per epoch (global batch = per-worker batch × GPUs)."""
        if gpus < 1:
            raise ValueError("gpus must be >= 1")
        return max(1, int(np.ceil(self.images_per_epoch / (PER_WORKER_BATCH_SIZE * gpus))))

    def allreduce_time_per_step(self, gpus: int) -> float:
        """Ring all-reduce time for one gradient exchange at ``gpus`` workers."""
        if gpus < 1:
            raise ValueError("gpus must be >= 1")
        if gpus == 1:
            return 0.0
        bytes_exchanged = 2.0 * (gpus - 1) / gpus * self.model_megabytes * 1e6
        bandwidth = INTERCONNECT_GB_PER_S * 1e9
        return bytes_exchanged / bandwidth + ALLREDUCE_LATENCY_S * 2 * (gpus - 1)

    def epoch_time(self, gpus: int) -> float:
        """Predicted wall time of one epoch at ``gpus`` workers."""
        if gpus < 1:
            raise ValueError("gpus must be >= 1")
        compute = self.compute_time_per_image * self.images_per_epoch / gpus
        comm = self.allreduce_time_per_step(gpus) * self.steps_per_epoch(gpus)
        return compute + comm + self.input_pipeline_time_per_epoch

    def total_time(self, gpus: int) -> float:
        return self.epoch_time(gpus) * EPOCHS

    def throughput(self, gpus: int) -> float:
        """Images per second during one epoch (the paper's Data/s column)."""
        return self.images_per_epoch / self.epoch_time(gpus)

    def speedup(self, gpus: int) -> float:
        return self.total_time(1) / self.total_time(gpus)

    # ------------------------------------------------------------------ #
    def predict_row(self, gpus: int) -> dict:
        """One Table III row."""
        return {
            "gpus": gpus,
            "total_time_s": round(self.total_time(gpus), 2),
            "epoch_time_s": round(self.epoch_time(gpus), 3),
            "images_per_s": round(self.throughput(gpus), 2),
            "speedup": round(self.speedup(gpus), 2),
        }

    def sweep(self) -> list[dict]:
        """Predict the full Table III sweep: the paper's 1, 2, 4, 6 and 8 GPUs."""
        return [self.predict_row(g) for g in (1, 2, 4, 6, 8)]

    @classmethod
    def calibrated_from_measurement(
        cls,
        measured_epoch_time: float,
        images_per_epoch: int,
        model_parameters: int,
    ) -> "DGXTrainingModel":
        """Calibrate the model from a locally measured single-worker epoch.

        :data:`SERIAL_FRACTION` apportions the measured epoch time between the
        parallelisable compute term and the non-scaling input-pipeline term.
        """
        if measured_epoch_time <= 0:
            raise ValueError("measured_epoch_time must be positive")
        compute_total = measured_epoch_time * (1.0 - SERIAL_FRACTION)
        return cls(
            images_per_epoch=images_per_epoch,
            compute_time_per_image=compute_total / images_per_epoch,
            input_pipeline_time_per_epoch=measured_epoch_time * SERIAL_FRACTION,
            model_megabytes=model_parameters * 4 / 1e6,
        )

    def relative_error_vs_paper(self) -> float:
        """Mean relative error of the default-calibrated sweep against Table III."""
        errors = []
        for row in PAPER_TABLE3_ROWS:
            pred = self.predict_row(row["gpus"])
            for col in ("total_time_s", "speedup"):
                errors.append(abs(pred[col] - row[col]) / row[col])
        return float(sum(errors) / len(errors))
