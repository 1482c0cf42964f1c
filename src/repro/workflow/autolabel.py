"""End-to-end auto-labeling workflow (paper Figures 1, 2 and 6).

Collects the pieces — synthetic scene archive, thin-cloud/shadow filter,
colour-segmentation labeler, and the map-reduce job on an execution backend
— into the single pipeline the paper calls "training data preparation": from
raw scenes to an auto-labelled tile dataset, with per-phase timing and
label-quality metrics (SSIM against manual labels).  The Table I harness
(:func:`autolabel_scaling_table`, the paper's §III-B(a) multiprocessing arm)
times the same job at several process counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..backend.base import resolve_backend_name, session_backend
from ..classes import class_map_to_color
from ..data.catalog import TileDataset
from ..labeling.manual import simulate_manual_labels
from ..mapreduce.autolabel_job import run_mapreduce_autolabel
from ..metrics.scaling import ScalingPoint, ScalingTable
from ..metrics.ssim import mean_ssim_over_pairs

__all__ = [
    "AutoLabelWorkflowConfig",
    "AutoLabelWorkflowResult",
    "AutoLabelWorkflow",
    "autolabel_scaling_table",
]


@dataclass(frozen=True)
class AutoLabelWorkflowConfig:
    """Configuration of the training-data-preparation pipeline.

    ``backend`` names the execution backend the auto-label job's span tasks
    run on, in the vocabulary ``classify`` and ``serve`` speak:
    ``"serial"``, ``"fork"`` or ``"auto"`` (the default, which
    honours ``REPRO_BACKEND`` and otherwise forks when ``num_workers > 1``).
    """

    backend: str = "auto"
    num_workers: int = 1
    apply_cloud_filter: bool = True

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.resolved_backend()  # rejects unknown names (and fork on fork-less platforms)

    def resolved_backend(self) -> str:
        """The concrete backend name this config runs on."""
        return resolve_backend_name(self.backend, self.num_workers)


@dataclass
class AutoLabelWorkflowResult:
    """Auto-labels plus quality metrics and timing of one pipeline run."""

    auto_labels: np.ndarray
    manual_labels: np.ndarray
    elapsed_s: float
    backend: str
    ssim_vs_manual: float
    pixel_agreement: float

    def summary(self) -> dict:
        return {
            "backend": self.backend,
            "tiles": int(self.auto_labels.shape[0]),
            "elapsed_s": round(self.elapsed_s, 3),
            "ssim_vs_manual": round(self.ssim_vs_manual, 4),
            "pixel_agreement": round(self.pixel_agreement, 4),
        }


@dataclass
class AutoLabelWorkflow:
    """Runs auto-labeling over a :class:`~repro.data.catalog.TileDataset`."""

    config: AutoLabelWorkflowConfig = field(default_factory=AutoLabelWorkflowConfig)

    def run(self, dataset: TileDataset, manual_labels: np.ndarray | None = None) -> AutoLabelWorkflowResult:
        """Label every tile of ``dataset`` and score the labels against manual annotation.

        ``manual_labels`` defaults to simulated manual annotation of the
        dataset's ground truth (what the paper's Earth scientists produced).
        """
        cfg = self.config
        backend = cfg.resolved_backend()
        start = time.perf_counter()
        labels = run_mapreduce_autolabel(
            dataset.images, executor="processes" if backend == "fork" else "serial", parallelism=cfg.num_workers,
            apply_cloud_filter=cfg.apply_cloud_filter,
        ).labels
        elapsed = time.perf_counter() - start

        if manual_labels is None:
            manual_labels = simulate_manual_labels(dataset.labels, seed=0)
        manual_labels = np.asarray(manual_labels)
        if manual_labels.shape != labels.shape:
            raise ValueError("manual labels must match the auto-label shape")

        auto_rgb = np.stack([class_map_to_color(labels[i]) for i in range(labels.shape[0])])
        manual_rgb = np.stack([class_map_to_color(manual_labels[i]) for i in range(manual_labels.shape[0])])
        ssim_value = mean_ssim_over_pairs(auto_rgb, manual_rgb)
        agreement = float(np.mean(labels == manual_labels))

        return AutoLabelWorkflowResult(
            auto_labels=labels,
            manual_labels=manual_labels,
            elapsed_s=elapsed,
            backend=backend,
            ssim_vs_manual=ssim_value,
            pixel_agreement=agreement,
        )


def autolabel_scaling_table(
    tiles: np.ndarray,
    worker_counts: tuple[int, ...] = (1, 2, 4, 6, 8),
) -> ScalingTable:
    """Measure auto-labeling wall time at several process counts (Table I).

    Each row is one timed :func:`~repro.mapreduce.run_mapreduce_autolabel`
    job over the stack: one worker runs in-process (the ``Ts`` baseline row);
    more run on that many fork workers, started before the row's clock starts
    (the paper's executors outlive their jobs), so a row times load → map →
    reduce only.  The workers attach the published stack and are sent
    ``(start, stop)`` spans, as in Table II's job.  The returned
    :class:`~repro.metrics.scaling.ScalingTable` exposes the speedup column
    exactly as the paper tabulates it (``S = Ts / Tp``).
    """
    bad = [workers for workers in worker_counts if workers < 1]
    if bad:
        raise ValueError(f"worker counts must be >= 1, got {bad}")
    stack = np.asarray(tiles)
    points = []
    for workers in worker_counts:
        session_backend("fork" if workers > 1 else "serial", workers)
        start = time.perf_counter()
        run_mapreduce_autolabel(stack, executor="processes" if workers > 1 else "serial", parallelism=workers)
        points.append(ScalingPoint(workers=workers, time=time.perf_counter() - start, items=len(stack)))
    return ScalingTable(points=points, label="Python multiprocessing auto-labeling")
