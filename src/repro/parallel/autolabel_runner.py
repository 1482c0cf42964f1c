"""Parallel auto-labeling runner (the workload of Table I / Figure 10).

The auto-labeling of Sentinel-2 tiles is embarrassingly parallel: every tile
is filtered and segmented independently.  This module maps the labeler over
a tile stack on a fresh fork backend (:meth:`repro.backend.Backend.map`) at a
configurable process count and reports the (process count, wall time)
scaling table.  The per-item work stays vectorised NumPy; chunks are sized
so each worker receives a few large messages rather than thousands of tiny
ones; and the workers are forked, so the read-only tile stack is shared
copy-on-write instead of being pickled to every worker.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..backend import make_backend
from ..labeling.autolabel import autolabel_tile
from ..metrics.scaling import ScalingPoint, ScalingTable

__all__ = ["AutoLabelRunConfig", "run_parallel_autolabel", "autolabel_scaling_table"]


@dataclass(frozen=True)
class AutoLabelRunConfig:
    """Configuration of one parallel auto-labeling run."""

    num_workers: int = 1
    chunk_size: int | None = None
    apply_cloud_filter: bool = True


def _label_one(tile: np.ndarray) -> np.ndarray:
    """Module-level worker function (picklable) with the paper's default settings."""
    return autolabel_tile(tile, apply_cloud_filter=True)


def _label_one_unfiltered(tile: np.ndarray) -> np.ndarray:
    return autolabel_tile(tile, apply_cloud_filter=False)


def _timed_map(func: Callable, items: list, num_workers: int,
               chunk_size: int | None = None) -> tuple[list, float]:
    """Map ``func`` over ``items`` on a fresh backend; returns ``(results, seconds)``.

    One worker runs in-process (the ``Ts`` baseline row of Table I); more
    fork that many workers, whose start-up is part of the measured time.
    """
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    start = time.perf_counter()
    with make_backend("fork" if num_workers > 1 else "serial", num_workers) as backend:
        results = backend.map(func, items, chunk_size=chunk_size)
    return results, time.perf_counter() - start


def run_parallel_autolabel(
    tiles: np.ndarray,
    config: AutoLabelRunConfig = AutoLabelRunConfig(),
) -> tuple[np.ndarray, float]:
    """Auto-label a ``(N, H, W, 3)`` tile stack in parallel.

    Returns ``(labels, elapsed_seconds)`` with ``labels`` of shape ``(N, H, W)``.
    """
    stack = np.asarray(tiles)
    if stack.ndim != 4 or stack.shape[-1] != 3:
        raise ValueError(f"expected (N, H, W, 3) tile stack, got shape {stack.shape}")
    func = _label_one if config.apply_cloud_filter else _label_one_unfiltered
    results, elapsed = _timed_map(func, list(stack), config.num_workers, config.chunk_size)
    return np.stack(results), elapsed


def autolabel_scaling_table(
    tiles: np.ndarray,
    worker_counts: tuple[int, ...] = (1, 2, 4, 6, 8),
    apply_cloud_filter: bool = True,
) -> ScalingTable:
    """Measure auto-labeling wall time at several process counts (Table I).

    The returned :class:`~repro.metrics.scaling.ScalingTable` exposes the
    speedup column exactly as the paper tabulates it (``S = Ts / Tp`` with
    ``Ts`` the 1-process row).
    """
    stack = np.asarray(tiles)
    func = _label_one if apply_cloud_filter else _label_one_unfiltered
    items = list(stack)
    points = [
        ScalingPoint(workers=workers, time=_timed_map(func, items, workers)[1], items=stack.shape[0])
        for workers in worker_counts
    ]
    return ScalingTable(points=points, label="Python multiprocessing auto-labeling")
