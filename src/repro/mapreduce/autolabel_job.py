"""The auto-labeling job (paper §III-B): one load → map → reduce over tile spans.

Mirrors the paper's PySpark implementation: load the tile stack (copy it into one
shared-memory segment and cut it into contiguous spans), register the auto-label task
(the map), then run the task over every span on the process's started executors, which
outlive the job as the paper's do (:func:`repro.backend.base.session_backend`), and
gather the labelled tiles back on the driver (the reduce).  A worker, a respawned one
too, attaches the segment by name, so a task message is that name and a ``(start, stop)``
span, not tiles.  Table I (:func:`repro.workflow.autolabel_scaling_table`), Table II and
the auto-label workflow all run this one function, and it reports Table II's phase timings.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from ..backend.base import session_backend
from ..backend.store import attach_segment, close_segment, create_segment, ndarray_view
from ..labeling.autolabel import autolabel_batch
from ..metrics.scaling import PAPER_TABLE2_ROWS, TABLE2, TABLE2_LOAD_SERIAL_SHARE, table2_rows

__all__ = ["JobTimings", "MapReduceAutoLabelResult", "run_mapreduce_autolabel", "mapreduce_scaling_sweep"]


@dataclass
class JobTimings:
    """Wall-clock time of the three phases the paper's Table II reports."""

    load_time: float = 0.0
    map_time: float = 0.0
    reduce_time: float = 0.0

    def as_row(self) -> dict:
        return {
            "load_time_s": round(self.load_time, 4),
            "map_time_s": round(self.map_time, 4),
            "reduce_time_s": round(self.reduce_time, 4),
        }


@dataclass
class MapReduceAutoLabelResult:
    """Labels plus the per-phase timings of one auto-label job."""

    labels: np.ndarray
    timings: JobTimings
    num_partitions: int


#: Executor kind -> execution backend running the span tasks: ``serial`` is the 1-executor / 1-core
#: baseline, ``processes`` the local stand-in for the paper's multi-node Dataproc executors.
_EXECUTOR_BACKENDS = {"serial": "serial", "processes": "fork"}


def _cut_spans(num_tiles: int, count: int) -> list[tuple[int, int]]:
    """``count`` contiguous, balanced ``(start, stop)`` spans over ``num_tiles`` tiles, first spans one longer.

    More spans than tiles gives one span per tile; an empty stack gives the one span ``(0, 0)``."""
    if count < 1:
        raise ValueError("span count must be >= 1")
    count = min(count, max(1, num_tiles))
    base, extra = divmod(num_tiles, count)
    edges = list(itertools.accumulate((base + (i < extra) for i in range(count)), initial=0))
    return list(zip(edges, edges[1:]))


def _label_span(segment: str, shape: tuple[int, ...], dtype: str, apply_cloud_filter: bool, span: tuple[int, int]) -> np.ndarray:
    """The map task: label one span of a published stack (runs in the worker that receives the span)."""
    start, stop = span
    shm = attach_segment(segment)
    try:
        return autolabel_batch(ndarray_view(shm, shape, dtype=np.dtype(dtype), writeable=False)[start:stop], apply_cloud_filter)
    finally:
        close_segment(shm)


def run_mapreduce_autolabel(
    tiles: np.ndarray,
    executor: str = "processes",
    parallelism: int = 4,
    apply_cloud_filter: bool = True,
) -> MapReduceAutoLabelResult:
    """Auto-label an ``(N, H, W, 3)`` tile stack over ``min(N, 2 × parallelism)`` spans.

    ``executor`` is ``"serial"`` (one in-process slot; ``parallelism`` is
    ignored) or ``"processes"`` (``parallelism`` forked workers).  This is the
    *real* execution path (its labels equal :func:`~repro.labeling.autolabel_batch`'s);
    the simulated-cluster sweep below only predicts times.
    """
    stack = np.asarray(tiles)
    if stack.ndim != 4 or stack.shape[-1] != 3:
        raise ValueError(f"expected (N, H, W, 3) tile stack, got shape {stack.shape}")
    executor = executor.lower()
    if executor not in _EXECUTOR_BACKENDS:
        raise ValueError(f"unknown executor kind {executor!r}; expected serial / processes")
    if executor == "serial":
        parallelism = 1
    elif parallelism < 1:
        raise ValueError("parallelism must be >= 1")

    backend = session_backend(_EXECUTOR_BACKENDS[executor], parallelism)
    start = time.perf_counter()
    shm = create_segment(stack.nbytes)
    try:
        ndarray_view(shm, stack.shape, dtype=stack.dtype)[...] = stack
        spans = _cut_spans(len(stack), 2 * parallelism)
        loaded = time.perf_counter()
        task = partial(_label_span, shm.name, stack.shape, stack.dtype.str, apply_cloud_filter)
        mapped = time.perf_counter()
        labels = np.concatenate(backend.map(task, spans, chunk_size=1))
    finally:
        close_segment(shm, unlink=True)
    timings = JobTimings(load_time=loaded - start, map_time=mapped - loaded, reduce_time=time.perf_counter() - mapped)
    return MapReduceAutoLabelResult(labels=labels, timings=timings, num_partitions=len(spans))


def mapreduce_scaling_sweep(tiles: np.ndarray) -> list[dict]:
    """Run a single-core job over ``tiles`` and produce the Table II sweep calibrated on it.

    The load and reduce phases of :data:`~repro.metrics.scaling.TABLE2` are
    re-calibrated on the job.  Of the calibrated 1×1 row, only the reduce
    column is measured (the job's labelling + gather time).  The load column
    is modelled: the local load only registers an in-memory stack, unlike the
    paper's read of the image archive from cloud storage, so it is set to the
    measured reduce time × the paper's 108 / 390 load-to-label ratio.  The map
    column is the constant registration cost, and every other row is predicted
    from the 1×1 row (:func:`~repro.metrics.scaling.table2_rows`).
    """
    stack = np.asarray(tiles)
    measured = run_mapreduce_autolabel(stack, executor="serial", parallelism=1)
    reduce_time = max(measured.timings.reduce_time, 1e-4)
    paper = PAPER_TABLE2_ROWS[0]
    load, registration, reduce = TABLE2
    # Scheduling overhead scales with the workload: for a small local measurement the
    # paper-scale 50 ms per executor would dominate and invert the scaling trend.
    overhead = min(load.per_node_s, 0.005 * reduce_time)
    return table2_rows(
        replace(load.calibrated(reduce_time * (paper["load_time_s"] / paper["reduce_time_s"]), TABLE2_LOAD_SERIAL_SHARE), per_node_s=overhead),
        registration,
        replace(reduce.calibrated(reduce_time, 0.0), per_node_s=overhead),
    )
