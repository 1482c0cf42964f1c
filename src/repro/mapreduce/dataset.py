"""The sparklite distributed dataset: a lazy map and an eager collect.

This is the PySpark substitute.  ``SparkLiteContext.parallelize`` splits a
collection into partitions, ``Dataset.map`` records a *lazy* transformation
(nothing executes, exactly as in Spark — which is why the paper's "Map Time"
column is ~0.3 s), and ``Dataset.collect`` materialises the lineage — one
task per partition through :meth:`repro.backend.Backend.map` — on the
execution backend the context's executor kind names.  Per-phase wall times
(load / map / reduce) are recorded on the context so the Table II harness
can report them.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..backend import make_backend
from .partition import Partition, default_num_partitions, partition_items

__all__ = ["JobTimings", "SparkLiteContext", "Dataset"]


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


@dataclass(frozen=True)
class _MapOp:
    func: Callable

    def apply(self, items: list) -> list:
        return [self.func(item) for item in items]


#: Partition lists of the actions in flight, by action id.  An action registers its partitions
#: *before* its backend forks, so worker processes inherit them copy-on-write (as does a worker
#: respawned mid-action) and a task message carries a partition index, not the partition.
_IN_FLIGHT: dict[int, list] = {}
_ACTION_IDS = itertools.count()


class _PipelineTask:
    """Picklable per-partition task that applies the whole lineage in one pass.

    Implemented as a class (not a closure) so the fork backend can ship it
    to worker processes; called with the index of a partition of its action.
    """

    def __init__(self, ops: tuple, action: int) -> None:
        self.ops = ops
        self.action = action

    def __call__(self, index: int) -> list:
        items = list(_IN_FLIGHT[self.action][index].items)
        for op in self.ops:
            items = op.apply(items)
        return items


# --------------------------------------------------------------------------- #
# Context and dataset
# --------------------------------------------------------------------------- #
#: Executor kind -> execution backend running its partition tasks:
#: ``serial`` is the 1-executor / 1-core baseline, ``threads`` suits UDFs
#: that release the GIL (NumPy-heavy ones largely do), ``processes`` is the
#: local stand-in for the paper's multi-node Dataproc executors.
_EXECUTOR_BACKENDS = {"serial": "serial", "threads": "thread", "processes": "fork"}


class SparkLiteContext:
    """Driver-side entry point: owns the executor choice and job timings."""

    def __init__(self, executor: str = "serial", parallelism: int = 4) -> None:
        executor = executor.lower()
        if executor not in _EXECUTOR_BACKENDS:
            raise ValueError(
                f"unknown executor kind {executor!r}; expected serial / threads / processes")
        if executor == "serial":
            parallelism = 1
        elif parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        self.executor = executor
        #: number of concurrent execution slots partition tasks run on
        self.parallelism = int(parallelism)
        self.last_timings = JobTimings()

    # ------------------------------------------------------------------ #
    def parallelize(self, items: Iterable, num_partitions: int | None = None) -> "Dataset":
        """Distribute a collection into a :class:`Dataset` (the load phase).

        The wall time of this call is recorded as ``load_time`` — it is the
        analogue of reading the S2 image archive into a PySpark dataframe.
        """
        start = time.perf_counter()
        items = list(items)
        if num_partitions is None:
            num_partitions = default_num_partitions(len(items), self.parallelism)
        partitions = partition_items(items, num_partitions)
        self.last_timings = JobTimings(load_time=time.perf_counter() - start)
        return Dataset(context=self, partitions=partitions)

    def read_image_stack(self, stack, num_partitions: int | None = None) -> "Dataset":
        """Load an ``(N, ...)`` ndarray as a dataset of per-image items."""
        return self.parallelize(list(stack), num_partitions=num_partitions)


@dataclass
class Dataset:
    """An immutable, lazily mapped, partitioned collection."""

    context: SparkLiteContext
    partitions: list[Partition]
    lineage: tuple = field(default_factory=tuple)

    def map(self, func: Callable) -> "Dataset":
        """Lazily apply ``func`` to every item (the auto-labeling UDF in the paper)."""
        start = time.perf_counter()
        derived = Dataset(context=self.context, partitions=self.partitions, lineage=self.lineage + (_MapOp(func),))
        # Registering a transformation is (nearly) free; accumulate it so the
        # Table II "Map Time" column measures what PySpark's does.
        self.context.last_timings.map_time += time.perf_counter() - start
        return derived

    def collect(self) -> list:
        """Run the lineage and gather all items on the driver (the Reduce phase)."""
        start = time.perf_counter()
        context = self.context
        action = next(_ACTION_IDS)
        _IN_FLIGHT[action] = self.partitions
        try:
            # One task message per partition, on a backend that lives (and forks) inside the registration.
            with make_backend(_EXECUTOR_BACKENDS[context.executor], context.parallelism) as backend:
                per_partition = backend.map(
                    _PipelineTask(self.lineage, action), range(len(self.partitions)), chunk_size=1)
        finally:
            del _IN_FLIGHT[action]
        context.last_timings.reduce_time += time.perf_counter() - start
        return [item for part in per_partition for item in part]

    def num_partitions(self) -> int:
        return len(self.partitions)
