"""Thread/fork-safe metrics registry: counters, gauges, latency histograms.

The serving hot path calls :meth:`Counter.inc` and :meth:`Histogram.observe`
thousands of times per second, so the design keeps the common case cheap:

* **Lock-light updates.**  Every metric family holds one small lock that
  guards a plain dict of per-label-set cells; an update is one dict lookup
  plus one in-place add.  Histogram cells are *preallocated* bucket-count
  lists — ``observe`` is a C ``bisect`` over a fixed boundary tuple plus one
  element increment, no allocation.  Hot paths with a fixed label set bind
  it once via :meth:`Counter.labels` / :meth:`Histogram.labels` and skip
  per-call label validation entirely.
* **A kill switch.**  ``set_metrics_enabled(False)`` (env
  ``REPRO_METRICS=off``) turns every update into a single attribute check
  and return, which is what the serving benchmark's overhead gate compares
  against.
* **Fork-delta accumulation.**  A forked backend worker must not write to
  the parent's registry (it has its own copy-on-write clone), so workers
  call :meth:`MetricsRegistry.reset` right after fork, accumulate locally,
  and :meth:`MetricsRegistry.drain` their counts into the reply messages
  they already send — the parent folds the deltas in with
  :meth:`MetricsRegistry.merge`.  The hot path never crosses a
  cross-process lock.

:meth:`MetricsRegistry.render_prometheus` emits the text exposition format
(``text/plain; version=0.0.4``) the ``/metrics`` endpoint serves.
"""

from __future__ import annotations

import bisect
import math
import os
import threading
from typing import Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "get_registry",
    "set_metrics_enabled",
    "METRICS_ENV_VAR",
]

#: ``REPRO_METRICS=off`` disables every metric update process-wide.
METRICS_ENV_VAR = "REPRO_METRICS"

#: Default latency buckets (milliseconds): sub-millisecond compiled-plan
#: steps through multi-second scene classifications, roughly 2.5x apart.
DEFAULT_LATENCY_BUCKETS_MS = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)

_NAME_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def _validate_name(name: str) -> str:
    if not name or name[0].isdigit() or not set(name) <= _NAME_OK:
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    as_int = int(value)
    return str(as_int) if as_int == value else repr(float(value))


class _Metric:
    """Shared machinery of one metric family (name + help + label names)."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Iterable[str] = (),
                 registry: "MetricsRegistry | None" = None) -> None:
        self.name = _validate_name(name)
        self.help = help
        self.labelnames = tuple(labelnames)
        for label in self.labelnames:
            _validate_name(label)
        self._registry = registry
        self._lock = threading.Lock()
        self._cells: dict[tuple[str, ...], object] = {}

    # ------------------------------------------------------------------ #
    def _key(self, labels: Mapping[str, object]) -> tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, got {sorted(labels)}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    @property
    def _enabled(self) -> bool:
        return self._registry is None or self._registry.enabled

    def _label_str(self, key: tuple[str, ...], extra: str = "") -> str:
        pairs = [f'{n}="{_escape_label_value(v)}"' for n, v in zip(self.labelnames, key)]
        if extra:
            pairs.append(extra)
        return "{" + ",".join(pairs) + "}" if pairs else ""


class _BoundCounter:
    """A counter cell with its label key pre-resolved (hot-path handle)."""

    __slots__ = ("_metric", "_key")

    def __init__(self, metric: "Counter", key: tuple[str, ...]) -> None:
        self._metric = metric
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        metric = self._metric
        if not metric._enabled:
            return
        if amount < 0:
            raise ValueError("counters can only increase")
        with metric._lock:
            metric._cells[self._key] = metric._cells.get(self._key, 0.0) + amount


class _BoundGauge:
    """A gauge cell with its label key pre-resolved (hot-path handle)."""

    __slots__ = ("_metric", "_key")

    def __init__(self, metric: "Gauge", key: tuple[str, ...]) -> None:
        self._metric = metric
        self._key = key

    def set(self, value: float) -> None:
        metric = self._metric
        if not metric._enabled:
            return
        with metric._lock:
            metric._cells[self._key] = float(value)

    def inc(self, amount: float = 1.0) -> None:
        metric = self._metric
        if not metric._enabled:
            return
        with metric._lock:
            metric._cells[self._key] = metric._cells.get(self._key, 0.0) + amount


class _BoundHistogram:
    """A histogram cell with its label key pre-resolved (hot-path handle)."""

    __slots__ = ("_metric", "_key")

    def __init__(self, metric: "Histogram", key: tuple[str, ...]) -> None:
        self._metric = metric
        self._key = key

    def observe(self, value: float) -> None:
        metric = self._metric
        if not metric._enabled:
            return
        index = bisect.bisect_left(metric.buckets, value)
        with metric._lock:
            cell = metric._cell(self._key)
            cell.counts[index] += 1
            cell.total += value
            cell.count += 1


class Counter(_Metric):
    """A monotonically increasing float per label set."""

    kind = "counter"

    def labels(self, **labels: object) -> _BoundCounter:
        """Pre-resolve a label set; the handle's :meth:`~_BoundCounter.inc` skips validation."""
        return _BoundCounter(self, self._key(labels))

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if not self._enabled:
            return
        if amount < 0:
            raise ValueError("counters can only increase")
        key = self._key(labels)
        with self._lock:
            self._cells[key] = self._cells.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        with self._lock:
            return float(self._cells.get(self._key(labels), 0.0))

    # -- registry hooks ------------------------------------------------- #
    def _drain(self) -> dict:
        with self._lock:
            cells, self._cells = self._cells, {}
        return cells

    def _merge(self, cells: Mapping[tuple[str, ...], float]) -> None:
        with self._lock:
            for key, value in cells.items():
                key = tuple(key)
                self._cells[key] = self._cells.get(key, 0.0) + value

    def _render(self) -> list[str]:
        with self._lock:
            cells = sorted(self._cells.items())
        return [f"{self.name}{self._label_str(k)} {_format_value(v)}" for k, v in cells]

    def _to_dict(self) -> dict:
        with self._lock:
            return {"/".join(k) if k else "": v for k, v in sorted(self._cells.items())}


class Gauge(_Metric):
    """A value that can go up and down (queue depths, worker occupancy)."""

    kind = "gauge"

    def labels(self, **labels: object) -> _BoundGauge:
        """Pre-resolve a label set; the handle's updates skip validation."""
        return _BoundGauge(self, self._key(labels))

    def set(self, value: float, **labels: object) -> None:
        if not self._enabled:
            return
        key = self._key(labels)
        with self._lock:
            self._cells[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if not self._enabled:
            return
        key = self._key(labels)
        with self._lock:
            self._cells[key] = self._cells.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        with self._lock:
            return float(self._cells.get(self._key(labels), 0.0))

    # Gauges describe *this* process's live state; fork deltas make no sense
    # for them, so drain snapshots without resetting and merge overwrites.
    def _drain(self) -> dict:
        with self._lock:
            return dict(self._cells)

    def _merge(self, cells: Mapping[tuple[str, ...], float]) -> None:
        with self._lock:
            for key, value in cells.items():
                self._cells[tuple(key)] = value

    def _render(self) -> list[str]:
        with self._lock:
            cells = sorted(self._cells.items())
        return [f"{self.name}{self._label_str(k)} {_format_value(v)}" for k, v in cells]

    def _to_dict(self) -> dict:
        with self._lock:
            return {"/".join(k) if k else "": v for k, v in sorted(self._cells.items())}


class _HistCell:
    """Preallocated per-label-set histogram state: bucket counts + sum."""

    __slots__ = ("counts", "total", "count")

    def __init__(self, num_buckets: int) -> None:
        self.counts = [0] * num_buckets  # one per finite bound + overflow
        self.total = 0.0
        self.count = 0


class Histogram(_Metric):
    """Fixed-bucket latency histogram (cumulative ``le`` semantics on render).

    ``buckets`` are the finite upper bounds in ascending order; an implicit
    ``+Inf`` overflow bucket is always present.  ``observe`` is one C-level
    ``bisect`` into the boundary tuple plus an element increment — no
    allocation, one short lock.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "", labelnames: Iterable[str] = (),
                 buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS_MS,
                 registry: "MetricsRegistry | None" = None) -> None:
        super().__init__(name, help, labelnames, registry)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("histogram buckets must be strictly increasing and non-empty")
        if math.inf in bounds:
            bounds = bounds[:-1]
        self.buckets = bounds

    def _cell(self, key: tuple[str, ...]) -> _HistCell:
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = _HistCell(len(self.buckets) + 1)
        return cell

    def labels(self, **labels: object) -> _BoundHistogram:
        """Pre-resolve a label set; the handle's :meth:`~_BoundHistogram.observe` skips validation."""
        return _BoundHistogram(self, self._key(labels))

    def observe(self, value: float, **labels: object) -> None:
        if not self._enabled:
            return
        key = self._key(labels)
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            cell = self._cell(key)
            cell.counts[index] += 1
            cell.total += value
            cell.count += 1

    # ------------------------------------------------------------------ #
    def snapshot(self, **labels: object) -> dict:
        """``{"buckets": [...], "counts": [...], "sum": s, "count": n}`` for one label set."""
        key = self._key(labels)
        with self._lock:
            cell = self._cells.get(key)
            if cell is None:
                return {"buckets": list(self.buckets),
                        "counts": [0] * (len(self.buckets) + 1), "sum": 0.0, "count": 0}
            return {"buckets": list(self.buckets), "counts": list(cell.counts),
                    "sum": cell.total, "count": cell.count}

    # -- registry hooks ------------------------------------------------- #
    def _drain(self) -> dict:
        with self._lock:
            cells, self._cells = self._cells, {}
        return {key: (list(cell.counts), cell.total, cell.count)
                for key, cell in cells.items()}

    def _merge(self, cells: Mapping[tuple[str, ...], tuple]) -> None:
        with self._lock:
            for key, (counts, total, count) in cells.items():
                cell = self._cell(tuple(key))
                for index, bucket_count in enumerate(counts):
                    cell.counts[index] += int(bucket_count)
                cell.total += total
                cell.count += count

    def _render(self) -> list[str]:
        with self._lock:
            cells = {key: (list(cell.counts), cell.total, cell.count)
                     for key, cell in sorted(self._cells.items())}
        lines = []
        for key, (counts, total, count) in cells.items():
            cumulative = 0
            for bound, bucket_count in zip(self.buckets + (math.inf,), counts):
                cumulative += int(bucket_count)
                le = f'le="{_format_value(bound)}"'
                lines.append(f"{self.name}_bucket{self._label_str(key, le)} {cumulative}")
            lines.append(f"{self.name}_sum{self._label_str(key)} {_format_value(total)}")
            lines.append(f"{self.name}_count{self._label_str(key)} {count}")
        return lines

    def _to_dict(self) -> dict:
        with self._lock:
            return {
                "/".join(key) if key else "": {
                    "count": cell.count,
                    "sum": round(cell.total, 3),
                }
                for key, cell in sorted(self._cells.items())
            }


class MetricsRegistry:
    """Name → metric family map with get-or-create semantics.

    ``counter``/``gauge``/``histogram`` are idempotent: asking for an
    existing name returns the existing family (and validates that the kind
    and label names agree), so every module can declare the metrics it
    touches without import-order coupling.
    """

    def __init__(self, enabled: bool | None = None) -> None:
        if enabled is None:
            enabled = os.environ.get(METRICS_ENV_VAR, "").strip().lower() not in ("off", "0", "false")
        self.enabled = bool(enabled)
        self._metrics: "dict[str, _Metric]" = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def _get_or_create(self, cls, name: str, help: str, labelnames, **kwargs) -> _Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind} "
                        f"with labels {existing.labelnames}"
                    )
                return existing
            metric = cls(name, help=help, labelnames=labelnames, registry=self, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "", labelnames: Iterable[str] = (),
                  buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS_MS) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames, buckets=tuple(buckets))

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    # ------------------------------------------------------------------ #
    # Fork-delta accumulation
    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Zero every cell (a forked worker's first act: drop inherited counts)."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            if isinstance(metric, Gauge):
                with metric._lock:
                    metric._cells.clear()
            else:
                metric._drain()

    def drain(self) -> dict:
        """Atomically take (and zero) every accumulated delta, JSON-pickle-safe.

        Returns ``{}`` when nothing accumulated, so piggybacking callers can
        skip attaching an empty payload.  Gauges are snapshotted, not zeroed
        (they describe live state, not a flow).
        """
        with self._lock:
            metrics = list(self._metrics.items())
        drained = {}
        for name, metric in metrics:
            cells = metric._drain()
            if cells:
                drained[name] = {
                    "kind": metric.kind,
                    "help": metric.help,
                    "labelnames": metric.labelnames,
                    "cells": cells,
                    **({"buckets": metric.buckets} if isinstance(metric, Histogram) else {}),
                }
        return drained

    def merge(self, drained: Mapping[str, dict]) -> None:
        """Fold a :meth:`drain` payload (from a worker) into this registry."""
        for name, payload in drained.items():
            kind = payload["kind"]
            labelnames = tuple(payload.get("labelnames", ()))
            if kind == "counter":
                metric = self.counter(name, payload.get("help", ""), labelnames)
            elif kind == "gauge":
                metric = self.gauge(name, payload.get("help", ""), labelnames)
            else:
                metric = self.histogram(name, payload.get("help", ""), labelnames,
                                        buckets=payload.get("buckets", DEFAULT_LATENCY_BUCKETS_MS))
            metric._merge(payload["cells"])

    # ------------------------------------------------------------------ #
    # Exposition
    # ------------------------------------------------------------------ #
    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format 0.0.4."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        lines: list[str] = []
        for name, metric in metrics:
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            lines.extend(metric._render())
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        """Compact JSON summary of every family (the ``/stats`` ``metrics`` block)."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        return {name: metric._to_dict() for name, metric in metrics}


#: Process-wide default registry every instrumented module shares.
_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default :class:`MetricsRegistry`."""
    return _default_registry


def set_metrics_enabled(enabled: bool) -> None:
    """Turn every update on the default registry on or off (the bench knob)."""
    _default_registry.enabled = bool(enabled)

