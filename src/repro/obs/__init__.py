"""Observability substrate: metrics registry, request tracing, profiling hooks.

* :mod:`repro.obs.metrics` — thread/fork-safe counters, gauges, and
  fixed-bucket latency histograms with Prometheus text rendering and a
  drain/merge protocol for fork-worker delta piggybacking.
* :mod:`repro.obs.trace` — per-request trace ids, sampled structured-JSON
  trace logs, and the thread-local stage-span collector stack.
* :mod:`repro.obs.profile` — opt-in per-step / per-layer timers and the
  runners behind ``repro-seaice profile``.
"""

from .metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    METRICS_ENV_VAR,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_metrics_enabled,
)
from .profile import (
    LayerTimer,
    latency_percentiles,
    profile_inference,
    profile_training,
)
from .trace import (
    TRACE_ENV_VAR,
    TRACE_LOG_ENV_VAR,
    TRACE_SAMPLE_ENV_VAR,
    collector_context,
    current_trace_id,
    emit_trace,
    new_trace_id,
    pop_collector,
    push_collector,
    record,
    should_sample,
    span,
    trace_mode,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_MS",
    "METRICS_ENV_VAR",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_metrics_enabled",
    "LayerTimer",
    "latency_percentiles",
    "profile_inference",
    "profile_training",
    "TRACE_ENV_VAR",
    "TRACE_LOG_ENV_VAR",
    "TRACE_SAMPLE_ENV_VAR",
    "collector_context",
    "current_trace_id",
    "emit_trace",
    "new_trace_id",
    "pop_collector",
    "push_collector",
    "record",
    "should_sample",
    "span",
    "trace_mode",
]
