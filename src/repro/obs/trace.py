"""Request tracing: trace ids, stage-span collection, sampled JSON trace logs.

One trace follows one request through the stack: the HTTP handler mints (or
honours ``X-Request-Id``) a trace id, the serving layer collects per-stage
spans — queue wait, batch assembly, dispatch, compute, stitch — and, when
the trace is sampled, emits a single structured-JSON record to the trace
log.  ``REPRO_TRACE`` picks the mode:

* ``off`` (unset or empty) — no records are emitted (ids still flow, so
  responses always carry a ``trace_id``);
* ``sampled`` — a deterministic hash of the trace id keeps roughly
  ``REPRO_TRACE_SAMPLE`` (default 0.1, clamped to [0, 1]; a value that is
  not a number raises) of traces;
* ``all`` — every trace is emitted.

Any other value raises a :class:`ValueError` naming the valid modes.  Records
go to ``REPRO_TRACE_LOG`` (a JSONL file, opened lazily, reopened when the
variable names another path, and appended under a lock) or stderr when unset.

Stage timings cross layer boundaries without threading new parameters
through every signature: the batcher pushes a thread-local **collector**
dict before invoking the prediction seam, and the innermost layer that
knows a number (the backend's compute timing, a fork worker's reply
metadata) calls :func:`record` — one thread-local attribute check when no
collector is active, so the hot path without tracing stays free.

Fork propagation: the parent stashes the current trace id next to the
collector; the process backend copies it into dispatch messages, the worker
echoes it in reply metadata, and the parent records the worker-measured
compute time into the active collector — so a fork-served request reports
real worker compute, not just round-trip time.
"""

from __future__ import annotations

import json
import math
import os
import sys
import threading
import time
import uuid
from contextlib import contextmanager

__all__ = [
    "TRACE_ENV_VAR",
    "TRACE_SAMPLE_ENV_VAR",
    "TRACE_LOG_ENV_VAR",
    "new_trace_id",
    "trace_mode",
    "should_sample",
    "emit_trace",
    "push_collector",
    "pop_collector",
    "record",
    "current_trace_id",
    "collector_context",
]

#: ``off`` | ``sampled`` | ``all``
TRACE_ENV_VAR = "REPRO_TRACE"
#: sample probability for ``sampled`` mode (default 0.1)
TRACE_SAMPLE_ENV_VAR = "REPRO_TRACE_SAMPLE"
#: JSONL sink path (default: stderr)
TRACE_LOG_ENV_VAR = "REPRO_TRACE_LOG"

_VALID_MODES = ("off", "sampled", "all")

_log_file = None
_log_path: str | None = None  # what ``_log_file`` was opened for ("" for stderr)
_log_lock = threading.Lock()


def new_trace_id() -> str:
    """A fresh 32-hex trace id (uuid4, no dashes)."""
    return uuid.uuid4().hex


def trace_mode() -> str:
    """``REPRO_TRACE``'s mode; unset or empty is ``off``, an unknown value raises."""
    raw = os.environ.get(TRACE_ENV_VAR, "")
    mode = raw.strip().lower() or "off"
    if mode not in _VALID_MODES:
        raise ValueError(f"{TRACE_ENV_VAR}={raw!r} is not a trace mode; expected one of {_VALID_MODES}")
    return mode


def _sample_rate_value() -> float:
    """``REPRO_TRACE_SAMPLE`` clamped to [0, 1]; unset or empty is 0.1, a value that is not a number raises."""
    raw = os.environ.get(TRACE_SAMPLE_ENV_VAR, "").strip()
    if not raw:
        return 0.1
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if math.isnan(value):  # ``nan`` would clamp to 0.0: ``sampled`` mode would sample nothing
        raise ValueError(f"{TRACE_SAMPLE_ENV_VAR}={raw!r} is not a sample rate; expected a number in [0, 1]")
    return min(1.0, max(0.0, value))


def should_sample(trace_id: str) -> bool:
    """Whether this trace id's record should be emitted under the current mode.

    Deterministic in the trace id (a stable 64-bit FNV-1a hash, not
    ``hash()`` which is salted per process), so parent and workers — or a
    retry of the same request — agree on the sampling verdict.
    """
    mode = trace_mode()
    if mode == "off":
        return False
    if mode == "all":
        return True
    acc = 0xCBF29CE484222325
    for byte in trace_id.encode("utf-8"):
        acc = ((acc ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return (acc / 2**64) < _sample_rate_value()


def emit_trace(record_dict: dict) -> None:
    """Append one JSON trace record to the configured sink (JSONL)."""
    global _log_file, _log_path
    line = json.dumps(record_dict, sort_keys=True)
    path = os.environ.get(TRACE_LOG_ENV_VAR, "").strip()
    with _log_lock:
        if _log_file is None or _log_file.closed or path != _log_path:
            if _log_file is not None and _log_file is not sys.stderr:
                _log_file.close()
            if path:
                os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
                _log_file = open(path, "a", encoding="utf-8")
            else:
                _log_file = sys.stderr
            _log_path = path
        _log_file.write(line + "\n")
        _log_file.flush()


# ---------------------------------------------------------------------- #
# Thread-local stage-timing collectors
# ---------------------------------------------------------------------- #
_tls = threading.local()


def push_collector(collector: dict, trace_id: str | None = None) -> None:
    """Activate ``collector`` for this thread; inner layers :func:`record` into it."""
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    stack.append((collector, trace_id))


def pop_collector() -> dict:
    """Deactivate (and return) the innermost collector."""
    stack = getattr(_tls, "stack", None)
    if not stack:
        raise RuntimeError("no active trace collector to pop")
    return stack.pop()[0]


def current_trace_id() -> str | None:
    """The trace id attached to the innermost active collector (if any)."""
    stack = getattr(_tls, "stack", None)
    if not stack:
        return None
    for collector, trace_id in reversed(stack):
        if trace_id is not None:
            return trace_id
    return None


def record(name: str, value_ms: float) -> None:
    """Accumulate ``value_ms`` under ``name`` in the active collector (no-op otherwise)."""
    stack = getattr(_tls, "stack", None)
    if not stack:
        return
    collector = stack[-1][0]
    collector[name] = collector.get(name, 0.0) + value_ms


@contextmanager
def collector_context(collector: dict, trace_id: str | None = None):
    """``with collector_context({...}, tid):`` — push/pop around a block."""
    push_collector(collector, trace_id)
    try:
        yield collector
    finally:
        pop_collector()


@contextmanager
def span(collector: dict, name: str):
    """Time a block into ``collector[name]`` (milliseconds, accumulating)."""
    start = time.perf_counter()
    try:
        yield
    finally:
        collector[name] = collector.get(name, 0.0) + (time.perf_counter() - start) * 1e3
