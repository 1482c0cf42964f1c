"""Fault-tolerance substrate shared by the backend and serving layers.

Production serving assumes four properties this package provides and the
rest of the stack threads through:

* **Bounded waits** — :class:`Deadline` propagates one expiry time from the
  HTTP edge through the micro-batcher queue into backend span dispatch;
  expired work is dropped *before* compute (:class:`DeadlineExceeded` maps
  to HTTP 504).
* **Load shedding** — :class:`AdmissionController` caps in-flight requests
  and sheds the excess instantly (:class:`OverloadedError` → HTTP 503 +
  ``Retry-After``) instead of queueing unboundedly.
* **Automatic recovery** — :func:`backoff` paces re-runs of idempotent backend
  dispatches whose worker crashed or hung (the fork backend kills and
  respawns hung workers); :class:`CircuitBreaker` quarantines a model that
  keeps failing and probes it back to health.
* **Provability** — :mod:`repro.reliability.faults` plants env/config-armed
  fault points (worker crash/hang, slow predict, shm attach failure,
  corrupt archive reads) that the chaos suite and the CI chaos-smoke arm
  use to demonstrate all of the above actually fires.
"""

from .backpressure import AdmissionController, OverloadedError
from .breaker import CircuitBreaker, CircuitOpenError
from .deadline import Deadline, DeadlineExceeded
from .faults import (
    FAULTS_ENV_VAR,
    FaultInjected,
    FaultSpec,
    configure_faults,
    fault_point,
    fault_stats,
    faults_enabled,
    reset_faults,
)
from .retry import MAX_RETRIES, backoff

__all__ = [
    "AdmissionController",
    "CircuitBreaker",
    "CircuitOpenError",
    "Deadline",
    "DeadlineExceeded",
    "FAULTS_ENV_VAR",
    "FaultInjected",
    "FaultSpec",
    "MAX_RETRIES",
    "OverloadedError",
    "backoff",
    "configure_faults",
    "fault_point",
    "fault_stats",
    "faults_enabled",
    "reset_faults",
]
