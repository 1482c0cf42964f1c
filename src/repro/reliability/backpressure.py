"""Admission control: bounded concurrency with immediate load shedding.

An unbounded server does not degrade under overload — it collapses: queues
grow without limit, every request's latency blows past its deadline, memory
climbs, and throughput *drops* because all the work being done is for
callers who already gave up.  The fix is to bound the work accepted and
reject the excess instantly: a shed request costs microseconds and tells
the client exactly when to retry (``Retry-After``), while an accepted
request is one the server can actually finish in time.

:class:`AdmissionController` is a non-blocking semaphore around the serving
hot path plus the shed/admit counters ``/stats`` and ``/healthz`` report.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from ..obs.metrics import get_registry

__all__ = ["AdmissionController", "OverloadedError"]

#: How long after a shed request ``/healthz`` still reports the service as shedding.
SHED_WINDOW_S = 5.0


class OverloadedError(RuntimeError):
    """The service is past its high-water mark; the request was shed."""

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


class AdmissionController:
    """Service-level concurrency limit with shed accounting.

    ``max_concurrent=None`` disables the limit but keeps the counters, so
    ``/stats`` stays meaningful either way.
    """

    def __init__(self, max_concurrent: int | None = 64, retry_after_s: float = 1.0) -> None:
        if max_concurrent is not None and max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1 (or None for unlimited)")
        self.max_concurrent = max_concurrent
        self.retry_after_s = float(retry_after_s)
        self._lock = threading.Lock()
        self._active = 0
        self._admitted = 0
        self._shed = 0
        self._peak_active = 0
        self._last_shed_at = 0.0
        self._m_outcomes = get_registry().counter(
            "repro_admission_total",
            "Admission-controller decisions (admitted vs shed)",
            ("outcome",),
        )
        self._m_active = get_registry().gauge(
            "repro_admission_active",
            "Requests currently inside the admission gate",
        )

    @contextmanager
    def acquire(self):
        """Admit one request for the duration of the block, or shed it now."""
        with self._lock:
            if self.max_concurrent is not None and self._active >= self.max_concurrent:
                self._shed += 1
                self._last_shed_at = time.monotonic()
                self._m_outcomes.inc(outcome="shed")
                raise OverloadedError(
                    f"service saturated ({self._active}/{self.max_concurrent} in flight); "
                    "request shed",
                    retry_after_s=self.retry_after_s,
                )
            self._active += 1
            self._admitted += 1
            self._peak_active = max(self._peak_active, self._active)
            self._m_outcomes.inc(outcome="admitted")
            self._m_active.set(self._active)
        try:
            yield
        finally:
            with self._lock:
                self._active -= 1
                self._m_active.set(self._active)

    # ------------------------------------------------------------------ #
    @property
    def shed(self) -> int:
        with self._lock:
            return self._shed

    def recently_shed(self) -> bool:
        """Whether a request was shed inside the last :data:`SHED_WINDOW_S` seconds."""
        with self._lock:
            return self._shed > 0 and (time.monotonic() - self._last_shed_at) < SHED_WINDOW_S

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "max_concurrent": self.max_concurrent,
                "active": self._active,
                "peak_active": self._peak_active,
                "admitted": self._admitted,
                "shed": self._shed,
            }
