"""Per-model circuit breaker: fail fast instead of hammering a broken model.

When a model keeps failing (corrupt weights after a bad publish, a backend
whose workers die on every attach), every further request pays the full
failure latency — worker respawns, retry backoff, dispatch timeouts — and
occupies a concurrency slot that healthy models could use.  The breaker
watches consecutive failures and, past ``failure_threshold``, *opens*:
requests fail immediately with :class:`CircuitOpenError` (the serving layer
maps it to 503 + ``Retry-After``).  After ``reset_timeout_s`` it goes
*half-open* and lets :data:`HALF_OPEN_PROBES` probe requests through; one
success closes it again, one failure re-opens it for another full window.
"""

from __future__ import annotations

import threading
import time

from ..obs.metrics import get_registry

__all__ = ["CircuitBreaker", "CircuitOpenError"]

#: Concurrent requests a half-open breaker lets probe; the rest fail fast until a probe reports back.
HALF_OPEN_PROBES = 1


def _transitions_counter():
    return get_registry().counter(
        "repro_breaker_transitions_total",
        "Circuit-breaker state transitions, by destination state",
        ("to",),
    )


class CircuitOpenError(RuntimeError):
    """The breaker is open: the target failed repeatedly and is quarantined."""

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


class CircuitBreaker:
    """Three-state (closed / open / half-open) failure quarantine.

    Thread-safe; the clock is injectable for tests.
    """

    def __init__(self, failure_threshold: int, reset_timeout_s: float, clock=time.monotonic) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout_s < 0:
            raise ValueError("reset_timeout_s must be >= 0")
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout_s = float(reset_timeout_s)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self._total_failures = 0
        self._times_opened = 0

    # ------------------------------------------------------------------ #
    @property
    def state(self) -> str:
        with self._lock:
            return self._resolve_state()

    def _resolve_state(self) -> str:
        """Current state, promoting open → half-open once the window passed.

        Must hold ``_lock``.
        """
        if self._state == "open" and (
            self._clock() - self._opened_at >= self.reset_timeout_s
        ):
            self._state = "half_open"
            self._probes_in_flight = 0
            _transitions_counter().inc(to="half_open")
        return self._state

    def check(self) -> None:
        """Admit one request or raise :class:`CircuitOpenError`.

        In the half-open state this *claims a probe slot*: the caller must
        report back with :meth:`record_success` / :meth:`record_failure`.
        """
        with self._lock:
            state = self._resolve_state()
            if state == "closed":
                return
            if state == "half_open":
                if self._probes_in_flight < HALF_OPEN_PROBES:
                    self._probes_in_flight += 1
                    return
                raise CircuitOpenError(
                    "circuit half-open: probe already in flight",
                    retry_after_s=self.reset_timeout_s,
                )
            retry_after = max(
                0.0, self.reset_timeout_s - (self._clock() - self._opened_at)
            )
            raise CircuitOpenError(
                f"circuit open after {self._consecutive_failures} consecutive failures",
                retry_after_s=retry_after,
            )

    def record_cancelled(self) -> None:
        """The admitted request ended with no verdict (caller timed out, was
        shed downstream): release its half-open probe slot without moving the
        breaker either way — a client giving up says nothing about model
        health."""
        with self._lock:
            if self._resolve_state() == "half_open":
                self._probes_in_flight = max(0, self._probes_in_flight - 1)

    def record_success(self) -> None:
        with self._lock:
            state = self._resolve_state()
            if state == "half_open":
                self._probes_in_flight = max(0, self._probes_in_flight - 1)
            if self._state != "closed":
                _transitions_counter().inc(to="closed")
            self._state = "closed"
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        with self._lock:
            state = self._resolve_state()
            self._consecutive_failures += 1
            self._total_failures += 1
            if state == "half_open" or self._consecutive_failures >= self.failure_threshold:
                if self._state != "open":
                    self._times_opened += 1
                    _transitions_counter().inc(to="open")
                self._state = "open"
                self._opened_at = self._clock()
                self._probes_in_flight = 0

    def to_dict(self) -> dict:
        """Observability snapshot for ``/stats``."""
        with self._lock:
            state = self._resolve_state()
            return {
                "state": state,
                "consecutive_failures": self._consecutive_failures,
                "total_failures": self._total_failures,
                "times_opened": self._times_opened,
                "failure_threshold": self.failure_threshold,
                "reset_timeout_s": self.reset_timeout_s,
            }
