"""Deadlines: one monotonic expiry time carried through every serving layer.

A :class:`Deadline` is created once at the edge (the HTTP handler, a CLI
call) and handed down — into the micro-batcher queue entry, through the
classifier's prediction seam, and into the execution backend's span
dispatch.  Every stage *checks* it before doing work and drops the request
the moment it can no longer be answered in time: the batcher skips dead
entries at flush, the fork backend refuses to dispatch a span whose
deadline has passed.  Work for a caller who already timed out is the purest
form of waste — under saturation it is also what turns a latency blip into
a congestion collapse, because the queue fills with requests nobody is
waiting for.

``Deadline(None)`` is the unbounded deadline: ``remaining()`` is ``None``,
``expired`` is always ``False`` and ``check()`` never raises, so call sites
do not need to special-case "no deadline configured".
"""

from __future__ import annotations

import time

from ..obs.metrics import get_registry

__all__ = ["Deadline", "DeadlineExceeded"]


class DeadlineExceeded(TimeoutError):
    """The request's deadline passed before (or while) serving it.

    Subclasses :class:`TimeoutError` so pre-deadline callers that catch
    timeouts keep working.  ``stage`` names where the deadline was noticed;
    ``stage_timings`` (attached by the serving layer) carries per-stage
    elapsed milliseconds for the 504 response body.
    """

    def __init__(self, message: str, stage: str = "") -> None:
        super().__init__(message)
        self.stage = stage
        self.stage_timings: dict | None = None


class Deadline:
    """A wall-clock budget pinned to the monotonic clock at creation time."""

    __slots__ = ("started_at", "expires_at")

    def __init__(self, timeout_s: float | None) -> None:
        self.started_at = time.monotonic()
        if timeout_s is None:
            self.expires_at: float | None = None
        else:
            timeout_s = float(timeout_s)
            if timeout_s < 0:
                raise ValueError("deadline timeout_s must be >= 0 (or None for unbounded)")
            self.expires_at = self.started_at + timeout_s

    def remaining(self) -> float | None:
        """Seconds left (clamped at 0.0), or ``None`` when unbounded."""
        if self.expires_at is None:
            return None
        return max(0.0, self.expires_at - time.monotonic())

    @property
    def expired(self) -> bool:
        return self.expires_at is not None and time.monotonic() >= self.expires_at

    def elapsed_s(self) -> float:
        """Seconds since the deadline was created (request age)."""
        return time.monotonic() - self.started_at

    def check(self, stage: str = "") -> None:
        """Raise :class:`DeadlineExceeded` if the deadline has passed."""
        if self.expired:
            get_registry().counter(
                "repro_deadline_exceeded_total",
                "Deadline expiries noticed, by the stage that caught them",
                ("stage",),
            ).inc(stage=stage or "unknown")
            where = f" at stage {stage!r}" if stage else ""
            raise DeadlineExceeded(
                f"deadline exceeded{where} after {self.elapsed_s() * 1e3:.1f} ms", stage=stage
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        rem = self.remaining()
        return f"Deadline(remaining={'inf' if rem is None else f'{rem:.3f}s'})"
