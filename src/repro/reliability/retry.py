"""Capped exponential backoff for retrying idempotent dispatches.

The fork backend's prediction ops are idempotent by construction — a span
writes only its own slice of the shared output arena — so a span whose
worker died or hung can simply run again on another worker.  The backoff
bounds how hard we try: :data:`MAX_RETRIES` further attempts, sleeping
``BASE_DELAY_S * 2**attempt`` (capped at :data:`MAX_DELAY_S`) between them,
and never sleeping past a request deadline.
"""

from __future__ import annotations

import time

from .deadline import Deadline

__all__ = ["MAX_RETRIES", "backoff"]

#: Further attempts after the first before a lost dispatch reaches its caller.
MAX_RETRIES = 2
#: Backoff before the first retry; each further retry waits twice as long as the one before.
BASE_DELAY_S = 0.05
#: Cap on one backoff.
MAX_DELAY_S = 1.0


def backoff_s(attempt: int) -> float:
    """Backoff before retry ``attempt`` (0-based), capped at :data:`MAX_DELAY_S`."""
    return min(BASE_DELAY_S * (2 ** max(0, attempt)), MAX_DELAY_S)


def backoff(attempt: int, deadline: Deadline | None) -> None:
    """Sleep the backoff for ``attempt``, clipped to the deadline's budget."""
    delay = backoff_s(attempt)
    if deadline is not None:
        remaining = deadline.remaining()
        if remaining is not None:
            delay = min(delay, remaining)
    if delay > 0:
        time.sleep(delay)
