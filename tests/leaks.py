"""The leak probe shared by the backend / chaos / drain suites and the session-end check."""

from __future__ import annotations

import os

from repro.backend.store import SEGMENT_PREFIX


def shm_segments() -> set[str]:
    """Names of the ``repro_ms_*`` shared-memory segments currently in ``/dev/shm``."""
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return set()
    return {name for name in os.listdir("/dev/shm") if name.startswith(SEGMENT_PREFIX)}
