"""The in-process reference backend: no workers, no copies, no surprises."""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from ..reliability import Deadline
from .base import InProcessBackend, record_compute

__all__ = ["SerialBackend"]


class SerialBackend(InProcessBackend):
    """Runs every task inline in the calling thread.

    The backend every classifier holds unless fan-out was asked for, and the
    behavioural reference the other backends are tested bit-identical
    against.
    """

    name = "serial"

    def __init__(self) -> None:
        super().__init__(num_workers=1)

    def _run_chunks(self, fn: Callable, chunks: list[list]) -> list[list]:
        return [[fn(item) for item in chunk] for chunk in chunks]

    def predict(self, key, batch: np.ndarray, deadline: Deadline | None = None) -> np.ndarray:
        self._ensure_open()
        if deadline is not None:
            deadline.check("backend predict")
        self._count_task()
        start = time.perf_counter()
        result = self._models[key].predict(batch)
        record_compute(self.name, (time.perf_counter() - start) * 1e3)
        return result
