"""The in-process reference backend: no workers, no copies, no surprises."""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from ..reliability import Deadline
from .base import Backend, LocalModelEntry, ModelHandle, record_compute

__all__ = ["SerialBackend"]


class SerialBackend(Backend):
    """Runs every task inline in the calling thread.

    The backend every classifier holds unless fan-out was asked for, and the
    behavioural reference the fork backend is tested bit-identical against.
    Its model store is a dict of :class:`LocalModelEntry` — one model, one
    compiled-plan cache, zero copies.
    """

    name = "serial"

    def __init__(self) -> None:
        super().__init__(num_workers=1)
        self._models: dict[object, LocalModelEntry] = {}

    def _run_chunks(self, fn: Callable, chunks: list[list]) -> list[list]:
        return [[fn(item) for item in chunk] for chunk in chunks]

    def publish_model(self, key, model, cloud_filter=None, *, compile_plans: bool = True) -> ModelHandle:
        self._ensure_open()
        entry = LocalModelEntry(key, model, cloud_filter, compile_plans)
        self._models[key] = entry
        return entry.handle

    def release_model(self, key) -> None:
        self._models.pop(key, None)

    def has_model(self, key) -> bool:
        return key in self._models

    def engine(self, key):
        return self._models[key].engine

    def predict(self, key, batch: np.ndarray, deadline: Deadline | None = None) -> np.ndarray:
        self._ensure_open()
        if deadline is not None:
            deadline.check("backend predict")
        self._count_task()
        start = time.perf_counter()
        result = self._models[key].predict(batch)
        record_compute(self.name, (time.perf_counter() - start) * 1e3)
        return result

    def _close(self) -> None:
        self._models.clear()

    def _model_keys(self) -> list:
        return list(self._models)
