"""A gated stub predictor: the batcher tests' replacement for windows and sleeps.

``GatedPredict`` is a tiling-invariant ``predict_fn`` that records every
batch it is handed and blocks inside its first call until ``release()``.
While the gate is shut a flush is *in flight*, so everything a test submits
lands in the queue behind it — the test decides exactly what the next flush
sees, with no timing involved.  Tiles built by :func:`tagged_tile` carry an
id in their first pixel, so ``batches`` says which tiles shared a call.
"""

from __future__ import annotations

import threading

import numpy as np


def stub_probs(stack: np.ndarray) -> np.ndarray:
    """Two-class per-pixel 'probabilities' that depend only on the pixel itself."""
    mean = stack.astype(np.float32).mean(axis=-1) / 255.0  # (N, H, W)
    return np.stack([mean, 1.0 - mean], axis=1).astype(np.float32)


def tagged_tile(tag: int, shape: tuple[int, int] = (8, 8)) -> np.ndarray:
    """A constant ``(H, W, 3)`` tile whose every pixel (so also the first) is ``tag``."""
    return np.full((*shape, 3), tag, dtype=np.uint8)


class GatedPredict:
    def __init__(self, open: bool = False) -> None:
        #: First-pixel red value of every row of every call, in call order
        #: (padding rows included — they repeat the last live tile's tag).
        self.batches: list[list[int]] = []
        #: Set once the first call is inside ``predict_fn``: the worker is busy.
        self.entered = threading.Event()
        self._gate = threading.Event()
        if open:
            self._gate.set()

    @property
    def calls(self) -> list[int]:
        """Batch size of every call, in call order."""
        return [len(batch) for batch in self.batches]

    def release(self) -> None:
        self._gate.set()

    def __call__(self, stack: np.ndarray) -> np.ndarray:
        self.batches.append(stack[:, 0, 0, 0].tolist())
        self.entered.set()
        if not self._gate.wait(30.0):
            raise TimeoutError("GatedPredict was never released")
        return stub_probs(stack)

    def hold_worker(self, batcher, tile: np.ndarray):
        """Submit ``tile`` to an idle ``batcher`` and return once its flush is in flight."""
        blocker = batcher.submit(tile)
        assert self.entered.wait(10.0), "worker never picked up the blocker"
        return blocker
