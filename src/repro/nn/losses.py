"""Loss functions: softmax + categorical cross-entropy for per-pixel classification."""

from __future__ import annotations

import numpy as np

__all__ = ["softmax", "CategoricalCrossEntropy"]


def softmax(logits: np.ndarray, axis: int = 1) -> np.ndarray:
    """Numerically stable softmax along ``axis``.

    Computed in float32: max-subtraction bounds the exponent, and the class
    axis is short, so float64 buys nothing while doubling the memory traffic
    of the training hot path.
    """
    z = np.asarray(logits, dtype=np.float32)
    z = z - z.max(axis=axis, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=axis, keepdims=True)
    return z


class CategoricalCrossEntropy:
    """Softmax cross-entropy over per-pixel class logits.

    ``forward(logits, targets)`` accepts ``(N, K, H, W)`` logits and either
    integer targets ``(N, H, W)`` or one-hot targets ``(N, K, H, W)``, and
    returns the mean loss over all pixels.  ``backward()`` returns
    ``dL/dlogits`` with the same shape as the logits (the softmax gradient is
    fused, as in every practical implementation).  The bulk tensors stay in
    float32; only the scalar loss reduction accumulates in float64.
    """

    def __init__(self) -> None:
        self._cache: tuple | None = None

    # ------------------------------------------------------------------ #
    def forward(self, logits: np.ndarray, targets: np.ndarray) -> float:
        logits = np.asarray(logits, dtype=np.float32)
        if logits.ndim != 4:
            raise ValueError(f"expected (N, K, H, W) logits, got shape {logits.shape}")
        n, k, h, w = logits.shape

        targets = np.asarray(targets)
        if targets.ndim == 4:
            if targets.shape != logits.shape:
                raise ValueError("one-hot targets must match the logits shape")
            target_idx = targets.argmax(axis=1)
        elif targets.ndim == 3:
            if targets.shape != (n, h, w):
                raise ValueError(f"integer targets must have shape {(n, h, w)}, got {targets.shape}")
            target_idx = targets.astype(np.intp)
        else:
            raise ValueError("targets must be (N, H, W) integers or (N, K, H, W) one-hot")
        if target_idx.min() < 0 or target_idx.max() >= k:
            raise ValueError("target class ids outside [0, num_classes)")

        probs = softmax(logits, axis=1)
        picked = np.take_along_axis(probs, target_idx[:, None], axis=1)[:, 0]
        picked = np.clip(picked, 1e-12, 1.0)

        weight_sum = float(picked.size)
        loss = float(-np.log(picked).sum(dtype=np.float64) / weight_sum)

        self._cache = (probs, target_idx, weight_sum)
        return loss

    def backward(self) -> np.ndarray:
        """Gradient of the mean loss with respect to the logits."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        probs, target_idx, weight_sum = self._cache

        idx = target_idx[:, None]
        grad = probs * np.float32(1.0 / weight_sum)
        picked = np.take_along_axis(grad, idx, axis=1)
        np.put_along_axis(grad, idx, picked - np.float32(1.0 / weight_sum), axis=1)
        return grad

    def __call__(self, logits: np.ndarray, targets: np.ndarray) -> float:
        return self.forward(logits, targets)
