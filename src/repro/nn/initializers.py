"""Weight initialisation schemes."""

from __future__ import annotations

import numpy as np

__all__ = ["he_normal", "zeros"]


def he_normal(shape: tuple[int, ...], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """He/Kaiming normal initialisation — the standard choice for ReLU networks."""
    if fan_in < 1:
        raise ValueError("fan_in must be >= 1")
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape).astype(np.float32)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """All-zero initialisation (biases)."""
    return np.zeros(shape, dtype=np.float32)

