"""Quantisation back to 8-bit pixels."""

from __future__ import annotations

import numpy as np

__all__ = ["scale_to_uint8"]


def scale_to_uint8(image: np.ndarray) -> np.ndarray:
    """Round, clip to [0, 255] and cast to uint8."""
    return np.clip(np.round(np.asarray(image, dtype=np.float64)), 0, 255).astype(np.uint8)
