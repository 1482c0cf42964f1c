"""Thresholding operators in OpenCV's ``cv2.threshold`` semantics.

The paper's thin-cloud/shadow filter (§III-A) uses one of them: Otsu's
automatic level (:func:`otsu_threshold`), which gates the brightness
deviation in :func:`repro.cloudshadow.detect_cloud_shadow`.  The fixed-level
modes (binary, binary-inverted, truncated, to-zero) and the adaptive
mean threshold have no caller in the pipeline.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

__all__ = [
    "ThresholdType",
    "threshold",
    "threshold_binary",
    "threshold_binary_inv",
    "threshold_truncate",
    "threshold_tozero",
    "threshold_tozero_inv",
    "otsu_threshold",
    "adaptive_mean_threshold",
]


class ThresholdType(Enum):
    """Thresholding modes mirroring OpenCV's ``THRESH_*`` constants."""

    BINARY = "binary"
    BINARY_INV = "binary_inv"
    TRUNC = "trunc"
    TOZERO = "tozero"
    TOZERO_INV = "tozero_inv"


def _check_gray(image: np.ndarray) -> np.ndarray:
    img = np.asarray(image)
    if img.ndim != 2:
        raise ValueError(f"thresholding expects a single-channel image, got shape {img.shape}")
    return img


def threshold(
    image: np.ndarray,
    thresh: float,
    maxval: float = 255,
    kind: ThresholdType = ThresholdType.BINARY,
) -> tuple[float, np.ndarray]:
    """Apply a fixed-level threshold, OpenCV style.

    Returns ``(threshold_used, output_image)`` like ``cv2.threshold``.
    """
    img = _check_gray(image)
    kind = ThresholdType(kind)
    if kind is ThresholdType.BINARY:
        out = np.where(img > thresh, maxval, 0)
    elif kind is ThresholdType.BINARY_INV:
        out = np.where(img > thresh, 0, maxval)
    elif kind is ThresholdType.TRUNC:
        out = np.minimum(img, thresh)
    elif kind is ThresholdType.TOZERO:
        out = np.where(img > thresh, img, 0)
    elif kind is ThresholdType.TOZERO_INV:
        out = np.where(img > thresh, 0, img)
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown threshold type {kind}")
    return float(thresh), out.astype(img.dtype, copy=False)


def threshold_binary(image: np.ndarray, thresh: float, maxval: float = 255) -> np.ndarray:
    """Pixels above ``thresh`` become ``maxval``, everything else 0."""
    return threshold(image, thresh, maxval, ThresholdType.BINARY)[1]


def threshold_binary_inv(image: np.ndarray, thresh: float, maxval: float = 255) -> np.ndarray:
    """Pixels above ``thresh`` become 0, everything else ``maxval``."""
    return threshold(image, thresh, maxval, ThresholdType.BINARY_INV)[1]


def threshold_truncate(image: np.ndarray, thresh: float) -> np.ndarray:
    """Clamp pixels above ``thresh`` down to ``thresh`` (OpenCV THRESH_TRUNC)."""
    return threshold(image, thresh, kind=ThresholdType.TRUNC)[1]


def threshold_tozero(image: np.ndarray, thresh: float) -> np.ndarray:
    """Zero out pixels at or below ``thresh``; keep brighter pixels unchanged."""
    return threshold(image, thresh, kind=ThresholdType.TOZERO)[1]


def threshold_tozero_inv(image: np.ndarray, thresh: float) -> np.ndarray:
    """Keep pixels at or below ``thresh``; zero out brighter pixels."""
    return threshold(image, thresh, kind=ThresholdType.TOZERO_INV)[1]


def otsu_threshold(image: np.ndarray) -> float:
    """Otsu's automatic threshold level of a single-channel image.

    Picks the level that maximises the between-class variance of the
    256-bin histogram, as ``cv2.threshold(..., THRESH_OTSU)`` does.
    """
    img = _check_gray(image)
    if img.size == 0:
        raise ValueError("cannot compute Otsu threshold of an empty image")
    data = img.astype(np.float64).ravel()
    lo, hi = float(data.min()), float(data.max())
    if lo == hi:
        # Degenerate constant image: any threshold separates nothing.
        return lo

    hist, bin_edges = np.histogram(data, bins=256, range=(lo, hi))
    bin_centers = (bin_edges[:-1] + bin_edges[1:]) / 2.0

    weight1 = np.cumsum(hist)
    weight2 = np.cumsum(hist[::-1])[::-1]
    # Class means; guard divisions for empty classes.
    mean1 = np.cumsum(hist * bin_centers) / np.maximum(weight1, 1)
    mean2 = (np.cumsum((hist * bin_centers)[::-1]) / np.maximum(weight2[::-1], 1))[::-1]

    # Between-class variance evaluated at each split point.  For well-separated
    # modes the variance has a plateau of equally optimal splits across the
    # empty histogram gap; take the middle of that plateau for a stable level.
    variance = weight1[:-1] * weight2[1:] * (mean1[:-1] - mean2[1:]) ** 2
    best = variance.max()
    candidates = np.flatnonzero(variance >= best * (1.0 - 1e-12))
    idx = int(candidates[len(candidates) // 2])
    return float(bin_centers[idx])


def adaptive_mean_threshold(
    image: np.ndarray,
    block_size: int = 11,
    offset: float = 2.0,
    maxval: float = 255,
) -> np.ndarray:
    """Adaptive thresholding against the local block mean.

    Each pixel is compared to the mean of its ``block_size``×``block_size``
    neighbourhood minus ``offset`` (OpenCV ``ADAPTIVE_THRESH_MEAN_C``).
    """
    if block_size < 3 or block_size % 2 == 0:
        raise ValueError("block_size must be an odd integer >= 3")
    img = _check_gray(image).astype(np.float64)
    from .filters import box_filter  # local import avoids a cycle at import time

    local_mean = box_filter(img, block_size)
    out = np.where(img > local_mean - offset, maxval, 0)
    return out.astype(np.asarray(image).dtype, copy=False)
