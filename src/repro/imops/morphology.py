"""Binary and grayscale morphology (erode, dilate, close, small-object removal).

Used to clean up the cloud / shadow masks produced by thresholding before
they are used to correct the underlying Sentinel-2 pixels.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

__all__ = [
    "structuring_element",
    "erode",
    "dilate",
    "morph_close",
    "remove_small_objects",
]


def structuring_element(shape: str = "rect", ksize: int = 3) -> np.ndarray:
    """Return a boolean structuring element.

    Parameters
    ----------
    shape:
        ``"rect"`` (full square), ``"cross"`` or ``"ellipse"``.
    ksize:
        Side length of the element (odd, >= 1).
    """
    if ksize < 1 or ksize % 2 == 0:
        raise ValueError("ksize must be a positive odd integer")
    if shape == "rect":
        return np.ones((ksize, ksize), dtype=bool)
    if shape == "cross":
        elem = np.zeros((ksize, ksize), dtype=bool)
        mid = ksize // 2
        elem[mid, :] = True
        elem[:, mid] = True
        return elem
    if shape == "ellipse":
        yy, xx = np.mgrid[:ksize, :ksize]
        center = (ksize - 1) / 2.0
        radius = ksize / 2.0
        return ((yy - center) ** 2 + (xx - center) ** 2) <= radius**2
    raise ValueError(f"unknown structuring element shape {shape!r}")


def _morph(image: np.ndarray, footprint: np.ndarray, op: str) -> np.ndarray:
    img = np.asarray(image)
    if img.ndim != 2:
        raise ValueError(f"morphology expects a 2-D image, got shape {img.shape}")
    binary = img.dtype == bool or set(np.unique(img)).issubset({0, 1, 255})
    if binary:
        data = img.astype(bool)
        if op == "erode":
            out = ndimage.binary_erosion(data, structure=footprint)
        else:
            out = ndimage.binary_dilation(data, structure=footprint)
        if img.dtype == bool:
            return out
        return (out * (255 if img.max() > 1 else 1)).astype(img.dtype)
    # Grayscale morphology.
    if op == "erode":
        return ndimage.grey_erosion(img, footprint=footprint).astype(img.dtype)
    return ndimage.grey_dilation(img, footprint=footprint).astype(img.dtype)


def erode(image: np.ndarray, ksize: int = 3) -> np.ndarray:
    """Erosion by a ``ksize``×``ksize`` square (shrinks bright / foreground regions)."""
    return _morph(image, structuring_element("rect", ksize), "erode")


def dilate(image: np.ndarray, ksize: int = 3) -> np.ndarray:
    """Dilation by a ``ksize``×``ksize`` square (grows bright / foreground regions)."""
    return _morph(image, structuring_element("rect", ksize), "dilate")


def morph_close(image: np.ndarray, ksize: int = 3) -> np.ndarray:
    """Closing = dilation followed by erosion; fills small dark gaps."""
    return erode(dilate(image, ksize), ksize)


def remove_small_objects(mask: np.ndarray, min_size: int = 16) -> np.ndarray:
    """Drop connected components smaller than ``min_size`` pixels from a binary mask."""
    m = np.asarray(mask)
    binary = m.astype(bool)
    labeled, num = ndimage.label(binary)
    if num == 0:
        return np.zeros_like(m)
    sizes = ndimage.sum(binary, labeled, index=np.arange(1, num + 1))
    keep = np.zeros(num + 1, dtype=bool)
    keep[1:] = sizes >= min_size
    out = keep[labeled]
    if m.dtype == bool:
        return out
    return (out * (255 if m.max() > 1 else 1)).astype(m.dtype)
