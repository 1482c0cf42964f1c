"""Colour-space conversions used by the cloud/shadow filter and auto-labeler.

The paper uses OpenCV's ``cv2.cvtColor`` with the ``BGR2HSV`` / ``RGB2HSV``
conventions, where for 8-bit images hue is stored in ``[0, 179]`` (degrees
halved), and saturation / value in ``[0, 255]``.  The HSV thresholds quoted
in the paper (e.g. thick ice ``(0, 0, 205)``–``(185, 255, 255)``) are
expressed in that convention, so this module reproduces it exactly.

All functions are fully vectorised NumPy; no Python-level per-pixel loops.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "channel_planes",
    "hsv_planes",
    "rgb_to_hsv",
]

# OpenCV stores hue / 2 so that it fits in uint8.
_HUE_SCALE = 2.0


def channel_planes(image: np.ndarray) -> np.ndarray:
    """The channels of an ``(H, W, C)`` image as contiguous float32 ``(C, H, W)`` planes.

    The cloud/shadow remover runs whole-plane float32 ufuncs with ``out=`` on them; on
    the interleaved layout the same arithmetic walks a length-``C`` strided last axis.
    8-bit pixels (and any value on a fine enough binary grid) are held exactly.
    """
    img = np.asarray(image)
    planes = np.empty(img.shape[-1:] + img.shape[:-1], dtype=np.float32)
    planes[...] = np.moveaxis(img, -1, 0)
    return planes


def _sector(x: np.ndarray, y: np.ndarray, delta: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``60 * (x - y) / delta`` written into ``out``."""
    np.multiply(np.subtract(x, y, out=out), 60.0, out=out)
    return np.divide(out, delta, out=out)


def hsv_planes(planes: np.ndarray, channels: tuple = (0, 1, 2), unit: "bool | None" = None) -> dict:
    """The requested HSV channels (0 hue, 1 saturation, 2 value) of planar RGB, OpenCV uint8 convention.

    ``planes`` is ``(3, H, W)``, any dtype or layout (``np.moveaxis(image, -1, 0)`` will do; it is only
    read), on the ``[0, 1]`` scale if ``unit`` else ``[0, 255]``; ``None`` infers the scale the way
    :func:`rgb_to_hsv` documents.  Returns ``{channel: float64 (H, W) plane of exact uint8 values}``.
    Only what a requested channel depends on is computed: value is ``max(R, G, B)`` and needs neither
    a float copy of the three planes nor their range; hue and saturation pay for both.
    """
    r, g, b = planes
    maxc = np.maximum(np.maximum(r, g), b)
    if unit is None:
        unit = maxc.dtype != np.uint8 and not (maxc.size and float(maxc.max()) > 1.0 + 1e-9)
    scale = 1.0 if unit else 255.0
    # Dividing by a positive constant is monotone: max-then-scale is scale-then-max, bit for bit.
    maxc = np.divide(maxc, scale, dtype=np.float64)
    out = {}
    if 0 in channels or 1 in channels:
        r, g, b = np.divide(planes, scale, out=np.empty((3,) + maxc.shape), dtype=np.float64)
        minc = np.minimum(np.minimum(r, g), b)
        delta = np.subtract(maxc, minc, out=minc)
        gray = ~(delta > 0)
    if 1 in channels:
        saturation = np.maximum(maxc, 1e-12)
        np.divide(delta, saturation, out=saturation)
        np.putmask(saturation, ~(maxc > 0), 0.0)
        out[1] = np.multiply(saturation, 255.0, out=saturation)
    if 0 in channels:
        # Hue in degrees [0, 360) from the sector of the largest channel; red wins ties, then green.
        np.putmask(delta, gray, 1.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            hue = np.add(_sector(r, g, delta, np.empty_like(delta)), 240.0)
            lead = np.add(_sector(b, r, delta, np.empty_like(delta)), 120.0)
            np.copyto(hue, lead, where=maxc == g)
            np.remainder(_sector(g, b, delta, lead), 360.0, out=lead)
            np.copyto(hue, lead, where=maxc == r)
        np.putmask(hue, gray, 0.0)
        out[0] = np.divide(hue, _HUE_SCALE, out=hue)
    if 2 in channels:
        out[2] = np.multiply(maxc, 255.0, out=maxc)
    for c, plane in out.items():
        np.clip(np.rint(plane, out=plane), 0, 179 if c == 0 else 255, out=plane)
    return out


def rgb_to_hsv(image: np.ndarray) -> np.ndarray:
    """Convert an RGB image to HSV using OpenCV's uint8 conventions.

    Parameters
    ----------
    image:
        ``(H, W, 3)`` array, ``uint8`` in ``[0, 255]`` or float in ``[0, 1]``.

    Returns
    -------
    numpy.ndarray
        ``(H, W, 3)`` ``uint8`` array with hue in ``[0, 179]``,
        saturation and value in ``[0, 255]``.
    """
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[-1] != 3:
        raise ValueError(f"expected (H, W, 3) RGB image, got shape {img.shape}")
    out = np.empty(img.shape, dtype=np.uint8)
    for c, plane in hsv_planes(np.moveaxis(img, -1, 0)).items():
        out[..., c] = plane
    return out
