"""Gaussian smoothing (a NumPy implementation).

The cloud/shadow filter uses Gaussian blurring to pool its hypothesis scores
and smooth its opacity fields, mirroring the OpenCV ``GaussianBlur`` call the
paper relies on; SSIM uses it for its local window statistics.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "gaussian_kernel1d",
    "gaussian_blur",
]


def gaussian_kernel1d(ksize: int, sigma: float | None = None) -> np.ndarray:
    """Return a normalised 1-D Gaussian kernel of length ``ksize``.

    When ``sigma`` is ``None`` the OpenCV heuristic
    ``sigma = 0.3 * ((ksize - 1) * 0.5 - 1) + 0.8`` is used.
    """
    if ksize < 1 or ksize % 2 == 0:
        raise ValueError("ksize must be a positive odd integer")
    if sigma is None or sigma <= 0:
        sigma = 0.3 * ((ksize - 1) * 0.5 - 1) + 0.8
    x = np.arange(ksize, dtype=np.float64) - (ksize - 1) / 2.0
    kernel = np.exp(-(x**2) / (2.0 * sigma**2))
    return kernel / kernel.sum()


def _per_channel(image: np.ndarray, func) -> np.ndarray:
    """Apply ``func`` to each channel of a 2-D or 3-D image."""
    img = np.asarray(image)
    if img.ndim == 2:
        return func(img)
    if img.ndim == 3:
        return np.stack([func(img[..., c]) for c in range(img.shape[-1])], axis=-1)
    raise ValueError(f"expected 2-D or 3-D image, got shape {img.shape}")


def _correlate_symmetric(data: np.ndarray, weights: np.ndarray, axis: int) -> np.ndarray:
    """``data`` correlated with the symmetric ``weights`` along ``axis``, borders mirrored.

    ``out = x[i] w[r]``, then ``out += (x[i - j] + x[i + j]) w[r - j]`` for ``j = r ... 1``: the order of
    ``scipy.ndimage.correlate1d``'s symmetric-kernel loop, and ``symmetric`` padding is its ``reflect``
    mode, so the result equals ``correlate1d(data, weights, axis, mode="reflect")`` bit for bit.
    """
    r, n = weights.size // 2, data.shape[axis]
    widths = [(0, 0)] * data.ndim
    widths[axis] = (r, r)
    padded = np.pad(data, widths, mode="symmetric")
    lead = (slice(None),) * axis

    def shifted(j: int) -> np.ndarray:
        return padded[lead + (slice(r + j, r + j + n),)]

    out = np.multiply(shifted(0), weights[r])
    tmp = np.empty_like(out)
    for j in range(r, 0, -1):
        np.add(shifted(-j), shifted(j), out=tmp)
        np.add(out, np.multiply(tmp, weights[r - j], out=tmp), out=out)
    return out


def gaussian_blur(image: np.ndarray, ksize: int = 5, sigma: float | None = None) -> np.ndarray:
    """Separable Gaussian blur with reflective border handling.

    Works on grayscale or multi-channel images and preserves the input dtype
    (integer results are rounded and clipped back to the input dtype's range).
    float32 input is blurred in float32, anything else in float64, where the
    result equals ``scipy.ndimage.correlate1d`` (``mode="reflect"``) along
    each axis bit for bit.
    """
    img = np.asarray(image)
    dtype = np.float32 if img.dtype == np.float32 else np.float64
    kernel = gaussian_kernel1d(ksize, sigma).astype(dtype)

    def _blur2d(channel: np.ndarray) -> np.ndarray:
        return _correlate_symmetric(_correlate_symmetric(channel.astype(dtype, copy=False), kernel, 0), kernel, 1)

    out = _per_channel(img, _blur2d)
    if np.issubdtype(img.dtype, np.integer):
        info = np.iinfo(img.dtype)
        return np.clip(np.round(out), info.min, info.max).astype(img.dtype)
    return out.astype(img.dtype, copy=False) if np.issubdtype(img.dtype, np.floating) else out
