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


def _pad_symmetric(data: np.ndarray, r: int, axis: int, out: np.ndarray) -> np.ndarray:
    """``np.pad(data, r, mode="symmetric")`` along ``axis``, written into ``out``.

    Each border mirrors the ``r`` input lines beside it.  A border wider than the input (``r > n``)
    continues the mirroring with period ``2n``, as ``np.pad`` does; it is filled line by line.
    """
    n = data.shape[axis]

    def span(start: "int | None", stop: "int | None", step: int = 1) -> tuple:
        return (slice(None),) * axis + (slice(start, stop, step),)

    out[span(r, r + n)] = data
    if 0 < r <= n:
        out[span(0, r)] = data[span(r - 1, None, -1)]
        out[span(r + n, n + 2 * r)] = data[span(n - 1, n - 1 - r if r < n else None, -1)]
    elif r:
        for p in (*range(r), *range(r + n, n + 2 * r)):
            i = (p - r) % (2 * n)
            i = i if i < n else 2 * n - 1 - i
            out[span(p, p + 1)] = data[span(i, i + 1)]
    return out


def _correlate_line(line: np.ndarray, weights: np.ndarray, step: int, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """``out[q]`` = the symmetric ``weights`` correlated with ``line`` around ``line[q + r * step]``, taps ``step`` apart.

    ``out = x[0] w[r]``, then ``out += (x[-j] + x[+j]) w[r - j]`` for ``j = r ... 1`` (``x[s]`` is
    ``line[q + (r + s) * step]``): the order of ``scipy.ndimage.correlate1d``'s symmetric-kernel loop.
    Every operand is a contiguous slice of ``line``, whatever the axis the taps run along.
    """
    r, n = weights.size // 2, out.size

    def shifted(s: int) -> np.ndarray:
        return line[(r + s) * step:(r + s) * step + n]

    np.multiply(shifted(0), weights[r], out=out)
    for j in range(r, 0, -1):
        np.add(shifted(-j), shifted(j), out=tmp)
        np.add(out, np.multiply(tmp, weights[r - j], out=tmp), out=out)
    return out


def _blur_into(plane: np.ndarray, kernel: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The 2-D ``plane`` blurred with the separable ``kernel`` into ``out``, in ``kernel``'s dtype.

    Down the columns, then along the rows, each a :func:`_correlate_line` over the ``symmetric``-padded
    plane laid out flat -- ``scipy.ndimage.correlate1d`` (``mode="reflect"``) along axis 0, then axis 1,
    bit for bit.  Along the rows the padded plane keeps its ``w + 2r`` pitch, so the output has ``2r``
    junk columns per row that are never read (and ``2r`` zeros past the end keep the last row's in
    bounds and finite).
    """
    (h, w), r = plane.shape, kernel.size // 2
    pitch = w + 2 * r
    padded = np.empty(max((h + 2 * r) * w, h * pitch + 2 * r), dtype=kernel.dtype)
    acc, tmp = np.empty((2, h * pitch), dtype=kernel.dtype)

    down = padded[:(h + 2 * r) * w]
    _pad_symmetric(plane, r, 0, down.reshape(h + 2 * r, w))
    cols = _correlate_line(down, kernel, w, acc[:h * w], tmp[:h * w])

    along = padded[:h * pitch + 2 * r]
    _pad_symmetric(cols.reshape(h, w), r, 1, along[:h * pitch].reshape(h, pitch))
    along[h * pitch:] = 0
    _correlate_line(along, kernel, 1, acc, tmp)
    out[...] = acc.reshape(h, pitch)[:, :w]
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
    if img.ndim not in (2, 3):
        raise ValueError(f"expected 2-D or 3-D image, got shape {img.shape}")
    out = np.empty(img.shape, dtype=dtype)
    for index in [()] if img.ndim == 2 else [(..., c) for c in range(img.shape[-1])]:
        _blur_into(img[index].astype(dtype, copy=False), kernel, out[index])
    if np.issubdtype(img.dtype, np.integer):
        info = np.iinfo(img.dtype)
        return np.clip(np.round(out), info.min, info.max).astype(img.dtype)
    return out.astype(img.dtype, copy=False) if np.issubdtype(img.dtype, np.floating) else out
