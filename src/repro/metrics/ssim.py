"""Structural Similarity Index (SSIM).

The paper validates the auto-labeler by reporting SSIM between the
auto-labeled maps and the manually labeled maps (89 % on original images,
99.64 % after cloud/shadow filtering).  This is the standard
Wang et al. (2004) SSIM with a Gaussian sliding window, implemented with
separable convolutions so whole scenes remain fast to score.
"""

from __future__ import annotations

import numpy as np

from ..imops.filters import gaussian_blur

__all__ = ["ssim", "mean_ssim_over_pairs"]


def ssim(
    image_a: np.ndarray,
    image_b: np.ndarray,
    data_range: float | None = None,
    window_size: int = 11,
    sigma: float = 1.5,
    k1: float = 0.01,
    k2: float = 0.03,
    return_map: bool = False,
) -> "float | tuple[float, np.ndarray]":
    """Structural similarity between two images.

    Multi-channel images are scored per channel and averaged.  Returns the
    mean SSIM in ``[-1, 1]`` (1 means identical), optionally with the local
    SSIM map.
    """
    a = np.asarray(image_a, dtype=np.float64)
    b = np.asarray(image_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"image shapes differ: {a.shape} vs {b.shape}")
    if a.ndim not in (2, 3):
        raise ValueError(f"expected 2-D or 3-D images, got {a.ndim}-D")
    if data_range is None:
        if np.asarray(image_a).dtype == np.uint8 or np.asarray(image_b).dtype == np.uint8:
            data_range = 255.0
        else:
            data_range = float(max(a.max() - a.min(), b.max() - b.min(), 1e-12))

    if a.ndim == 3:
        scores, maps = [], []
        for c in range(a.shape[-1]):
            s, m = ssim(a[..., c], b[..., c], data_range, window_size, sigma, k1, k2, return_map=True)
            scores.append(s)
            maps.append(m)
        mean = float(np.mean(scores))
        if return_map:
            return mean, np.mean(np.stack(maps, axis=-1), axis=-1)
        return mean

    c1 = (k1 * data_range) ** 2
    c2 = (k2 * data_range) ** 2

    mu_a = gaussian_blur(a, window_size, sigma)
    mu_b = gaussian_blur(b, window_size, sigma)
    mu_a_sq = mu_a * mu_a
    mu_b_sq = mu_b * mu_b
    mu_ab = mu_a * mu_b

    sigma_a_sq = gaussian_blur(a * a, window_size, sigma) - mu_a_sq
    sigma_b_sq = gaussian_blur(b * b, window_size, sigma) - mu_b_sq
    sigma_ab = gaussian_blur(a * b, window_size, sigma) - mu_ab

    numerator = (2 * mu_ab + c1) * (2 * sigma_ab + c2)
    denominator = (mu_a_sq + mu_b_sq + c1) * (sigma_a_sq + sigma_b_sq + c2)
    ssim_map = numerator / np.maximum(denominator, 1e-12)
    mean = float(ssim_map.mean())
    if return_map:
        return mean, ssim_map
    return mean


def mean_ssim_over_pairs(images_a: np.ndarray, images_b: np.ndarray, **kwargs) -> float:
    """Average SSIM over a batch of image pairs (axis 0 indexes the pair)."""
    a = np.asarray(images_a)
    b = np.asarray(images_b)
    if a.shape != b.shape:
        raise ValueError(f"batch shapes differ: {a.shape} vs {b.shape}")
    if a.shape[0] == 0:
        raise ValueError("empty batch")
    return float(np.mean([ssim(a[i], b[i], **kwargs) for i in range(a.shape[0])]))
