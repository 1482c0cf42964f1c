"""Thin-cloud and shadow *detection* (mask + coverage estimation).

Detection answers two questions the workflow needs: *which pixels* are
contaminated (so the removal step can be audited and visualised) and *how
much* of a tile is contaminated (the quantity behind Table V's split into
"more / less than about 10 % cloud and shadow cover").

The detector combines two cues:

* the per-pixel veil opacity estimated by the linear-mixing-model remover
  (:class:`~repro.cloudshadow.removal.ThinCloudShadowRemover`), which is the
  physically grounded signal, and
* a classical OpenCV-style brightness-deviation gate (grayscale conversion,
  heavy Gaussian blurring, absolute difference from the scene median, Otsu
  thresholding) that suppresses spurious detections in scenes whose
  low-frequency brightness is flat — the chain of transforms the paper's
  §III-A describes.

The masks are then cleaned with median filtering, morphological closing and
small-object removal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..imops import gaussian_blur, hsv_planes, median_blur, morph_close, otsu_threshold, remove_small_objects, scale_to_uint8
from .removal import ThinCloudShadowRemover, VeilEstimate

__all__ = ["CloudShadowMasks", "detect_cloud_shadow"]


@dataclass
class CloudShadowMasks:
    """Boolean masks of detected cloud and shadow pixels."""

    cloud: np.ndarray
    shadow: np.ndarray

    @property
    def affected(self) -> np.ndarray:
        return self.cloud | self.shadow

    @property
    def coverage(self) -> float:
        """Fraction of the image flagged as cloud or shadow."""
        return float(self.affected.mean())


def _brightness_deviation(rgb: np.ndarray, blur_ksize: int) -> np.ndarray:
    """Low-frequency brightness deviation from the scene's median level (uint8)."""
    value = hsv_planes(np.moveaxis(rgb, -1, 0), (2,))[2]
    smoothed = gaussian_blur(value, ksize=blur_ksize)
    return scale_to_uint8(np.abs(smoothed - float(np.median(smoothed))))


def _clean(mask: np.ndarray, min_object_size: int) -> np.ndarray:
    cleaned = median_blur(mask.astype(np.uint8) * 255, ksize=5) > 0
    cleaned = morph_close(cleaned, ksize=5)
    return remove_small_objects(cleaned, min_size=min_object_size)


def detect_cloud_shadow(
    rgb: np.ndarray,
    blur_ksize: int = 63,
    alpha_threshold: float = 0.10,
    min_object_size: int = 64,
    remover: ThinCloudShadowRemover | None = None,
    estimate: VeilEstimate | None = None,
) -> CloudShadowMasks:
    """Detect thin-cloud and shadow masks from a single RGB tile or scene.

    Parameters
    ----------
    rgb:
        ``(H, W, 3)`` uint8 image.
    blur_ksize:
        Kernel of the low-frequency brightness-deviation gate.
    alpha_threshold:
        Minimum estimated veil opacity for a pixel to count as contaminated.
    min_object_size:
        Smallest connected component (pixels) kept after clean-up.
    remover:
        Optionally reuse an existing remover (and its calibration).
    estimate:
        The veil estimate of ``rgb`` if the caller already has it; the remover is then not run.
    """
    img = np.asarray(rgb)
    if img.ndim != 3 or img.shape[-1] != 3:
        raise ValueError(f"expected (H, W, 3) RGB image, got shape {img.shape}")
    if blur_ksize % 2 == 0:
        blur_ksize += 1

    if estimate is None:
        estimate = (remover or ThinCloudShadowRemover()).estimate(img)

    cloud = estimate.cloud_alpha > alpha_threshold
    shadow = estimate.shadow_alpha > alpha_threshold

    # Classical gate: genuine veils also perturb the low-frequency brightness
    # field.  Requiring a minimal deviation suppresses speckle detections on
    # clean scenes while leaving real banks (which are large and smooth) intact.
    deviation = _brightness_deviation(img, blur_ksize)
    if deviation.max() > 0:
        otsu_level = otsu_threshold(deviation)
        gate = deviation >= min(max(otsu_level * 0.5, 4.0), 40.0)
    else:
        gate = np.zeros(deviation.shape, dtype=bool)
    cloud &= gate
    shadow &= gate

    return CloudShadowMasks(
        cloud=_clean(cloud, min_object_size),
        shadow=_clean(shadow, min_object_size),
    )

