"""Synthetic thin-cloud and cloud-shadow fields.

Thin clouds and their shadows are the main confounder the paper's filter
removes.  Both are modelled as smooth opacity fields: a low-frequency
spectral-noise field is thresholded to place a bank, a smooth ramp controls
the opacity inside the bank, and the shadow bank is a translated copy of the
cloud bank (shadows fall a sun-dependent offset away from the cloud that
casts them).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .noise import spectral_noise

__all__ = ["CloudShadowField", "generate_cloud_field", "generate_cloud_shadow_pair"]

#: Spectral slope of the field that places a cloud bank: smooth, low-frequency structure.
CLOUD_BETA = 3.5


@dataclass
class CloudShadowField:
    """Per-pixel opacity of the thin-cloud veil and the shadow veil."""

    cloud_alpha: np.ndarray
    shadow_alpha: np.ndarray

    @property
    def cloud_mask(self) -> np.ndarray:
        """Boolean mask of pixels with non-negligible cloud opacity."""
        return self.cloud_alpha > 0.02

    @property
    def shadow_mask(self) -> np.ndarray:
        """Boolean mask of pixels with non-negligible shadow opacity."""
        return self.shadow_alpha > 0.02

    @property
    def affected_mask(self) -> np.ndarray:
        """Pixels affected by either clouds or shadows."""
        return self.cloud_mask | self.shadow_mask

    @property
    def affected_fraction(self) -> float:
        """Fraction of the image affected by clouds or shadows (Table V split key)."""
        return float(self.affected_mask.mean())


def generate_cloud_field(
    shape: tuple[int, int],
    coverage: float,
    max_opacity: float = 0.55,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Generate one smooth opacity field covering about ``coverage`` of the image.

    The field is zero outside the bank and ramps smoothly up to at most
    ``max_opacity`` inside it, so veil edges are diffuse as for real thin
    clouds.
    """
    if not 0.0 <= coverage <= 1.0:
        raise ValueError("coverage must be in [0, 1]")
    if not 0.0 <= max_opacity <= 0.95:
        raise ValueError("max_opacity must be in [0, 0.95]")
    rng = rng or np.random.default_rng()
    if coverage == 0.0 or max_opacity == 0.0:
        return np.zeros(shape, dtype=np.float64)

    field = spectral_noise(shape, beta=CLOUD_BETA, rng=rng)
    cut = np.quantile(field, 1.0 - coverage)
    # Smooth ramp from the threshold to the field maximum; the 0.45 exponent
    # keeps the bank interior close to peak opacity with diffuse edges.
    excess = np.clip(field - cut, 0.0, None)
    peak = excess.max()
    if peak <= 0:
        return np.zeros(shape, dtype=np.float64)
    alpha = max_opacity * (excess / peak) ** 0.45
    return np.clip(alpha, 0.0, max_opacity)


def generate_cloud_shadow_pair(
    shape: tuple[int, int],
    cloud_coverage: float,
    cloud_max_opacity: float = 0.55,
    shadow_max_opacity: float = 0.55,
    rng: np.random.Generator | None = None,
) -> CloudShadowField:
    """Generate a consistent cloud / shadow opacity pair.

    The shadow field is the cloud field translated by a random offset of up
    to 1/6 of the image's longer side along each axis and lightly
    re-smoothed, mimicking the projection geometry of a low sun.
    """
    rng = rng or np.random.default_rng()
    cloud = generate_cloud_field(shape, cloud_coverage, cloud_max_opacity, rng=rng)

    span = max(shape) // 6 or 1
    shadow_offset = (int(rng.integers(-span, span + 1)), int(rng.integers(-span, span + 1)))
    shadow = np.roll(cloud, shift=shadow_offset, axis=(0, 1))
    if shadow.any():
        shadow = ndimage.gaussian_filter(shadow, sigma=max(shape) / 100.0 + 1.0)
        peak = shadow.max()
        if peak > 0:
            shadow = shadow / peak * shadow_max_opacity

    # Where cloud and shadow overlap the cloud dominates what the sensor sees.
    shadow = np.where(cloud > 0.05, shadow * 0.3, shadow)
    return CloudShadowField(cloud_alpha=cloud, shadow_alpha=np.clip(shadow, 0.0, shadow_max_opacity))
