"""End-to-end thin-cloud / shadow filter pipeline (paper §III-A, Figure 5).

Combines detection (which pixels are veiled, and how much of the tile is
affected) with removal (what the surface underneath looks like), and adds
a batch method so the auto-labeling and inference workflows can filter whole
tile stacks with one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .detection import CloudShadowMasks, detect_cloud_shadow
from .removal import ThinCloudShadowRemover, VeilEstimate

__all__ = ["FilterResult", "CloudShadowFilter"]


@dataclass
class FilterResult:
    """Filtered image plus every intermediate product of the filter."""

    filtered: np.ndarray
    masks: CloudShadowMasks
    veil: VeilEstimate

    @property
    def coverage(self) -> float:
        """Detected cloud+shadow coverage of the input image."""
        return self.masks.coverage


@dataclass
class CloudShadowFilter:
    """The paper's thin-cloud and shadow filter as a reusable component.

    ``apply`` runs detection + removal on one tile / scene; ``apply_batch``
    maps it over a stack of tiles.  Construction arguments tune the
    underlying remover (see :class:`ThinCloudShadowRemover`).
    """

    remover: ThinCloudShadowRemover = field(default_factory=ThinCloudShadowRemover)
    detection_blur_ksize: int = 63

    def apply(self, rgb: np.ndarray) -> FilterResult:
        """Filter a single ``(H, W, 3)`` uint8 image."""
        img = np.asarray(rgb)
        veil = self.remover.estimate(img)
        masks = detect_cloud_shadow(img, blur_ksize=self.detection_blur_ksize, estimate=veil)
        filtered = self.remover.remove(img, veil)
        return FilterResult(filtered=filtered, masks=masks, veil=veil)

    def filter_image(self, rgb: np.ndarray) -> np.ndarray:
        """Return only the filtered image (fast path used by the parallel workflows)."""
        return self.remover.remove(np.asarray(rgb))

    def filter_planes(self, rgb: np.ndarray) -> np.ndarray:
        """The filtered image as float32 ``(3, H, W)`` planes of exact uint8 values (what the labeler reads)."""
        return self.remover.remove_planes(np.asarray(rgb))

    def apply_batch(self, tiles: np.ndarray) -> np.ndarray:
        """Filter a ``(N, H, W, 3)`` stack of tiles, returning the filtered stack."""
        stack = np.asarray(tiles)
        if stack.ndim != 4 or stack.shape[-1] != 3:
            raise ValueError(f"expected (N, H, W, 3) tile stack, got shape {stack.shape}")
        return np.stack([self.filter_image(stack[i]) for i in range(stack.shape[0])])

    def coverage(self, rgb: np.ndarray) -> float:
        """Detected cloud+shadow coverage fraction of one image."""
        return detect_cloud_shadow(np.asarray(rgb), blur_ksize=self.detection_blur_ksize, remover=self.remover).coverage
