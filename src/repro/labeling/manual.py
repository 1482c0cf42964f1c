"""Simulated manual labeling.

The paper manually annotated all 4224 tiles to obtain ground truth for
validation and to train the U-Net-Man baseline.  With synthetic scenes the
exact class map is known, so "manual" labels are derived from it; to stay
faithful to how human annotation behaves, a controlled amount of annotation
imperfection is injected:

* **boundary jitter** — annotators draw polygon boundaries that wobble a few
  pixels around the true class edges;
* **small-region omission** — tiny leads / floes below the annotator's
  attention scale are merged into their surrounding class.

Both effects are label-preserving in the large (overall accuracy of the
simulated manual labels against the true map stays in the high 90s, as one
expects from careful expert annotation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from ..classes import NUM_CLASSES

__all__ = ["ManualLabelSimulator", "simulate_manual_labels"]

#: Standard deviation (pixels) of the smooth displacement field applied to class boundaries.
BOUNDARY_JITTER = 1.0
#: Regions smaller than this many pixels are absorbed into their neighbourhood (annotators skip tiny features).
MIN_REGION_SIZE = 8


@dataclass
class ManualLabelSimulator:
    """Derives human-like annotations from ground-truth class maps: boundaries jittered by
    :data:`BOUNDARY_JITTER`, regions below :data:`MIN_REGION_SIZE` absorbed.  ``seed`` seeds the
    simulator's random generator."""

    seed: int = 0

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    def annotate(self, class_map: np.ndarray) -> np.ndarray:
        """Return a simulated manual annotation of one ``(H, W)`` class map."""
        cmap = np.asarray(class_map)
        if cmap.ndim != 2:
            raise ValueError(f"expected 2-D class map, got shape {cmap.shape}")
        if cmap.min() < 0 or cmap.max() >= NUM_CLASSES:
            raise ValueError("class map contains unknown class ids")
        return self._absorb_small_regions(self._jitter_boundaries(cmap)).astype(np.uint8)

    def annotate_batch(self, class_maps: np.ndarray) -> np.ndarray:
        """Annotate a ``(N, H, W)`` stack of class maps."""
        stack = np.asarray(class_maps)
        if stack.ndim != 3:
            raise ValueError(f"expected (N, H, W) stack, got shape {stack.shape}")
        if not len(stack):
            return np.empty(stack.shape, dtype=np.uint8)
        return np.stack([self.annotate(stack[i]) for i in range(stack.shape[0])])

    # ------------------------------------------------------------------ #
    def _jitter_boundaries(self, cmap: np.ndarray) -> np.ndarray:
        """Warp the label map with a smooth random displacement field."""
        h, w = cmap.shape
        sigma_field = max(4.0, min(h, w) / 16.0)
        dy = ndimage.gaussian_filter(self._rng.normal(0, 1, (h, w)), sigma_field)
        dx = ndimage.gaussian_filter(self._rng.normal(0, 1, (h, w)), sigma_field)
        for d in (dy, dx):
            peak = np.abs(d).max()
            if peak > 0:
                d *= BOUNDARY_JITTER / peak
        rows, cols = np.mgrid[0:h, 0:w]
        src_r = np.clip(np.round(rows + dy), 0, h - 1).astype(np.intp)
        src_c = np.clip(np.round(cols + dx), 0, w - 1).astype(np.intp)
        return cmap[src_r, src_c]

    def _absorb_small_regions(self, cmap: np.ndarray) -> np.ndarray:
        """Replace connected regions below the size threshold with the local majority class."""
        out = cmap.copy()
        majority = int(np.bincount(cmap.ravel(), minlength=NUM_CLASSES).argmax())
        for cls in range(NUM_CLASSES):
            mask = out == cls
            labeled, num = ndimage.label(mask)
            if num == 0:
                continue
            sizes = ndimage.sum(mask, labeled, index=np.arange(1, num + 1))
            small = np.flatnonzero(sizes < MIN_REGION_SIZE) + 1
            if small.size == 0:
                continue
            small_mask = np.isin(labeled, small)
            # Fill with the class of the dilated surroundings (approximated by
            # the dataset majority when the region touches nothing else).
            dilated = ndimage.grey_dilation(out, size=3)
            replacement = np.where(dilated[small_mask] != cls, dilated[small_mask], majority)
            out[small_mask] = replacement
        return out


def simulate_manual_labels(class_maps: np.ndarray, seed: int = 0) -> np.ndarray:
    """Convenience wrapper: simulate manual annotation of a label stack."""
    sim = ManualLabelSimulator(seed=seed)
    stack = np.asarray(class_maps)
    if stack.ndim == 2:
        return sim.annotate(stack)
    return sim.annotate_batch(stack)
