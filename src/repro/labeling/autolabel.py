"""Colour-segmentation auto-labeling (paper §III-B, Figure 6).

Each Sentinel-2 RGB tile is converted to HSV; per-class masks are built from
the fixed HSV lower/upper bounds the paper determined for the Ross Sea
summer season, and the masks are merged into a single class map / colour
label image.  Optionally the thin-cloud/shadow filter is applied first,
which is the configuration that produces the paper's best results.  Only the
HSV planes some range bounds are computed: the published thresholds leave hue
and saturation at their full span, so the class is a function of V alone.

The per-pixel work is completely independent across tiles, which is what
makes the process embarrassingly parallel — the multiprocessing and
map-reduce scaling experiments (Tables I and II) both parallelise exactly
this function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..classes import HSV_RANGES, SeaIceClass, class_map_to_color
from ..cloudshadow import CloudShadowFilter
from ..imops import hsv_planes

__all__ = ["AutoLabelResult", "ColorSegmentationLabeler", "autolabel_batch"]


@dataclass
class AutoLabelResult:
    """Output of auto-labeling one tile."""

    class_map: np.ndarray  #: (H, W) uint8 class ids
    label_image: np.ndarray  #: (H, W, 3) uint8 red/blue/green label rendering
    masks: dict  #: per-class boolean masks keyed by :class:`SeaIceClass`
    filtered_rgb: np.ndarray | None = None  #: cloud/shadow-filtered input, if filtering was enabled


@dataclass
class ColorSegmentationLabeler:
    """HSV colour-range segmentation labeler.

    The ranges are the paper's published thresholds,
    :data:`~repro.classes.HSV_RANGES` (one :class:`~repro.classes.HSVRange`
    per class, none overlapping); pixels matching no range are assigned to
    the nearest range by HSV value.

    Parameters
    ----------
    apply_cloud_filter:
        Run the thin-cloud/shadow filter before segmentation (the paper's
        recommended configuration).
    cloud_filter:
        The filter instance to use when ``apply_cloud_filter`` is set.
    """

    apply_cloud_filter: bool = False
    cloud_filter: CloudShadowFilter = field(default_factory=CloudShadowFilter)

    def __post_init__(self) -> None:
        self._ranges = HSV_RANGES
        # Centre of each class's value band: where leftover pixels are sent (depends only on the ranges).
        self._value_centers = np.array(
            [(self._ranges[cls].lower[2] + self._ranges[cls].upper[2]) // 2 for cls in SeaIceClass], dtype=np.int32
        )
        # The planes a class map depends on: hue / saturation only if some range bounds them inside the
        # channel's own span (the paper's thresholds do not), value always (leftover pixels go by it).
        bounded = [c for c, top in ((0, 179), (1, 255)) if any(r.lower[c] > 0 or r.upper[c] < top for r in self._ranges.values())]
        self._channels = (*bounded, 2)

    # ------------------------------------------------------------------ #
    def _label(self, planes: np.ndarray, unit: "bool | None" = None) -> tuple:
        """``(class_map, masks)`` of ``(3, H, W)`` RGB planes: what :meth:`segment` and ``__call__`` share."""
        if planes.ndim != 3 or planes.shape[0] != 3:
            raise ValueError(f"expected (H, W, 3) RGB image, got shape {planes.shape[1:] + planes.shape[:1]}")
        hsv = hsv_planes(planes, self._channels, unit)
        masks = {cls: rng.inside(hsv) for cls, rng in self._ranges.items()}

        class_map = np.full(planes.shape[1:], 255, dtype=np.uint8)
        for cls in reversed(SeaIceClass):  # written last wins: the first class whose range matches
            np.putmask(class_map, masks[cls], int(cls))
        unassigned = class_map == 255
        if unassigned.any():  # leftover pixels go to the class whose value band is closest
            dist = np.abs(hsv[2][unassigned].astype(np.int32)[:, None] - self._value_centers[None, :])
            class_map[unassigned] = np.argmin(dist, axis=1)
        return class_map, masks

    def segment(self, rgb: np.ndarray) -> AutoLabelResult:
        """Auto-label one ``(H, W, 3)`` uint8 RGB tile."""
        img = np.asarray(rgb)
        filtered = self.cloud_filter.filter_image(img) if self.apply_cloud_filter else None
        class_map, masks = self._label(np.moveaxis(img if filtered is None else filtered, -1, 0))
        return AutoLabelResult(
            class_map=class_map,
            label_image=class_map_to_color(class_map),
            masks=masks,
            filtered_rgb=filtered,
        )

    # ------------------------------------------------------------------ #
    def __call__(self, rgb: np.ndarray) -> np.ndarray:
        """Return only the class map (the form used by the parallel pipelines).

        Nobody reads the filtered image here, so the filter's float32 planes (exact integers 0-255) are labelled
        as they are; :meth:`segment` labels their uint8 interleave, and the two agree bit for bit."""
        if self.apply_cloud_filter:
            return self._label(self.cloud_filter.filter_planes(rgb), unit=False)[0]
        return self._label(np.moveaxis(np.asarray(rgb), -1, 0))[0]

    def label_batch(self, tiles: np.ndarray) -> np.ndarray:
        """Auto-label a ``(N, H, W, 3)`` stack of tiles into ``(N, H, W)`` class maps."""
        stack = np.asarray(tiles)
        if stack.ndim != 4 or stack.shape[-1] != 3:
            raise ValueError(f"expected (N, H, W, 3) tile stack, got shape {stack.shape}")
        if not len(stack):
            return np.empty(stack.shape[:3], dtype=np.uint8)
        return np.stack([self(stack[i]) for i in range(stack.shape[0])])


#: The default labelers, with and without the cloud/shadow filter: built once per process and
#: inherited by forked workers.  They hold calibration only (every call allocates its own scratch and
#: drops it on return), so every caller in a process may share them.
_DEFAULT_LABELERS = {flag: ColorSegmentationLabeler(apply_cloud_filter=flag) for flag in (False, True)}


def autolabel_batch(tiles: np.ndarray, apply_cloud_filter: bool = True) -> np.ndarray:
    """Label a stack of tiles with default settings (serial reference implementation)."""
    return _DEFAULT_LABELERS[bool(apply_cloud_filter)].label_batch(tiles)
