"""Sea-ice class definitions shared by every subsystem.

The paper classifies each Sentinel-2 pixel as one of three surface types
and annotates them with fixed colours (red / blue / green).  The HSV
threshold ranges quoted in §III-B (OpenCV uint8 convention, hue in
``[0, 179]``) are recorded here verbatim and used both by the auto-labeler
and by the synthetic scene generator so the two stay consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import reduce

import numpy as np

__all__ = [
    "SeaIceClass",
    "CLASS_NAMES",
    "NUM_CLASSES",
    "LABEL_COLORS",
    "HSVRange",
    "HSV_RANGES",
    "class_map_to_color",
    "color_to_class_map",
]


class SeaIceClass(IntEnum):
    """Integer ids of the three sea-ice surface types."""

    THICK_ICE = 0
    THIN_ICE = 1
    OPEN_WATER = 2


NUM_CLASSES = 3

CLASS_NAMES: dict[SeaIceClass, str] = {
    SeaIceClass.THICK_ICE: "thick_ice",
    SeaIceClass.THIN_ICE: "thin_ice",
    SeaIceClass.OPEN_WATER: "open_water",
}

#: Label colours used in the paper's annotated figures:
#: red = snow-covered / thick ice, blue = thin or young ice, green = open water.
LABEL_COLORS: dict[SeaIceClass, tuple[int, int, int]] = {
    SeaIceClass.THICK_ICE: (255, 0, 0),
    SeaIceClass.THIN_ICE: (0, 0, 255),
    SeaIceClass.OPEN_WATER: (0, 255, 0),
}


@dataclass(frozen=True)
class HSVRange:
    """Inclusive lower/upper HSV bounds (OpenCV uint8 convention)."""

    lower: tuple[int, int, int]
    upper: tuple[int, int, int]

    def inside(self, planes: dict) -> np.ndarray:
        """Boolean mask of pixels within the bounds of every channel given (``{channel: (H, W) plane}``)."""
        checks = [(plane >= self.lower[c]) & (plane <= self.upper[c]) for c, plane in planes.items()]
        return reduce(np.logical_and, checks)

    def contains(self, hsv: np.ndarray) -> np.ndarray:
        """Boolean mask of pixels inside the range (``hsv`` is ``(H, W, 3)`` uint8)."""
        arr = np.asarray(hsv)
        if arr.ndim != 3 or arr.shape[-1] != 3:
            raise ValueError(f"expected (H, W, 3) HSV image, got shape {arr.shape}")
        return self.inside({c: arr[..., c] for c in range(3)})


#: Auto-labeling colour thresholds from paper §III-B (Ross Sea, Antarctic summer).
HSV_RANGES: dict[SeaIceClass, HSVRange] = {
    SeaIceClass.THICK_ICE: HSVRange(lower=(0, 0, 205), upper=(185, 255, 255)),
    SeaIceClass.THIN_ICE: HSVRange(lower=(0, 0, 31), upper=(185, 255, 204)),
    SeaIceClass.OPEN_WATER: HSVRange(lower=(0, 0, 0), upper=(185, 255, 30)),
}


def class_map_to_color(class_map: np.ndarray) -> np.ndarray:
    """Render an integer class map as the paper's red/blue/green label image."""
    cmap = np.asarray(class_map)
    if cmap.ndim != 2:
        raise ValueError(f"expected 2-D class map, got shape {cmap.shape}")
    lut = np.zeros((NUM_CLASSES, 3), dtype=np.uint8)
    for cls, rgb in LABEL_COLORS.items():
        lut[int(cls)] = rgb
    if cmap.min() < 0 or cmap.max() >= NUM_CLASSES:
        raise ValueError("class map contains ids outside the known classes")
    return lut[cmap.astype(np.intp)]


def color_to_class_map(label_image: np.ndarray) -> np.ndarray:
    """Invert :func:`class_map_to_color` by nearest label colour.

    Useful when round-tripping label images through lossy stores; each pixel
    is assigned the class whose reference colour is closest in RGB space.
    """
    img = np.asarray(label_image)
    if img.ndim != 3 or img.shape[-1] != 3:
        raise ValueError(f"expected (H, W, 3) label image, got shape {img.shape}")
    colors = np.array([LABEL_COLORS[SeaIceClass(i)] for i in range(NUM_CLASSES)], dtype=np.int32)
    diff = img[..., None, :].astype(np.int32) - colors[None, None, :, :]
    dist = np.sum(diff * diff, axis=-1)
    return np.argmin(dist, axis=-1).astype(np.uint8)
