"""Pure-NumPy image operations (the repo's OpenCV substitute).

What the paper's thin-cloud/shadow filter, colour-segmentation auto-labeler and
tiled inference call:

* :mod:`repro.imops.color` — RGB→HSV planes (OpenCV uint8 conventions)
* :mod:`repro.imops.threshold` — Otsu's automatic level
* :mod:`repro.imops.filters` — Gaussian and median filtering
* :mod:`repro.imops.arithmetic` — round-and-clip to uint8
* :mod:`repro.imops.morphology` — closing and small-object removal of binary masks
* :mod:`repro.imops.resize` — scene tiling and (blended) reassembly

Nothing else lives here: ``tests/test_reachability.py`` fails on a public name or
method no entry point reaches.
"""

from .arithmetic import scale_to_uint8
from .color import channel_planes, hsv_planes, rgb_to_hsv
from .filters import gaussian_blur, gaussian_kernel1d, median_blur
from .morphology import dilate, erode, morph_close, remove_small_objects, structuring_element
from .resize import TileGrid, assemble_from_tiles, blend_window, split_into_tiles
from .threshold import ThresholdType, otsu_threshold, threshold

__all__ = [
    "scale_to_uint8",
    "channel_planes",
    "hsv_planes",
    "rgb_to_hsv",
    "gaussian_blur",
    "gaussian_kernel1d",
    "median_blur",
    "dilate",
    "erode",
    "morph_close",
    "remove_small_objects",
    "structuring_element",
    "TileGrid",
    "assemble_from_tiles",
    "blend_window",
    "split_into_tiles",
    "ThresholdType",
    "otsu_threshold",
    "threshold",
]
