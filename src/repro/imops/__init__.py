"""Pure-NumPy image operations (the repo's OpenCV substitute).

What the paper's thin-cloud/shadow filter, colour-segmentation auto-labeler and
tiled inference call:

* :mod:`repro.imops.color` — RGB→HSV planes (OpenCV uint8 conventions)
* :mod:`repro.imops.threshold` — Otsu's automatic level
* :mod:`repro.imops.filters` — Gaussian and median filtering
* :mod:`repro.imops.arithmetic` — round-and-clip to uint8
* :mod:`repro.imops.morphology` — closing and small-object removal of binary masks
* :mod:`repro.imops.resize` — scene tiling and (blended) reassembly

The rest (fixed-level and adaptive thresholds, box and bilateral filters, saturating
and bit-wise arithmetic, resizing, HSV→RGB and grayscale helpers) is tested but has no
caller in the pipeline; ``tests/test_reachability.py`` lists it.
"""

from .arithmetic import (
    absdiff,
    apply_mask,
    bitwise_and,
    bitwise_not,
    bitwise_or,
    min_max_normalize,
    saturating_add,
    saturating_subtract,
    scale_to_uint8,
)
from .color import (
    channel_planes,
    gray_to_rgb,
    hsv_planes,
    hsv_to_rgb,
    merge_channels,
    rgb_to_gray,
    rgb_to_hsv,
    split_channels,
)
from .filters import bilateral_filter, box_filter, gaussian_blur, gaussian_kernel1d, median_blur
from .morphology import (
    dilate,
    erode,
    fill_holes,
    morph_close,
    morph_open,
    remove_small_objects,
    structuring_element,
)
from .resize import (
    TileGrid,
    assemble_from_tiles,
    blend_window,
    pad_to_multiple,
    resize_bilinear,
    resize_nearest,
    split_into_tiles,
)
from .threshold import (
    ThresholdType,
    adaptive_mean_threshold,
    otsu_threshold,
    threshold,
    threshold_binary,
    threshold_binary_inv,
    threshold_tozero,
    threshold_tozero_inv,
    threshold_truncate,
)

__all__ = [
    "absdiff",
    "apply_mask",
    "bitwise_and",
    "bitwise_not",
    "bitwise_or",
    "min_max_normalize",
    "saturating_add",
    "saturating_subtract",
    "scale_to_uint8",
    "channel_planes",
    "gray_to_rgb",
    "hsv_planes",
    "hsv_to_rgb",
    "merge_channels",
    "rgb_to_gray",
    "rgb_to_hsv",
    "split_channels",
    "bilateral_filter",
    "box_filter",
    "gaussian_blur",
    "gaussian_kernel1d",
    "median_blur",
    "dilate",
    "erode",
    "fill_holes",
    "morph_close",
    "morph_open",
    "remove_small_objects",
    "structuring_element",
    "TileGrid",
    "assemble_from_tiles",
    "blend_window",
    "pad_to_multiple",
    "resize_bilinear",
    "resize_nearest",
    "split_into_tiles",
    "ThresholdType",
    "adaptive_mean_threshold",
    "otsu_threshold",
    "threshold",
    "threshold_binary",
    "threshold_binary_inv",
    "threshold_tozero",
    "threshold_tozero_inv",
    "threshold_truncate",
]
