"""Pure-NumPy image operations (the repo's OpenCV substitute).

What the paper's thin-cloud/shadow filter, colour-segmentation auto-labeler and
tiled inference call:

* :mod:`repro.imops.color` — channel planes and RGB→HSV planes (OpenCV uint8 conventions)
* :mod:`repro.imops.filters` — Gaussian blurring (the filter's score pooling and opacity smoothing, SSIM's window)
* :mod:`repro.imops.resize` — scene tiling and (blended) reassembly

Nothing else lives here: ``tests/test_reachability.py`` fails on a public name or
method no entry point reaches.
"""

from .color import channel_planes, hsv_planes, rgb_to_hsv
from .filters import gaussian_blur, gaussian_kernel1d
from .resize import TileGrid, assemble_from_tiles, blend_window, split_into_tiles

__all__ = [
    "channel_planes",
    "hsv_planes",
    "rgb_to_hsv",
    "gaussian_blur",
    "gaussian_kernel1d",
    "TileGrid",
    "assemble_from_tiles",
    "blend_window",
    "split_into_tiles",
]
