"""Thin-cloud and cloud-shadow filtering (paper §III-A).

* :mod:`repro.cloudshadow.detection` — classical mask detection (and the coverage it implies)
* :mod:`repro.cloudshadow.removal` — linear-mixing-model veil estimation and inversion
* :mod:`repro.cloudshadow.pipeline` — combined filter with batch helpers
"""

from .detection import CloudShadowMasks, detect_cloud_shadow
from .pipeline import CloudShadowFilter, FilterResult, filter_tiles
from .removal import ThinCloudShadowRemover, VeilEstimate

__all__ = [
    "CloudShadowMasks",
    "detect_cloud_shadow",
    "CloudShadowFilter",
    "FilterResult",
    "filter_tiles",
    "ThinCloudShadowRemover",
    "VeilEstimate",
]
