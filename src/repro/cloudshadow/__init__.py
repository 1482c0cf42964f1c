"""Thin-cloud and cloud-shadow filtering (paper §III-A).

* :mod:`repro.cloudshadow.detection` — classical mask detection (and the coverage it implies)
* :mod:`repro.cloudshadow.removal` — linear-mixing-model veil estimation and inversion
* :mod:`repro.cloudshadow.pipeline` — combined filter and its batch method
"""

from .detection import CloudShadowMasks, detect_cloud_shadow
from .pipeline import CloudShadowFilter, FilterResult
from .removal import ThinCloudShadowRemover, VeilEstimate

__all__ = [
    "CloudShadowMasks",
    "detect_cloud_shadow",
    "CloudShadowFilter",
    "FilterResult",
    "ThinCloudShadowRemover",
    "VeilEstimate",
]
