"""Sea-ice labeling: HSV colour-segmentation auto-labeling and simulated manual annotation."""

from .autolabel import AutoLabelResult, ColorSegmentationLabeler, autolabel_batch
from .manual import ManualLabelSimulator, simulate_manual_labels

__all__ = [
    "AutoLabelResult",
    "ColorSegmentationLabeler",
    "autolabel_batch",
    "ManualLabelSimulator",
    "simulate_manual_labels",
]
