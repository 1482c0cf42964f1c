"""Sea-ice labeling: HSV colour-segmentation auto-labeling and simulated manual annotation."""

from .autolabel import AutoLabelResult, ColorSegmentationLabeler, autolabel_batch, autolabel_tile
from .manual import ManualLabelSimulator, simulate_manual_labels

__all__ = [
    "AutoLabelResult",
    "ColorSegmentationLabeler",
    "autolabel_batch",
    "autolabel_tile",
    "ManualLabelSimulator",
    "simulate_manual_labels",
]
