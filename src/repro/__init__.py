"""repro: a parallel workflow for polar sea-ice classification using auto-labeling
of (synthetic) Sentinel-2 imagery.

Reproduction of Iqrah et al., "A Parallel Workflow for Polar Sea-Ice
Classification using Auto-labeling of Sentinel-2 Imagery".  The package is
organised as a set of substrates (image ops, synthetic data, map-reduce
engine, NumPy deep-learning framework, distributed training) plus the
paper's workflow layered on top; see DESIGN.md for the inventory and
EXPERIMENTS.md for the per-table reproduction status.
"""

from . import classes, cloudshadow, data, distributed, imops, labeling, mapreduce, metrics, nn, unet, workflow
from .classes import CLASS_NAMES, HSV_RANGES, LABEL_COLORS, NUM_CLASSES, SeaIceClass

__version__ = "1.0.0"

__all__ = [
    "classes",
    "cloudshadow",
    "data",
    "distributed",
    "imops",
    "labeling",
    "mapreduce",
    "metrics",
    "nn",
    "unet",
    "workflow",
    "CLASS_NAMES",
    "HSV_RANGES",
    "LABEL_COLORS",
    "NUM_CLASSES",
    "SeaIceClass",
    "__version__",
]
