"""Synthetic Sentinel-2 data substrate.

Because the original Sentinel-2 Ross Sea archive cannot be downloaded in
this environment, this package generates physically-motivated synthetic
scenes (ice-floe class maps, per-class radiometry, thin-cloud and shadow
veils) along with exact ground truth, and provides the tiling, cataloguing
and batch-loading machinery the workflow needs.
"""

from .io import load_dataset, save_dataset
from .catalog import TileDataset, TileRecord, build_dataset, tiles_from_scenes, train_test_split
from .clouds import CloudShadowField, generate_cloud_field, generate_cloud_shadow_pair
from .loader import BatchLoader, augment_batch, image_to_tensor
from .noise import fractal_noise, spectral_noise
from .radiometry import (
    CLASS_RGB_PROTOTYPES,
    CLASS_TEXTURE_AMPLITUDE,
    CLOUD_CONTAMINANT_RGB,
    SHADOW_CONTAMINANT_RGB,
    mix_contaminant,
    prototype_array,
    render_class_map,
)
from .scene import Scene, SceneSpec, synthesize_scene, synthesize_scenes

__all__ = [
    "load_dataset",
    "save_dataset",
    "TileDataset",
    "TileRecord",
    "build_dataset",
    "tiles_from_scenes",
    "train_test_split",
    "CloudShadowField",
    "generate_cloud_field",
    "generate_cloud_shadow_pair",
    "BatchLoader",
    "augment_batch",
    "image_to_tensor",
    "fractal_noise",
    "spectral_noise",
    "CLASS_RGB_PROTOTYPES",
    "CLASS_TEXTURE_AMPLITUDE",
    "CLOUD_CONTAMINANT_RGB",
    "SHADOW_CONTAMINANT_RGB",
    "mix_contaminant",
    "prototype_array",
    "render_class_map",
    "Scene",
    "SceneSpec",
    "synthesize_scene",
    "synthesize_scenes",
]
