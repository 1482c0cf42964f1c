"""U-Net model and inference pipeline for sea-ice classification."""

from .compiled import CompiledUNet, compile_unet_plan
from .inference import (
    InferenceConfig,
    SceneClassifier,
    predict_batch_probabilities,
    predict_tile_probabilities,
)
from .model import UNet, UNetConfig, tiny_unet_config

__all__ = [
    "CompiledUNet",
    "compile_unet_plan",
    "InferenceConfig",
    "SceneClassifier",
    "predict_batch_probabilities",
    "predict_tile_probabilities",
    "UNet",
    "UNetConfig",
    "tiny_unet_config",
]
