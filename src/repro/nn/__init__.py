"""A compact NumPy deep-learning framework (the TensorFlow/Keras substitute).

Layer-wise reverse-mode differentiation with the building blocks the paper's
U-Net needs: offset-GEMM convolutions, ReLU, max pooling, up-convolution, dropout,
channel concatenation, softmax cross-entropy, Adam, compiled
inference plans and weight checkpointing.
"""

from .conv import Conv2D
from .convgemm import (
    conv_backward_offset,
    conv_forward_offset,
    conv_output_size,
    pad_input,
    release_workspace,
    workspace_nbytes,
)
from .initializers import he_normal, zeros
from .layers import Concat, Dropout, MaxPool2D, ReLU, UpConv2D
from .losses import CategoricalCrossEntropy, softmax
from .module import Module, Parameter
from .optimizers import Adam, Optimizer
from .plan import CompiledPlan, PlanBuilder, PlanCache
from .serialization import (
    CheckpointError,
    load_checkpoint,
    load_model_state,
    read_metadata,
    save_checkpoint,
    save_weights,
)

__all__ = [
    "Conv2D",
    "conv_backward_offset",
    "conv_forward_offset",
    "conv_output_size",
    "pad_input",
    "release_workspace",
    "workspace_nbytes",
    "he_normal",
    "zeros",
    "Concat",
    "Dropout",
    "MaxPool2D",
    "ReLU",
    "UpConv2D",
    "CategoricalCrossEntropy",
    "softmax",
    "Module",
    "Parameter",
    "Adam",
    "Optimizer",
    "CompiledPlan",
    "PlanBuilder",
    "PlanCache",
    "CheckpointError",
    "load_checkpoint",
    "load_model_state",
    "read_metadata",
    "save_checkpoint",
    "save_weights",
]
