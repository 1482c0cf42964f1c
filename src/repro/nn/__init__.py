"""A compact NumPy deep-learning framework (the TensorFlow/Keras substitute).

Layer-wise reverse-mode differentiation with the building blocks the paper's
U-Net needs: offset-GEMM convolutions, ReLU, max pooling, up-convolution, dropout,
batch norm, channel concatenation, softmax cross-entropy, SGD/Adam, weight
checkpointing and numerical gradient checking.
"""

from .conv import Conv2D
from .gradcheck import check_layer_gradients, numerical_gradient, relative_error
from .convgemm import (
    conv_backward_offset,
    conv_forward_offset,
    conv_output_size,
    pad_input,
    release_workspace,
    workspace_nbytes,
)
from .initializers import get_initializer, glorot_uniform, he_normal, zeros
from .layers import BatchNorm2D, Concat, Dropout, MaxPool2D, ReLU, UpConv2D
from .losses import CategoricalCrossEntropy, softmax
from .module import Module, Parameter, Sequential
from .optimizers import SGD, Adam, Optimizer
from .plan import CompiledPlan, PlanBuilder, PlanCache
from .serialization import (
    CheckpointError,
    load_checkpoint,
    load_model_state,
    load_weights,
    read_metadata,
    save_checkpoint,
    save_weights,
)

__all__ = [
    "Conv2D",
    "check_layer_gradients",
    "numerical_gradient",
    "relative_error",
    "conv_backward_offset",
    "conv_forward_offset",
    "conv_output_size",
    "pad_input",
    "release_workspace",
    "workspace_nbytes",
    "get_initializer",
    "glorot_uniform",
    "he_normal",
    "zeros",
    "BatchNorm2D",
    "Concat",
    "Dropout",
    "MaxPool2D",
    "ReLU",
    "UpConv2D",
    "CategoricalCrossEntropy",
    "softmax",
    "Module",
    "Parameter",
    "Sequential",
    "SGD",
    "Adam",
    "Optimizer",
    "CompiledPlan",
    "PlanBuilder",
    "PlanCache",
    "CheckpointError",
    "load_checkpoint",
    "load_model_state",
    "load_weights",
    "read_metadata",
    "save_checkpoint",
    "save_weights",
]
