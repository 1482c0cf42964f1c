"""The U-Net semantic segmentation model (paper §III-C, Figure 7), written once as data.

:func:`unet_ops` is the graph as a flat list of :class:`Op` in execution order:
per contracting step two 3×3 convolutions with ReLU (dropout between them) and
2×2 max pooling, the bottleneck without pooling, per expansive step a 2×
up-convolution, the skip concatenation and two 3×3 convolutions with ReLU, then
a 1×1 head.  Activation ``i + 1`` is ``ops[i].layer(*acts[ops[i].srcs])`` and
activation 0 is the input.  An op's name is its layer's ``state_dict`` path
(``enc0.conv.conv1``, ``dec0.concat``, ``head``).  The forward, the backward,
:func:`~repro.unet.compiled.compile_unet_plan`, the weight store and the
trainer's profile all read this one list.

Depth and base width are parameters, so the paper-scale model (5 steps, 64
base channels, 28 convolution layers, 256×256 inputs) and small test variants
share the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..classes import NUM_CLASSES
from ..nn import Concat, Conv2D, Dropout, MaxPool2D, Module, ReLU, UpConv2D
from ..nn.losses import softmax

__all__ = ["Op", "UNetConfig", "UNet", "tiny_unet_config", "unet_ops"]


@dataclass(frozen=True)
class UNetConfig:
    """Hyper-parameters of a U-Net instance."""

    in_channels: int = 3
    num_classes: int = NUM_CLASSES
    depth: int = 3
    base_channels: int = 16
    dropout: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.base_channels < 1:
            raise ValueError("base_channels must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")

    def encoder_channels(self) -> list[int]:
        """Output channel width of every encoder step."""
        return [self.base_channels * (2**i) for i in range(self.depth)]

    def min_input_size(self) -> int:
        """Smallest spatial size the model accepts (input must be divisible by this)."""
        return 2**self.depth

    def check_input_shape(self, shape: tuple[int, ...]) -> None:
        """Raise ``ValueError`` unless ``shape`` is ``(N, in_channels, H, W)`` with H and W divisible by :meth:`min_input_size`."""
        if len(shape) != 4 or shape[1] != self.in_channels:
            raise ValueError(f"expected an (N, {self.in_channels}, H, W) input ({self.in_channels} channels), got {tuple(shape)}")
        step = self.min_input_size()
        if shape[2] % step or shape[3] % step:
            raise ValueError(f"input spatial size must be divisible by {step} for depth {self.depth}")


def tiny_unet_config(seed: int = 0) -> UNetConfig:
    """A small configuration used by tests and quick examples."""
    return UNetConfig(depth=2, base_channels=8, dropout=0.1, seed=seed)


class Op(NamedTuple):
    """One node of the graph: ``layer`` applied to the activations ``srcs``, registered under ``name``."""

    name: str
    layer: Module
    srcs: tuple[int, ...]


def unet_ops(cfg: UNetConfig) -> list[Op]:
    """The U-Net of ``cfg`` as a flat op list in execution order, with fresh layers seeded from ``cfg.seed``."""
    ops: list[Op] = []

    def add(name: str, layer: Module, *srcs: int) -> int:
        """Append an op reading ``srcs`` (default: the latest activation); return its output's index."""
        ops.append(Op(name, layer, srcs or (len(ops),)))
        return len(ops)

    def double_conv(name: str, cin: int, cout: int, seed: int) -> int:
        add(f"{name}.conv1", Conv2D(cin, cout, kernel_size=3, padding="same", seed=seed))
        add(f"{name}.relu1", ReLU())
        if cfg.dropout > 0:
            add(f"{name}.dropout", Dropout(cfg.dropout, seed=seed + 1))
        add(f"{name}.conv2", Conv2D(cout, cout, kernel_size=3, padding="same", seed=seed + 2))
        return add(f"{name}.relu2", ReLU())

    widths = cfg.encoder_channels()
    skips, cin = [], cfg.in_channels
    for i, width in enumerate(widths):
        skips.append(double_conv(f"enc{i}.conv", cin, width, cfg.seed + 10 * i))
        add(f"enc{i}.pool", MaxPool2D(2))
        cin = width
    double_conv("bottleneck", cin, 2 * cin, cfg.seed + 1000)
    cin *= 2
    for i, width in enumerate(reversed(widths)):
        seed = cfg.seed + 2000 + 10 * i
        up = add(f"dec{i}.upconv", UpConv2D(cin, width, seed=seed))
        add(f"dec{i}.concat", Concat(), up, skips.pop())  # channels [up ‖ skip]
        double_conv(f"dec{i}.conv", 2 * width, width, seed + 3)
        cin = width
    add("head", Conv2D(cin, cfg.num_classes, kernel_size=1, padding=0, seed=cfg.seed + 3000))
    return ops


class UNet(Module):
    """Encoder–bottleneck–decoder U-Net with skip connections, run from its op list."""

    def __init__(self, config: UNetConfig | None = None) -> None:
        super().__init__()
        self.config = config or UNetConfig()
        #: the graph in execution order (see :func:`unet_ops`)
        self.ops = unet_ops(self.config)
        # Each layer lives at its dotted op name, under plain containers (``enc0``, ``enc0.conv``, …).
        for op in self.ops:
            *path, leaf = op.name.split(".")
            parent: Module = self
            for part in path:
                if part not in parent._modules:
                    setattr(parent, part, Module())
                parent = parent._modules[part]
            setattr(parent, leaf, op.layer)
        #: activation index -> the last op reading it, where the forward lets it go
        self._last_reader = {s: i for i, op in enumerate(self.ops) for s in op.srcs}

    # ------------------------------------------------------------------ #
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Return per-pixel class logits of shape ``(N, num_classes, H, W)``."""
        x = np.asarray(x, dtype=np.float32)
        self.config.check_input_shape(x.shape)
        acts: list[np.ndarray | None] = [x] + [None] * len(self.ops)
        for i, op in enumerate(self.ops):
            acts[i + 1] = op.layer(*(acts[s] for s in op.srcs))
            for s in op.srcs:
                if self._last_reader[s] == i:
                    acts[s] = None
        return acts[-1]

    def backward(self, grad_output: np.ndarray, need_input_grad: bool = True) -> np.ndarray | None:
        """Back-propagate ``dL/dlogits`` through the ops in reverse and return ``dL/dinput``.

        An activation read twice (a skip: by its pool and by its concat) sums
        the two gradients.  Training loops pass ``need_input_grad=False``:
        nothing consumes the input gradient there, and skipping the first
        layer's input contraction saves a full-resolution transposed
        convolution per step.
        """
        grads: list[np.ndarray | None] = [None] * len(self.ops) + [np.asarray(grad_output, dtype=np.float32)]
        for i in range(len(self.ops) - 1, -1, -1):
            op, grad = self.ops[i], grads[i + 1]
            grads[i + 1] = None
            src_grads = op.layer.backward(*((grad, need_input_grad) if op.srcs == (0,) else (grad,)))  # (0,): the first conv
            for s, g in zip(op.srcs, src_grads if len(op.srcs) > 1 else (src_grads,)):
                grads[s] = g if grads[s] is None else g + grads[s]
        return grads[0]

    # ------------------------------------------------------------------ #
    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities ``(N, K, H, W)`` with the model in eval mode."""
        was_training = self.training
        self.eval()
        try:
            probs = softmax(self.forward(np.asarray(x, dtype=np.float32)), axis=1)
        finally:
            if was_training:
                self.train()
        return probs

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Per-pixel class predictions ``(N, H, W)`` (uint8)."""
        return self.predict_proba(x).argmax(axis=1).astype(np.uint8)

    def num_conv_layers(self) -> int:
        """Number of convolution layers in the model (28 for the paper configuration)."""
        return sum(1 for m in self.modules() if isinstance(m, Conv2D))
