"""2-D convolution layer on the offset-sliced GEMM kernels of :mod:`repro.nn.convgemm`."""

from __future__ import annotations

import numpy as np

from .convgemm import conv_backward_offset, conv_forward_offset, conv_output_size, pad_input
from .initializers import he_normal, zeros
from .module import Module, Parameter

__all__ = ["Conv2D"]


class Conv2D(Module):
    """2-D convolution over ``(N, C, H, W)`` batches, plus a per-output-channel bias.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts of the input and output feature maps.
    kernel_size:
        Square kernel side (the paper's U-Net uses 3×3, 2×2 and 1×1 kernels).
    padding:
        Symmetric zero padding; ``"same"`` picks ``kernel_size // 2`` so the
        spatial size is preserved for odd kernels (the paper's U-Net keeps
        tile size constant through each stage; pooling does the down-sampling).
    seed:
        Seed of the weight initialisation.

    Training caches only the padded input: backward contracts ``dW`` against
    strided views of it, so no ``k²``-inflated unrolled matrix is pinned
    across the step — or built at all.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        padding: "int | str" = "same",
        seed: int = 0,
    ) -> None:
        super().__init__()
        if in_channels < 1 or out_channels < 1:
            raise ValueError("channel counts must be >= 1")
        if kernel_size < 1:
            raise ValueError("kernel_size must be >= 1")
        if isinstance(padding, str):
            if padding != "same":
                raise ValueError("string padding must be 'same'")
            padding = kernel_size // 2
        if padding < 0:
            raise ValueError("padding must be >= 0")

        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.padding = int(padding)

        rng = np.random.default_rng(seed)
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(he_normal((out_channels, in_channels, kernel_size, kernel_size), fan_in, rng))
        self.bias = Parameter(zeros((out_channels,)))

        self._cache: np.ndarray | None = None  # the padded input of the last training forward

    # ------------------------------------------------------------------ #
    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected (N, {self.in_channels}, H, W) input, got shape {x.shape}"
            )
        for size in x.shape[2:]:
            conv_output_size(size, self.kernel_size, self.padding)  # raises on an input smaller than the kernel
        xp = pad_input(x, self.padding)
        self._cache = xp if self.training else None
        return conv_forward_offset(xp, self.weight.value, self.bias.value)

    def backward(self, grad_output: np.ndarray, need_input_grad: bool = True) -> np.ndarray | None:
        """Accumulate parameter gradients and return ``dL/dinput``.

        ``need_input_grad=False`` skips the input-gradient contraction
        entirely (a third of the backward cost) — used for the first layer of
        a network, whose input gradient nobody consumes.
        """
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        dx, dw, db = conv_backward_offset(
            self._cache, self.weight.value, np.asarray(grad_output, dtype=np.float32),
            need_input_grad=need_input_grad, pad=self.padding,
        )
        self.weight.grad += dw
        self.bias.grad += db
        return dx
