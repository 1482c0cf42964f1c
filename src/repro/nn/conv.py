"""2-D convolution layers (offset-GEMM engine with an im2col reference path)."""

from __future__ import annotations

import numpy as np

from .im2col import (
    col2im,
    conv_backward_offset,
    conv_forward_offset,
    conv_output_size,
    im2col,
    pad_input,
)
from .initializers import he_normal, zeros
from .module import Module, Parameter

__all__ = ["Conv2D"]


class Conv2D(Module):
    """2-D convolution over ``(N, C, H, W)`` batches.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts of the input and output feature maps.
    kernel_size:
        Square kernel side (the paper's U-Net uses 3×3, 2×2 and 1×1 kernels).
    stride:
        Spatial stride.
    padding:
        Symmetric zero padding; ``"same"`` picks ``kernel_size // 2`` so the
        spatial size is preserved for odd kernels at stride 1 (the paper's
        U-Net keeps tile size constant through each stage).
    use_bias:
        Add a per-output-channel bias.
    seed:
        Seed of the weight initialisation.
    engine:
        ``"offset"`` (default) trains through the offset-sliced GEMM path,
        which caches only the padded input — ~``k²`` fewer bytes pinned per
        layer than ``"im2col"``, the seed implementation retained as the
        reference for gradient-parity tests.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: "int | str" = "same",
        use_bias: bool = True,
        seed: int = 0,
        engine: str = "offset",
    ) -> None:
        super().__init__()
        if in_channels < 1 or out_channels < 1:
            raise ValueError("channel counts must be >= 1")
        if kernel_size < 1 or stride < 1:
            raise ValueError("kernel_size and stride must be >= 1")
        if isinstance(padding, str):
            if padding != "same":
                raise ValueError("string padding must be 'same'")
            padding = kernel_size // 2
        if padding < 0:
            raise ValueError("padding must be >= 0")
        if engine not in ("offset", "im2col"):
            raise ValueError("engine must be 'offset' or 'im2col'")

        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = int(padding)
        self.use_bias = use_bias
        self.engine = engine

        rng = np.random.default_rng(seed)
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(he_normal((out_channels, in_channels, kernel_size, kernel_size), fan_in, rng))
        if use_bias:
            self.bias = Parameter(zeros((out_channels,)))

        self._cache: tuple | None = None

    # ------------------------------------------------------------------ #
    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected (N, {self.in_channels}, H, W) input, got shape {x.shape}"
            )
        n, _, h, w = x.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        out_h = conv_output_size(h, k, s, p)
        out_w = conv_output_size(w, k, s, p)
        bias = self.bias.value if self.use_bias else None

        if not self.training:
            self._cache = None
            return conv_forward_offset(pad_input(x, p), self.weight.value, bias, s, out_h, out_w)

        if self.engine == "im2col":
            cols = im2col(x, k, k, s, p)  # (N*out_h*out_w, C*k*k)
            w_mat = self.weight.value.reshape(self.out_channels, -1)  # (F, C*k*k)
            out = cols @ w_mat.T  # (N*out_h*out_w, F)
            if self.use_bias:
                out += self.bias.value
            out = out.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)
            self._cache = ("im2col", x.shape, cols)
            return np.ascontiguousarray(out)

        # Fast path: only the padded input survives the forward — dW and dX
        # are recomputed from it per kernel offset during backward, so the
        # k²-inflated unrolled matrix is never pinned across the step.
        xp = pad_input(x, p)
        self._cache = ("offset", x.shape, xp)
        return conv_forward_offset(xp, self.weight.value, bias, s, out_h, out_w)

    def backward(self, grad_output: np.ndarray, need_input_grad: bool = True) -> np.ndarray | None:
        """Accumulate parameter gradients and return ``dL/dinput``.

        ``need_input_grad=False`` skips the input-gradient contraction
        entirely (a third of the backward cost) — used for the first layer of
        a network, whose input gradient nobody consumes.
        """
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        kind, input_shape, cached = self._cache
        k, s, p = self.kernel_size, self.stride, self.padding
        grad = np.asarray(grad_output, dtype=np.float32)

        if kind == "offset":
            dx, dw, db = conv_backward_offset(
                cached, self.weight.value, grad, s,
                need_input_grad=need_input_grad, need_bias_grad=self.use_bias, pad=p,
            )
            self.weight.grad += dw
            if self.use_bias:
                self.bias.grad += db
            return dx

        # (N, F, out_h, out_w) -> (N*out_h*out_w, F)
        grad_mat = grad.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)
        w_mat = self.weight.value.reshape(self.out_channels, -1)
        self.weight.grad += (grad_mat.T @ cached).reshape(self.weight.value.shape)
        if self.use_bias:
            self.bias.grad += grad_mat.sum(axis=0)

        if not need_input_grad:
            return None
        grad_cols = grad_mat @ w_mat  # (N*out_h*out_w, C*k*k)
        return col2im(grad_cols, input_shape, k, k, s, p)
