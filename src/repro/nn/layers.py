"""Non-convolutional layers: activations, pooling, up-sampling, dropout, concat.

Together with :class:`~repro.nn.conv.Conv2D` these are all the building
blocks of the paper's U-Net: ReLU after every convolution, 2×2 max-pooling
with stride 2 on the contracting path, 2× up-sampling followed by a 2×2
convolution on the expansive path, dropout between convolutions for
regularisation, and channel concatenation for the skip connections.
"""

from __future__ import annotations

import numpy as np

from .conv import Conv2D
from .convgemm import scratch_buffer
from .module import Module

__all__ = ["ReLU", "MaxPool2D", "UpSample2D", "UpConv2D", "Dropout", "Concat", "BatchNorm2D"]


class ReLU(Module):
    """Rectified linear unit."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        if not self.training:
            self._mask = None
            return np.maximum(x, 0.0)
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        grad = np.asarray(grad_output, dtype=np.float32)
        return np.where(self._mask, grad, np.float32(0.0))


def pool_views(x: np.ndarray, k: int) -> list[np.ndarray]:
    """The k² strided views of ``(N, C, H, W)`` that each hold one window position."""
    return [x[:, :, i::k, j::k] for i in range(k) for j in range(k)]


def max_of_views(views: list[np.ndarray], out: np.ndarray) -> np.ndarray:
    """Elementwise maximum of ``views`` into ``out`` (exact: no reshape, no reduce axis)."""
    if len(views) == 1:
        out[...] = views[0]
        return out
    np.maximum(views[0], views[1], out=out)
    for view in views[2:]:
        np.maximum(out, view, out=out)
    return out


class MaxPool2D(Module):
    """2×2 (or k×k) max pooling with stride equal to the pool size.

    Training caches one flat argmax index per window (uint8 for any realistic
    pool size) and routes gradients with ``put_along_axis``; ties send all
    gradient to the first maximum in row-major window order.
    """

    def __init__(self, pool_size: int = 2) -> None:
        super().__init__()
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        self.pool_size = pool_size
        self._cache: tuple | None = None  # (input shape, per-window argmax index)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        n, c, h, w = x.shape
        k = self.pool_size
        if h % k or w % k:
            raise ValueError(f"spatial size ({h}, {w}) not divisible by pool size {k}")
        if not self.training:
            self._cache = None
            return max_of_views(pool_views(x, k), np.empty((n, c, h // k, w // k), dtype=np.float32))
        # Copy the windows into the shared workspace (consumed within this
        # call), so repeated steps reuse warm pages.
        windows = scratch_buffer((n, c, h // k, w // k, k, k), slot="pool")
        windows[...] = x.reshape(n, c, h // k, k, w // k, k).transpose(0, 1, 2, 4, 3, 5)
        windows = windows.reshape(n, c, h // k, w // k, k * k)
        idx = windows.argmax(axis=-1)
        out = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]
        self._cache = (x.shape, idx.astype(np.uint8 if k * k <= 256 else np.intp))
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        (n, c, h, w), idx = self._cache
        k = self.pool_size
        grad = np.asarray(grad_output, dtype=np.float32)
        windows = scratch_buffer((n, c, h // k, w // k, k * k), slot="pool")
        windows.fill(0.0)
        np.put_along_axis(windows, idx[..., None].astype(np.intp), grad[..., None], axis=-1)
        unrolled = windows.reshape(n, c, h // k, w // k, k, k).transpose(0, 1, 2, 4, 3, 5)
        return np.ascontiguousarray(unrolled).reshape(n, c, h, w)


class UpSample2D(Module):
    """Nearest-neighbour spatial up-sampling by an integer factor."""

    def __init__(self, factor: int = 2) -> None:
        super().__init__()
        if factor < 1:
            raise ValueError("factor must be >= 1")
        self.factor = factor
        self._input_shape: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        self._input_shape = x.shape
        n, c, h, w = x.shape
        f = self.factor
        # One broadcast copy instead of two chained ``repeat`` materialisations.
        expanded = np.broadcast_to(x[:, :, :, None, :, None], (n, c, h, f, w, f))
        return expanded.reshape(n, c, h * f, w * f)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("backward called before forward")
        # The adjoint of the copy: add up the f² views, as pooling takes their maximum.
        views = pool_views(np.asarray(grad_output, dtype=np.float32), self.factor)
        out = views[0].copy()
        for view in views[1:]:
            out += view
        return out


class UpConv2D(Module):
    """The paper's "up-convolution": 2× up-sampling followed by a 2×2 convolution
    that halves the number of feature channels.

    A 2×2 kernel cannot be padded symmetrically while preserving spatial size,
    so the up-sampled map is padded by one row/column on the bottom/right
    before the unpadded convolution — the same convention Keras uses for
    ``padding="same"`` with even kernels.
    """

    def __init__(self, in_channels: int, out_channels: int, seed: int = 0) -> None:
        super().__init__()
        self.upsample = UpSample2D(2)
        self.conv = Conv2D(in_channels, out_channels, kernel_size=2, padding=0, seed=seed)

    def forward(self, x: np.ndarray) -> np.ndarray:
        up = self.upsample(x)
        padded = np.pad(up, ((0, 0), (0, 0), (0, 1), (0, 1)), mode="edge")
        return self.conv(padded)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_padded = self.conv.backward(grad_output)
        # Fold the edge-padding gradient back onto the last real row/column.
        grad_up = grad_padded[:, :, :-1, :-1].copy()
        grad_up[:, :, -1, :] += grad_padded[:, :, -1, :-1]
        grad_up[:, :, :, -1] += grad_padded[:, :, :-1, -1]
        grad_up[:, :, -1, -1] += grad_padded[:, :, -1, -1]
        return self.upsample.backward(grad_up)


class Dropout(Module):
    """Inverted dropout: active in training mode, identity in eval mode."""

    def __init__(self, rate: float = 0.2, seed: int = 0) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self._rng = np.random.default_rng(seed)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        if not self.training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        # float32 end to end: draw r ~ U[0, 1), then floor(r + keep) is 1 with
        # probability `keep` — the mask materialises in one pass with no
        # float64 uniforms and no bool intermediate.
        mask = self._rng.random(size=x.shape, dtype=np.float32)
        np.add(mask, np.float32(keep), out=mask)
        np.floor(mask, out=mask)
        mask *= np.float32(1.0 / keep)
        self._mask = mask
        return x * mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = np.asarray(grad_output, dtype=np.float32)
        if self._mask is None:
            return grad
        return grad * self._mask


class Concat(Module):
    """Channel-wise concatenation of two feature maps (U-Net skip connections)."""

    def __init__(self) -> None:
        super().__init__()
        self._split: int | None = None

    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:  # type: ignore[override]
        a = np.asarray(a, dtype=np.float32)
        b = np.asarray(b, dtype=np.float32)
        if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
            raise ValueError(f"cannot concat shapes {a.shape} and {b.shape}")
        self._split = a.shape[1]
        return np.concatenate([a, b], axis=1)

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:  # type: ignore[override]
        return self.forward(a, b)

    def backward(self, grad_output: np.ndarray) -> tuple[np.ndarray, np.ndarray]:  # type: ignore[override]
        if self._split is None:
            raise RuntimeError("backward called before forward")
        grad = np.asarray(grad_output, dtype=np.float32)
        return grad[:, : self._split], grad[:, self._split :]


class BatchNorm2D(Module):
    """Per-channel batch normalisation (optional extension to the paper's U-Net)."""

    def __init__(self, num_channels: int, momentum: float = 0.9, eps: float = 1e-5) -> None:
        super().__init__()
        from .module import Parameter  # local import to avoid re-export confusion

        if num_channels < 1:
            raise ValueError("num_channels must be >= 1")
        self.num_channels = num_channels
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones((num_channels,), dtype=np.float32))
        self.beta = Parameter(np.zeros((num_channels,), dtype=np.float32))
        self.running_mean = np.zeros((num_channels,), dtype=np.float32)
        self.running_var = np.ones((num_channels,), dtype=np.float32)
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != 4 or x.shape[1] != self.num_channels:
            raise ValueError(f"expected (N, {self.num_channels}, H, W) input, got {x.shape}")
        if self.training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mean
            self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var
        else:
            mean, var = self.running_mean, self.running_var
        std = np.sqrt(var + self.eps)
        x_hat = (x - mean[None, :, None, None]) / std[None, :, None, None]
        out = self.gamma.value[None, :, None, None] * x_hat + self.beta.value[None, :, None, None]
        self._cache = (x_hat, std) if self.training else None
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_hat, std = self._cache
        grad = np.asarray(grad_output, dtype=np.float32)
        n, _, h, w = grad.shape
        m = n * h * w

        self.gamma.grad += (grad * x_hat).sum(axis=(0, 2, 3))
        self.beta.grad += grad.sum(axis=(0, 2, 3))

        gamma = self.gamma.value[None, :, None, None]
        dxhat = grad * gamma
        # Standard batch-norm backward over the (N, H, W) statistics axes.
        dx = (
            dxhat
            - dxhat.mean(axis=(0, 2, 3), keepdims=True)
            - x_hat * (dxhat * x_hat).mean(axis=(0, 2, 3), keepdims=True)
        ) / std[None, :, None, None]
        # Correct for using mean over m samples.
        return dx.astype(np.float32) if m else dx
