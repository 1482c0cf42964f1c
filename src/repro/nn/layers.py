"""The U-Net's other layers: activations, pooling, the up-convolution, dropout, concat.

Together with :class:`~repro.nn.conv.Conv2D` these are all the building
blocks of the paper's U-Net: ReLU after every convolution, 2×2 max-pooling
with stride 2 on the contracting path, the up-convolution (2× nearest
up-sampling followed by a 2×2 convolution) on the expansive path, dropout
between convolutions for regularisation, and channel concatenation for the
skip connections.  The up-convolution never up-samples: nearest up-sampling
repeats every input pixel 2×2 times, so each of the four output phases is a
convolution of the input itself with folded weights (:class:`UpConv2D`).
"""

from __future__ import annotations

import numpy as np

from .conv import Conv2D
from .convgemm import (
    UPCONV_PHASES,
    conv_backward_offset,
    conv_band_rows,
    run_upconv_bands,
    scratch_buffer,
    upconv_bands,
    upconv_phase_kernels,
    upconv_weights,
)
from .module import Module

__all__ = ["ReLU", "MaxPool2D", "UpConv2D", "Dropout", "Concat"]


class ReLU(Module):
    """Rectified linear unit.

    Training forward is the eval expression plus the one-byte-per-activation
    ``out > 0`` mask backward multiplies by, so train ≡ eval by construction
    (NaN propagates in both).
    """

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.maximum(np.asarray(x, dtype=np.float32), 0.0)
        self._mask = out > 0 if self.training else None
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return np.multiply(np.asarray(grad_output, dtype=np.float32), self._mask)


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

    Training forward is the eval path's four-view maximum plus one flat window
    index per output (uint8 for any realistic pool size), built from
    view-equals-max comparisons in reverse view order so that ties — the common
    case after ReLU — send all gradient to the first maximum in row-major window
    order.  Backward writes ``grad * (index == i)`` into the ``i``-th strided view.
    """

    def __init__(self, pool_size: int = 2) -> None:
        super().__init__()
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        self.pool_size = pool_size
        self._cache: np.ndarray | None = None  # per-window index of the maximum

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        n, c, h, w = x.shape
        k = self.pool_size
        if h % k or w % k:
            raise ValueError(f"spatial size ({h}, {w}) not divisible by pool size {k}")
        views = pool_views(x, k)
        out = max_of_views(views, np.empty((n, c, h // k, w // k), dtype=np.float32))
        self._cache = None
        if self.training:
            # Horner over "view i is not the maximum": index = ne0·(1 + ne1·(1 + ne2·(…))).
            idx = self._cache = np.zeros(out.shape, dtype=np.uint8 if k * k <= 256 else np.intp)
            for view in views[-2::-1]:
                idx += 1
                idx *= view != out
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        grad = np.asarray(grad_output, dtype=np.float32)
        k = self.pool_size
        dx = np.empty(grad.shape[:2] + (grad.shape[2] * k, grad.shape[3] * k), dtype=np.float32)
        for i, view in enumerate(pool_views(dx, k)):
            np.multiply(grad, self._cache == i, out=view)
        return dx


class UpConv2D(Module):
    """The paper's "up-convolution": 2× nearest up-sampling, then a 2×2 convolution
    that halves the number of feature channels — computed at the input's resolution.

    A 2×2 kernel cannot be padded symmetrically while preserving spatial size,
    so the up-sampled map is edge-padded by one row/column on the bottom/right
    (the convention Keras uses for ``padding="same"`` with even kernels).  Three
    of every four rows of that map are copies, so it is never built: output pixel
    ``(2i+a, 2j+b)`` reads input pixel ``(i + (a+di)//2, j + (b+dj)//2)``, clamped
    at the edge, for kernel tap ``(di, dj)``.  Each phase ``(a, b)`` is therefore a
    convolution of the input itself with folded weights — 1×1 ``ΣW`` for
    ``(0, 0)``, 1×2 / 2×1 for ``(0, 1)`` / ``(1, 0)``, ``W`` for ``(1, 1)``: 9 taps
    instead of 16 (:func:`~repro.nn.convgemm.upconv_bands`).  Training and eval run
    that one forward, and training caches the input alone.

    ``conv`` holds the 2×2 weight and bias (and names them in ``state_dict``); its
    own forward is not called.  Backward is the 2×2 convolution's backward over the
    edge-padded input with the four phase kernels stacked as ``4F`` output channels
    and the output gradient split into its phases; ``dW`` folds the phase kernels'
    gradients back onto the taps they sum, ``dX`` folds the edge row/column back.
    """

    def __init__(self, in_channels: int, out_channels: int, seed: int = 0) -> None:
        super().__init__()
        self.conv = Conv2D(in_channels, out_channels, kernel_size=2, padding=0, seed=seed)
        self._cache: np.ndarray | None = None  # the input of the last training forward

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        conv = self.conv
        if x.ndim != 4 or x.shape[1] != conv.in_channels:
            raise ValueError(f"expected (N, {conv.in_channels}, H, W) input, got shape {x.shape}")
        n, c, h, w = x.shape
        f = conv.out_channels
        out = np.empty((n, f, 2 * h, 2 * w), dtype=np.float32)
        scratch = scratch_buffer(((4 * c + f) * conv_band_rows(4 * c, f, h, w) * w,))
        run_upconv_bands(upconv_bands(x, out, scratch), upconv_weights(conv.weight.value), conv.bias.value[:, None])
        self._cache = x if self.training else None
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x, conv = self._cache, self.conv
        n, c, h, w = x.shape
        f = conv.out_channels
        xe = np.empty((n, c, h + 1, w + 1), dtype=np.float32)
        xe[:, :, :h, :w] = x
        xe[:, :, h, :w] = x[:, :, -1]
        xe[:, :, :, w] = xe[:, :, :, w - 1]
        grad = np.asarray(grad_output, dtype=np.float32)
        phase_grad = np.empty((n, 4, f, h, w), dtype=np.float32)
        for p, ((a, b), _, _) in enumerate(UPCONV_PHASES):
            phase_grad[:, p] = grad[:, :, a::2, b::2]
        kernels = upconv_phase_kernels(conv.weight.value)
        dxe, dk, db = conv_backward_offset(xe, kernels.reshape(4 * f, c, 2, 2), phase_grad.reshape(n, 4 * f, h, w))
        dk = dk.reshape(kernels.shape)
        for p, ((a, b), _, _) in enumerate(UPCONV_PHASES):
            for di in (0, 1):
                for dj in (0, 1):
                    conv.weight.grad[:, :, di, dj] += dk[p, :, :, (a + di) // 2, (b + dj) // 2]
        conv.bias.grad += db.reshape(4, f).sum(axis=0)
        # Fold the clamped edge's gradient back onto the last real row/column.
        dx = dxe[:, :, :h, :w].copy()
        dx[:, :, -1, :] += dxe[:, :, h, :w]
        dx[:, :, :, -1] += dxe[:, :, :h, w]
        dx[:, :, -1, -1] += dxe[:, :, h, w]
        return dx


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

    def backward(self, grad_output: np.ndarray) -> tuple[np.ndarray, np.ndarray]:  # type: ignore[override]
        if self._split is None:
            raise RuntimeError("backward called before forward")
        grad = np.asarray(grad_output, dtype=np.float32)
        return grad[:, : self._split], grad[:, self._split :]

