"""Oracles: the formulations the planar auto-label kernel and the row-banded ``nn`` kernels replaced.

The auto-label half is the bodies the cloud/shadow filter's veil estimate and
inversion (``CloudShadowFilter._estimate`` / ``filter_image``), ``rgb_to_hsv``,
``HSVRange.contains`` and ``ColorSegmentationLabeler.segment`` had before the
per-tile path went planar, kept verbatim (hypothesis tensors, ``einsum``, fancy
indexing and all) so the differential tests can demand ``array_equal`` rather
than a tolerance, plus the input strategy those tests share.  The filter's two
run in the filter's dtype (float32) or, asked, in float64 -- the filter as it
was before it went float32.
``gaussian_blur`` as it was before it became a numpy recurrence,
``scipy.ndimage.correlate1d`` per axis and channel, sits beside them.  The
``nn`` half holds the whole-image offset-GEMM and the 6-D pooling reduce that
``conv_forward_offset``, ``_ConvStep``, ``_MaxPoolStep`` and ``MaxPool2D`` ran
before they went row-banded / four-view.  Pooling is exact against its oracle; the conv is not
(OpenBLAS ``sgemm`` results depend on the GEMM's column count in the last bit),
so it is compared under a tolerance.  Last come the seed's training kernels —
``im2col`` / ``col2im`` and the :class:`ReferenceConv2D` /
:class:`ReferenceMaxPool2D` layers built on them — the gradient-parity
reference of the offset-GEMM and argmax-index layers in ``repro.nn``, and the
seed arm the throughput benchmarks race (swapped in per module with
``module.__class__ = Reference…``) — and the training-mode bodies PR 17
replaced with the four-view primitives: :class:`ReferenceReLU` (mask +
``np.where``), :class:`ReferenceArgmaxPool2D` (window copy, ``argmax``,
``take_along_axis`` / ``put_along_axis``) and :func:`reference_pad_input`
(``np.pad``), all three exact oracles — and :class:`ReferenceUpConv2D`, the
up-convolution over the up-sampled, edge-padded map (broadcast up-sampling,
``np.pad(mode="edge")``, a 2×2 conv and the backward that went with them),
which the phase-wise layer matches only to a tolerance.  Then
:func:`reference_train_step`: the plain single-process step of the second
training loop (``unet/trainer.py``) the one trainer replaced — at one micro-shard
and no dropout ``ElasticTrainer``'s in-process rank is held to it bit for bit.
:func:`reference_classify_scene` is the whole-scene stack-and-stitch ``SceneClassifier`` ran
before it streamed tile-row bands — an exact oracle of both scene outputs.
At the end, :class:`ReferenceUNet`: the U-Net as three block classes
(``DoubleConv``, ``EncoderBlock``, ``DecoderBlock``) and a hand walk over them,
before the graph became one op list — an exact oracle of ``UNet``.  Last, two
fixtures the pipeline never calls: :class:`Sequential`, the small container the
module-system and checkpoint tests build, and the central-difference gradient
checker (:func:`numerical_gradient`, :func:`check_layer_gradients`) every layer's
backward is certified against.
Not a test module; nothing under ``src/`` imports it.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from repro.classes import NUM_CLASSES, SeaIceClass, class_map_to_color
from repro.cloudshadow import CloudShadowFilter, removal
from repro.data.radiometry import CLOUD_CONTAMINANT_RGB, SHADOW_CONTAMINANT_RGB
from repro.imops import assemble_from_tiles, gaussian_blur, gaussian_kernel1d, split_into_tiles
from repro.nn import Concat, Conv2D, Dropout, MaxPool2D, Module, ReLU, UpConv2D, softmax
from repro.nn.layers import max_of_views, pool_views
from repro.unet import UNetConfig, predict_tile_probabilities


@st.composite
def rgb_views(draw, max_side=24):
    """uint8 ``(H, W, 3)`` images in the memory layouts a caller can hand over: C-contiguous,
    a transposed view, every other pixel of a larger image, the RGB of an RGBA image, BGR reversed."""
    h, w = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    layout = draw(st.sampled_from(["contiguous", "transposed", "strided", "channel_sliced", "reversed"]))
    shape = {"transposed": (w, h, 3), "strided": (2 * h, 2 * w, 3), "channel_sliced": (h, w, 4)}.get(layout, (h, w, 3))
    base = draw(hnp.arrays(np.uint8, shape))
    if layout == "transposed":
        return base.transpose(1, 0, 2)
    if layout == "strided":
        return base[::2, ::2]
    if layout == "channel_sliced":
        return base[..., :3]
    return base[..., ::-1] if layout == "reversed" else base


def reference_estimate(cloud_filter, rgb: np.ndarray, dtype=None) -> tuple:
    """``(cloud_alpha, shadow_alpha)`` of ``CloudShadowFilter._estimate`` over the (H, W, K, M, 3) hypothesis
    tensor, computed in ``dtype`` (the filter's, float32, unless given: float64 is the filter before it went
    float32)."""
    dtype = np.dtype(dtype or cloud_filter.surface_prototypes.dtype).type
    data = np.asarray(rgb).astype(dtype)
    h, w, _ = data.shape

    prototypes = cloud_filter.surface_prototypes.astype(dtype)  # (K, 3)
    contaminants = np.array([CLOUD_CONTAMINANT_RGB, SHADOW_CONTAMINANT_RGB], dtype=dtype)  # (2, 3)
    num_m = contaminants.shape[0]

    diff = data[:, :, None, :] - prototypes[None, None, :, :]  # (H, W, K, 3)
    direction = contaminants[None, :, :] - prototypes[:, None, :]  # (K, M, 3)
    dir_norm_sq = np.maximum(np.sum(direction * direction, axis=-1), dtype(1e-9))  # (K, M)

    alpha = np.einsum("hwkc,kmc->hwkm", diff, direction) / dir_norm_sq[None, None, :, :]
    alpha = np.clip(alpha, 0.0, removal.MAX_ALPHA)

    recon = alpha[..., None] * direction[None, None, :, :, :]  # (H, W, K, M, 3)
    resid = diff[:, :, :, None, :] - recon
    residual = np.sqrt(np.sum(resid * resid, axis=-1))  # (H, W, K, M)
    score = residual + removal.ALPHA_PENALTY * alpha

    contaminant_score = score.min(axis=2)  # (H, W, M)
    pooled = np.empty_like(contaminant_score)
    for m in range(num_m):
        pooled[:, :, m] = gaussian_blur(contaminant_score[:, :, m], ksize=removal.SCORE_SMOOTH_KSIZE)
    contaminant_score = pooled
    best_m = np.argmin(contaminant_score, axis=-1)  # (H, W)

    rows = np.arange(h)[:, None]
    cols = np.arange(w)[None, :]
    score_for_m = score[rows, cols, :, best_m]  # (H, W, K)
    best_k = np.argmin(score_for_m, axis=-1)
    best_alpha = alpha[rows, cols, best_k, best_m]

    cloud_alpha = np.where(best_m == 0, best_alpha, 0.0)
    shadow_alpha = np.where(best_m == 1, best_alpha, 0.0)
    cloud_alpha = np.clip(gaussian_blur(cloud_alpha, ksize=removal.SMOOTH_KSIZE), 0.0, removal.MAX_ALPHA)
    shadow_alpha = np.clip(gaussian_blur(shadow_alpha, ksize=removal.SMOOTH_KSIZE), 0.0, removal.MAX_ALPHA)
    cloud_alpha = np.where(cloud_alpha >= removal.MIN_ALPHA, cloud_alpha, 0.0)
    shadow_alpha = np.where(shadow_alpha >= removal.MIN_ALPHA, shadow_alpha, 0.0)
    return cloud_alpha, shadow_alpha


def reference_remove(cloud_filter, rgb: np.ndarray, estimate: tuple | None = None, dtype=None) -> np.ndarray:
    """``CloudShadowFilter.filter_image`` on the interleaved (H, W, 3) float image, inverting ``estimate``
    (``(cloud_alpha, shadow_alpha)``; :func:`reference_estimate`'s unless given), in ``dtype`` as it."""
    dtype = np.dtype(dtype or cloud_filter.surface_prototypes.dtype).type
    img = np.asarray(rgb)
    cloud_alpha, shadow_alpha = reference_estimate(cloud_filter, img, dtype) if estimate is None else estimate
    data = img.astype(dtype)

    shadow = np.asarray(SHADOW_CONTAMINANT_RGB, dtype=dtype).reshape(1, 1, 3)
    a_s = np.clip(shadow_alpha, 0.0, removal.MAX_ALPHA)[..., None]
    data = (data - a_s * shadow) / np.maximum(1.0 - a_s, 1.0 - removal.MAX_ALPHA)

    cloud = np.asarray(CLOUD_CONTAMINANT_RGB, dtype=dtype).reshape(1, 1, 3)
    a_c = np.clip(cloud_alpha, 0.0, removal.MAX_ALPHA)[..., None]
    data = (data - a_c * cloud) / np.maximum(1.0 - a_c, 1.0 - removal.MAX_ALPHA)
    return np.clip(np.round(data), 0, 255).astype(np.uint8)


def reference_rgb_to_hsv(image: np.ndarray) -> np.ndarray:
    """``rgb_to_hsv`` with last-axis reductions and nested ``np.where``."""
    img = np.asarray(image)
    if img.dtype == np.uint8:
        rgb = img.astype(np.float64) / 255.0
    else:
        rgb = img.astype(np.float64)
        if rgb.size and rgb.max() > 1.0 + 1e-9:
            rgb = rgb / 255.0
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]

    maxc = np.max(rgb, axis=-1)
    minc = np.min(rgb, axis=-1)
    delta = maxc - minc
    saturation = np.where(maxc > 0, delta / np.maximum(maxc, 1e-12), 0.0)

    with np.errstate(invalid="ignore", divide="ignore"):
        safe_delta = np.where(delta > 0, delta, 1.0)
        hr = (60.0 * (g - b) / safe_delta) % 360.0
        hg = 60.0 * (b - r) / safe_delta + 120.0
        hb = 60.0 * (r - g) / safe_delta + 240.0
    hue = np.where(maxc == r, hr, np.where(maxc == g, hg, hb))
    hue = np.where(delta > 0, hue, 0.0)

    out = np.empty(img.shape[:2] + (3,), dtype=np.uint8)
    out[..., 0] = np.clip(np.round(hue / 2.0), 0, 179).astype(np.uint8)
    out[..., 1] = np.clip(np.round(saturation * 255.0), 0, 255).astype(np.uint8)
    out[..., 2] = np.clip(np.round(maxc * 255.0), 0, 255).astype(np.uint8)
    return out


def reference_contains(hsv_range, hsv: np.ndarray) -> np.ndarray:
    """``HSVRange.inside`` of all three channels, through an int32 copy and ``np.all(axis=-1)``."""
    lo = np.array(hsv_range.lower, dtype=np.int32)
    hi = np.array(hsv_range.upper, dtype=np.int32)
    data = np.asarray(hsv).astype(np.int32)
    return np.all((data >= lo) & (data <= hi), axis=-1)


def reference_segment(labeler, rgb: np.ndarray):
    """``ColorSegmentationLabeler.segment``: (class_map, label_image, masks, filtered_rgb)."""
    img = np.asarray(rgb)
    filtered = reference_remove(labeler.cloud_filter, img) if labeler.apply_cloud_filter else None
    hsv = reference_rgb_to_hsv(img if filtered is None else filtered)
    masks = {cls: reference_contains(rng, hsv) for cls, rng in labeler._ranges.items()}

    class_map = np.full(hsv.shape[:2], 255, dtype=np.uint8)
    for cls in SeaIceClass:
        class_map[masks[cls] & (class_map == 255)] = int(cls)
    unassigned = class_map == 255
    if unassigned.any():
        values = hsv[unassigned][..., 2].astype(np.int32)
        centers = np.zeros(NUM_CLASSES, dtype=np.int32)
        for cls, rng in labeler._ranges.items():
            centers[int(cls)] = (rng.lower[2] + rng.upper[2]) // 2
        class_map[unassigned] = np.argmin(np.abs(values[:, None] - centers[None, :]), axis=1).astype(np.uint8)
    return class_map, class_map_to_color(class_map), masks, filtered


def reference_gaussian_blur(image: np.ndarray, ksize: int) -> np.ndarray:
    """``gaussian_blur`` as ``scipy.ndimage.correlate1d`` along each axis of each channel, in float64."""
    img = np.asarray(image)
    kernel = gaussian_kernel1d(ksize)

    def blur2d(channel):
        data = ndimage.correlate1d(channel.astype(np.float64), kernel, axis=0, mode="reflect")
        return ndimage.correlate1d(data, kernel, axis=1, mode="reflect")

    out = blur2d(img) if img.ndim == 2 else np.stack([blur2d(img[..., c]) for c in range(img.shape[-1])], axis=-1)
    if np.issubdtype(img.dtype, np.integer):
        info = np.iinfo(img.dtype)
        return np.clip(np.round(out), info.min, info.max).astype(img.dtype)
    return out


def reference_conv_forward(xp, weight, bias) -> np.ndarray:
    """``conv_forward_offset`` as one whole-image ``(N, k*k*C, out_h, out_w)`` cols tensor and one batched GEMM."""
    n, c, hp, wp = xp.shape
    f, _, kh, kw = weight.shape
    out_h, out_w = hp - kh + 1, wp - kw + 1
    if kh == 1 and kw == 1:
        cols = xp if xp.flags.c_contiguous else np.ascontiguousarray(xp)
    else:
        cols = np.empty((n, kh * kw * c, out_h, out_w), dtype=np.float32)
        for i in range(kh):
            for j in range(kw):
                base = (i * kw + j) * c
                cols[:, base : base + c] = xp[:, :, i : i + out_h, j : j + out_w]
    w_mat = weight.transpose(0, 2, 3, 1).reshape(f, -1)
    out = np.matmul(w_mat, cols.reshape(n, kh * kw * c, out_h * out_w))
    if bias is not None:
        out += bias[:, None]
    return out.reshape(n, f, out_h, out_w)


def reference_max_pool(x: np.ndarray, k: int) -> np.ndarray:
    """k×k max pooling as a reshape to 6-D windows and one two-axis reduce."""
    n, c, h, w = x.shape
    return x.reshape(n, c, h // k, k, w // k, k).max(axis=(3, 5))


def strided_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Output size of the oracle's convolution, which — unlike the layers under test — may stride."""
    return (size + 2 * pad - kernel) // stride + 1


def im2col(x: np.ndarray, kernel_h: int, kernel_w: int, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Unroll the sliding windows of an ``(N, C, H, W)`` batch into the ``(N·out_h·out_w, C·kernel_h·kernel_w)``
    matrix whose rows are the flattened receptive fields (batch-major, then spatial)."""
    n, c, h, w = x.shape
    out_h = strided_output_size(h, kernel_h, stride, pad)
    out_w = strided_output_size(w, kernel_w, stride, pad)
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant")
    s_n, s_c, s_h, s_w = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kernel_h, kernel_w),
        strides=(s_n, s_c, s_h * stride, s_w * stride, s_h, s_w),
        writeable=False,
    )
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * out_h * out_w, c * kernel_h * kernel_w)
    return np.ascontiguousarray(cols)


def col2im(cols: np.ndarray, input_shape: tuple[int, int, int, int], kernel_h: int, kernel_w: int,
           stride: int = 1, pad: int = 0) -> np.ndarray:
    """Fold an im2col matrix back into an image batch, summing overlaps: the adjoint of :func:`im2col`,
    hence the back-propagation through a convolution's input."""
    n, c, h, w = input_shape
    out_h = strided_output_size(h, kernel_h, stride, pad)
    out_w = strided_output_size(w, kernel_w, stride, pad)
    expected = (n * out_h * out_w, c * kernel_h * kernel_w)
    if cols.shape != expected:
        raise ValueError(f"cols has shape {cols.shape}, expected {expected}")
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    reshaped = cols.reshape(n, out_h, out_w, c, kernel_h, kernel_w).transpose(0, 3, 4, 5, 1, 2)
    # reshaped: (N, C, kh, kw, out_h, out_w); scatter-add each kernel offset.
    for i in range(kernel_h):
        for j in range(kernel_w):
            padded[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride] += reshaped[:, :, i, j]
    return padded[:, :, pad:-pad, pad:-pad] if pad > 0 else padded


class ReferenceConv2D(Conv2D):
    """The seed's training path: one whole-batch im2col GEMM forward (the ``(N·oh·ow, C·k²)``
    matrix stays pinned for backward), col2im re-fold for ``dX``.  Eval mode is the parent's.
    It alone can stride — an oracle detail the layer under test dropped (a class swap leaves 1)."""

    stride = 1

    def __init__(self, *args, stride: int = 1, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.stride = stride

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training:
            return super().forward(x)
        x = np.asarray(x, dtype=np.float32)
        n, _, h, w = x.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        cols = im2col(x, k, k, s, p)  # (N*out_h*out_w, C*k*k)
        out = cols @ self.weight.value.reshape(self.out_channels, -1).T + self.bias.value  # (N*out_h*out_w, F)
        out = out.reshape(n, strided_output_size(h, k, s, p), strided_output_size(w, k, s, p), self.out_channels)
        self._cache = (x.shape, cols)
        return np.ascontiguousarray(out.transpose(0, 3, 1, 2))

    def backward(self, grad_output: np.ndarray, need_input_grad: bool = True) -> np.ndarray | None:
        input_shape, cols = self._cache
        k = self.kernel_size
        # (N, F, out_h, out_w) -> (N*out_h*out_w, F)
        grad_mat = np.asarray(grad_output, dtype=np.float32).transpose(0, 2, 3, 1).reshape(-1, self.out_channels)
        self.weight.grad += (grad_mat.T @ cols).reshape(self.weight.value.shape)
        self.bias.grad += grad_mat.sum(axis=0)
        if not need_input_grad:
            return None
        grad_cols = grad_mat @ self.weight.value.reshape(self.out_channels, -1)  # (N*out_h*out_w, C*k*k)
        return col2im(grad_cols, input_shape, k, k, self.stride, self.padding)


class Subsampled(Module):
    """``conv`` read at every ``stride``-th pixel: what a strided convolution is, for a layer that has no stride.
    Backward hands the dense layer a gradient that is zero between the sampled pixels."""

    def __init__(self, conv: Conv2D, stride: int) -> None:
        super().__init__()
        self.conv, self.stride = conv, stride

    def forward(self, x: np.ndarray) -> np.ndarray:
        dense = self.conv(x)
        self._dense_shape = dense.shape
        return dense[:, :, :: self.stride, :: self.stride]

    def backward(self, grad_output: np.ndarray) -> np.ndarray | None:
        dense = np.zeros(self._dense_shape, dtype=np.float32)
        dense[:, :, :: self.stride, :: self.stride] = grad_output
        return self.conv.backward(dense)


class ReferenceMaxPool2D(MaxPool2D):
    """The seed's training path: pins a full-resolution boolean argmax mask plus a tie-count
    tensor and splits tied gradients evenly.  Eval mode is the parent's."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training:
            return super().forward(x)
        x = np.asarray(x, dtype=np.float32)
        n, c, h, w = x.shape
        k = self.pool_size
        out = max_of_views(pool_views(x, k), np.empty((n, c, h // k, w // k), dtype=np.float32))
        # Mask of the argmax positions, used to route gradients back.
        mask = x.reshape(n, c, h // k, k, w // k, k) == out[:, :, :, None, :, None]
        # Break ties (equal maxima in one window) so gradient mass is not duplicated.
        self._cache = (x.shape, mask, mask.sum(axis=(3, 5), keepdims=True))
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        input_shape, mask, counts = self._cache
        grad = np.asarray(grad_output, dtype=np.float32)[:, :, :, None, :, None]
        return (mask * grad / counts).reshape(input_shape)


class ReferenceReLU(ReLU):
    """Training forward as it was before PR 17: a mask, then ``np.where`` through it both ways."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training:
            return super().forward(x)
        x = np.asarray(x, dtype=np.float32)
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = np.asarray(grad_output, dtype=np.float32)
        return np.where(self._mask, grad, np.float32(0.0))


class ReferenceArgmaxPool2D(MaxPool2D):
    """Training path as it was before PR 17: every window copied out, ``argmax`` over it (first
    maximum wins ties), ``put_along_axis`` into a zero-filled window tensor and a transposed copy back."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training:
            return super().forward(x)
        x = np.asarray(x, dtype=np.float32)
        n, c, h, w = x.shape
        k = self.pool_size
        windows = np.ascontiguousarray(x.reshape(n, c, h // k, k, w // k, k).transpose(0, 1, 2, 4, 3, 5))
        windows = windows.reshape(n, c, h // k, w // k, k * k)
        idx = windows.argmax(axis=-1)
        self._cache = idx.astype(np.uint8 if k * k <= 256 else np.intp)
        return np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        k = self.pool_size
        grad = np.asarray(grad_output, dtype=np.float32)
        n, c, oh, ow = grad.shape
        windows = np.zeros((n, c, oh, ow, k * k), dtype=np.float32)
        np.put_along_axis(windows, self._cache[..., None].astype(np.intp), grad[..., None], axis=-1)
        unrolled = windows.reshape(n, c, oh, ow, k, k).transpose(0, 1, 2, 4, 3, 5)
        return np.ascontiguousarray(unrolled).reshape(n, c, oh * k, ow * k)


def reference_upsample_pad(x: np.ndarray) -> np.ndarray:
    """The 2× nearest up-sampled map (one broadcast copy), ``np.pad(mode="edge")`` by one row/column bottom/right."""
    n, c, h, w = x.shape
    up = np.broadcast_to(x[:, :, :, None, :, None], (n, c, h, 2, w, 2)).reshape(n, c, 2 * h, 2 * w)
    return np.pad(up, ((0, 0), (0, 0), (0, 1), (0, 1)), mode="edge")


def reference_upsample_adjoint(grad_padded: np.ndarray) -> np.ndarray:
    """The adjoint of :func:`reference_upsample_pad`: the edge row/column's gradient folded back onto the last real
    one, then the four up-sampling views added up (as pooling takes their maximum)."""
    grad_up = grad_padded[:, :, :-1, :-1].copy()
    grad_up[:, :, -1, :] += grad_padded[:, :, -1, :-1]
    grad_up[:, :, :, -1] += grad_padded[:, :, :-1, -1]
    grad_up[:, :, -1, -1] += grad_padded[:, :, -1, -1]
    views = pool_views(grad_up, 2)
    out = views[0].copy()
    for view in views[1:]:
        out += view
    return out


class ReferenceUpConv2D(UpConv2D):
    """The up-convolution as it was before it went phase-wise: the 2×2 ``conv`` over the up-sampled, edge-padded
    ``(N, C, 2h+1, 2w+1)`` map, which training pins in ``conv``, and that map's adjoint after ``conv``'s backward."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.conv(reference_upsample_pad(np.asarray(x, dtype=np.float32)))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return reference_upsample_adjoint(self.conv.backward(grad_output))


def reference_pad_input(x: np.ndarray, pad: int) -> np.ndarray:
    """``pad_input`` through ``np.pad``'s generic machinery."""
    return x if pad <= 0 else np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant")


def reference_train_step(model, loss_fn, optimizer, x: np.ndarray, y: np.ndarray,
                         need_input_grad: bool = False) -> float:
    """One optimisation step on one batch, the gradient straight from ``backward`` to the optimiser.

    The seed always back-propagated to the input tensor (``need_input_grad=True``).
    """
    model.train()
    logits = model.forward(x)
    loss = loss_fn.forward(logits, y)
    optimizer.zero_grad()
    model.backward(loss_fn.backward(), need_input_grad=need_input_grad)
    optimizer.step()
    return loss


def reference_classify_scene(model, scene: np.ndarray, config) -> np.ndarray:
    """``SceneClassifier.classify_scene_proba`` as it was before it streamed tile-row bands: the
    whole scene cut into one tile stack, every tile predicted, every map stitched at once.

    Its ``argmax(axis=-1).astype(np.uint8)`` was ``classify_scene``.  The prediction runs on an
    ephemeral serial backend (the backends are bit-identical).
    """
    tiles, grid = split_into_tiles(scene, tile_size=config.tile_size, overlap=config.overlap)
    if config.apply_cloud_filter:
        tiles = CloudShadowFilter().apply_batch(tiles)
    probs = predict_tile_probabilities(model, tiles, batch_size=config.batch_size, backend="serial")
    return np.asarray(assemble_from_tiles(np.moveaxis(probs, 1, -1), grid))


# --------------------------------------------------------------------------- #
# The U-Net as it was written before it became an op list: three block classes
# and a hand walk over them.  An exact oracle of ``UNet`` — same layers, seeds,
# ``state_dict`` paths and Dropout order, same bits forward and backward.
# --------------------------------------------------------------------------- #
class DoubleConv(Module):
    """Two consecutive 3×3 convolutions, each followed by ReLU, with optional dropout."""

    def __init__(self, in_channels: int, out_channels: int, dropout: float = 0.0, seed: int = 0) -> None:
        super().__init__()
        self.conv1 = Conv2D(in_channels, out_channels, kernel_size=3, padding="same", seed=seed)
        self.relu1 = ReLU()
        self.dropout = Dropout(dropout, seed=seed + 1) if dropout > 0 else None
        if self.dropout is not None:
            self._modules["dropout"] = self.dropout
        self.conv2 = Conv2D(out_channels, out_channels, kernel_size=3, padding="same", seed=seed + 2)
        self.relu2 = ReLU()

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = self.relu1(self.conv1(x))
        if self.dropout is not None:
            x = self.dropout(x)
        return self.relu2(self.conv2(x))

    def backward(self, grad_output: np.ndarray, need_input_grad: bool = True) -> np.ndarray | None:
        grad = self.conv2.backward(self.relu2.backward(grad_output))
        if self.dropout is not None:
            grad = self.dropout.backward(grad)
        return self.conv1.backward(self.relu1.backward(grad), need_input_grad=need_input_grad)


class EncoderBlock(Module):
    """One contracting step: double convolution, then 2×2 max pooling.

    ``forward`` returns ``(pooled, skip)`` where ``skip`` is the pre-pooling
    feature map handed to the matching decoder step.
    """

    def __init__(self, in_channels: int, out_channels: int, dropout: float = 0.0, seed: int = 0) -> None:
        super().__init__()
        self.conv = DoubleConv(in_channels, out_channels, dropout=dropout, seed=seed)
        self.pool = MaxPool2D(2)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:  # type: ignore[override]
        skip = self.conv(x)
        return self.pool(skip), skip

    def __call__(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:  # type: ignore[override]
        return self.forward(x)

    def backward(  # type: ignore[override]
        self, grad_pooled: np.ndarray, grad_skip: np.ndarray | None = None,
        need_input_grad: bool = True,
    ) -> np.ndarray | None:
        grad = self.pool.backward(grad_pooled)
        if grad_skip is not None:
            grad = grad + grad_skip
        return self.conv.backward(grad, need_input_grad=need_input_grad)


class DecoderBlock(Module):
    """One expansive step: up-convolution, skip concatenation, double convolution."""

    def __init__(self, in_channels: int, skip_channels: int, out_channels: int, dropout: float = 0.0, seed: int = 0) -> None:
        super().__init__()
        self.upconv = UpConv2D(in_channels, out_channels, seed=seed)
        self.concat = Concat()
        self.conv = DoubleConv(out_channels + skip_channels, out_channels, dropout=dropout, seed=seed + 3)

    def forward(self, x: np.ndarray, skip: np.ndarray) -> np.ndarray:  # type: ignore[override]
        upsampled = self.upconv(x)
        merged = self.concat(upsampled, skip)
        return self.conv(merged)

    def __call__(self, x: np.ndarray, skip: np.ndarray) -> np.ndarray:  # type: ignore[override]
        return self.forward(x, skip)

    def backward(self, grad_output: np.ndarray) -> tuple[np.ndarray, np.ndarray]:  # type: ignore[override]
        """Returns ``(grad_wrt_input, grad_wrt_skip)``."""
        grad_merged = self.conv.backward(grad_output)
        grad_up, grad_skip = self.concat.backward(grad_merged)
        grad_input = self.upconv.backward(grad_up)
        return grad_input, grad_skip


class ReferenceUNet(Module):
    """Encoder–bottleneck–decoder U-Net with skip connections."""

    def __init__(self, config: UNetConfig | None = None) -> None:
        super().__init__()
        self.config = config or UNetConfig()
        cfg = self.config
        widths = cfg.encoder_channels()

        self.encoders: list[EncoderBlock] = []
        in_ch = cfg.in_channels
        for i, width in enumerate(widths):
            block = EncoderBlock(in_ch, width, dropout=cfg.dropout, seed=cfg.seed + 10 * i)
            self._modules[f"enc{i}"] = block
            self.encoders.append(block)
            in_ch = width

        bottleneck_width = widths[-1] * 2
        self.bottleneck = DoubleConv(in_ch, bottleneck_width, dropout=cfg.dropout, seed=cfg.seed + 1000)

        self.decoders: list[DecoderBlock] = []
        in_ch = bottleneck_width
        for i, width in enumerate(reversed(widths)):
            block = DecoderBlock(in_ch, skip_channels=width, out_channels=width,
                                 dropout=cfg.dropout, seed=cfg.seed + 2000 + 10 * i)
            self._modules[f"dec{i}"] = block
            self.decoders.append(block)
            in_ch = width

        self.head = Conv2D(in_ch, cfg.num_classes, kernel_size=1, padding=0, seed=cfg.seed + 3000)
        self._skips: list[np.ndarray] | None = None

    # ------------------------------------------------------------------ #
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Return per-pixel class logits of shape ``(N, num_classes, H, W)``."""
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != 4 or x.shape[1] != self.config.in_channels:
            raise ValueError(f"expected (N, {self.config.in_channels}, H, W) input, got shape {x.shape}")
        step = self.config.min_input_size()
        if x.shape[2] % step or x.shape[3] % step:
            raise ValueError(f"input spatial size must be divisible by {step} for depth {self.config.depth}")

        skips = []
        out = x
        for encoder in self.encoders:
            out, skip = encoder(out)
            skips.append(skip)
        out = self.bottleneck(out)
        for decoder, skip in zip(self.decoders, reversed(skips)):
            out = decoder(out, skip)
        self._skips = skips if self.training else None
        return self.head(out)

    def backward(self, grad_output: np.ndarray, need_input_grad: bool = True) -> np.ndarray | None:
        """Back-propagate ``dL/dlogits`` and return ``dL/dinput``.

        Training loops pass ``need_input_grad=False``: nothing consumes the
        input gradient there, and skipping the first layer's input
        contraction saves a full-resolution transposed convolution per step.
        """
        if self._skips is None:
            raise RuntimeError("backward called before forward")
        grad = self.head.backward(np.asarray(grad_output, dtype=np.float32))

        skip_grads: list[np.ndarray | None] = [None] * len(self.encoders)
        # Decoders were applied in order during forward, so backward visits
        # them in reverse; decoder i consumed the skip of encoder (depth-1-i).
        for i in range(len(self.decoders) - 1, -1, -1):
            grad, grad_skip = self.decoders[i].backward(grad)
            skip_grads[len(self.encoders) - 1 - i] = grad_skip

        grad = self.bottleneck.backward(grad)
        for index, (encoder, grad_skip) in enumerate(zip(reversed(self.encoders), reversed(skip_grads))):
            is_first_layer = index == len(self.encoders) - 1
            grad = encoder.backward(grad, grad_skip,
                                    need_input_grad=need_input_grad or not is_first_layer)
        return grad

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


class Sequential(Module):
    """A linear chain of modules applied in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)
        for index, layer in enumerate(self.layers):
            self._modules[str(index)] = layer

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer(x)
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_output = layer.backward(grad_output)
        return grad_output

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]


def _relative_error(a: np.ndarray, b: np.ndarray, eps: float = 1e-8) -> float:
    """Max elementwise relative error, robust near zero."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(a) + np.abs(b), eps)))


def numerical_gradient(func, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = x[idx]
        x[idx] = original + h
        f_plus = func(x)
        x[idx] = original - h
        f_minus = func(x)
        x[idx] = original
        grad[idx] = (f_plus - f_minus) / (2.0 * h)
        it.iternext()
    return grad


def check_layer_gradients(layer: Module, input_shape: tuple[int, ...], seed: int = 0, h: float = 1e-3,
                          tolerance: float = 2e-2) -> dict[str, float]:
    """Compare a layer's analytic gradients with central differences.

    A random input and a random upstream gradient are drawn; the scalar test
    function is ``sum(forward(x) * upstream)``, whose input gradient is the
    layer's ``backward(upstream)`` and whose parameter gradients are the
    accumulated ``param.grad`` values.  Returns the relative error of ``"input"``
    and of each parameter; raises ``AssertionError`` when one exceeds ``tolerance``.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, size=input_shape).astype(np.float64)
    out = layer.forward(x.astype(np.float32))
    upstream = rng.normal(0.0, 1.0, size=out.shape).astype(np.float64)

    layer.zero_grad()
    layer.forward(x.astype(np.float32))
    analytic_input = np.asarray(layer.backward(upstream.astype(np.float32)), dtype=np.float64)

    def loss_of_input(values: np.ndarray) -> float:
        return float(np.sum(layer.forward(values.astype(np.float32)).astype(np.float64) * upstream))

    errors = {"input": _relative_error(analytic_input, numerical_gradient(loss_of_input, x.copy(), h=h))}
    for name, param in layer.named_parameters().items():
        layer.zero_grad()
        layer.forward(x.astype(np.float32))
        layer.backward(upstream.astype(np.float32))
        analytic = param.grad.astype(np.float64).copy()
        original = param.value.copy()

        def loss_of_param(values: np.ndarray, _param=param) -> float:
            _param.value = values.astype(np.float32)
            return float(np.sum(layer.forward(x.astype(np.float32)).astype(np.float64) * upstream))

        numeric = numerical_gradient(loss_of_param, original.astype(np.float64).copy(), h=h)
        param.value = original
        errors[name] = _relative_error(analytic, numeric)

    failures = {k: v for k, v in errors.items() if v > tolerance}
    if failures:
        raise AssertionError(f"gradient check failed: {failures}")
    return errors
