"""Compile a :class:`~repro.unet.UNet` into a zero-allocation inference plan.

:func:`compile_unet_plan` walks the encoder–bottleneck–decoder graph once for
a concrete ``(N, C, H, W)`` input shape and emits a
:class:`~repro.nn.plan.CompiledPlan` whose steps run the *exact* eval-mode
forward (offset-GEMM convolutions, fused bias+ReLU, window max pooling,
up-convolutions at their input's resolution) into a single preallocated
workspace arena.

Three structural fusions fall out of planning ahead:

* **Concatenation disappears.**  Each decoder level's merged feature map is
  one arena buffer; the matching encoder's second convolution writes its
  skip activation directly into the upper channel slice during the
  contracting pass, and the up-convolution GEMMs into the lower slice during
  the expansive pass — no ``np.concatenate``, no skip copy.
* **Padding is never copied.**  A buffer a padding convolution reads carries
  the zero border itself: its producers (convolutions, pooling) write the
  interior, the consumer reads the whole of it.  Only the external input is
  copied into a bordered buffer.  Buffers never live at the same step share
  arena bytes; a border that shares them is re-zeroed before its buffer's
  first writer, every other border is written once, by the allocation.
* **Up-sampling disappears.**  The paper's up-convolution — 2× nearest
  up-sampling, bottom/right edge padding, a 2×2 convolution — reads input
  pixel ``(i + (a+di)//2, j + (b+dj)//2)`` (clamped at the edge) for kernel
  tap ``(di, dj)`` of output pixel ``(2i+a, 2j+b)``.  So each output phase
  ``(a, b)`` is a convolution of the low-resolution input with folded weights
  (1×1 ``ΣW``, 1×2, 2×1, the 2×2 ``W``): 9 taps instead of 16, four GEMMs per
  band of one gathered ``(4C, rows·w)`` cols, each writing its phase's strided
  pixels of the merged buffer.  The 4× map, its edge pad and its unrolling are
  never built.

:class:`CompiledUNet` wraps a model with an LRU :class:`~repro.nn.plan.PlanCache`
so consumers just call :meth:`CompiledUNet.predict_proba` and plans appear
per traffic shape.  Plans snapshot weights at compile time — call
:meth:`CompiledUNet.clear` after mutating parameters (e.g. more training).
"""

from __future__ import annotations

import numpy as np

from ..nn.plan import INPUT, CompiledPlan, PlanBuilder, PlanCache
from .model import UNet

__all__ = ["compile_unet_plan", "iter_plan_conv_layers", "CompiledUNet"]


def iter_plan_conv_layers(model: UNet):
    """Yield ``(name, layer)`` for every ``Conv2D`` / ``UpConv2D`` a U-Net plan packs.

    The names are the layers' dotted module paths (the same paths
    ``state_dict`` uses), in plan execution order.  This is the single
    enumeration both :func:`compile_unet_plan` and the shared-memory model
    store rely on, so pre-packed weights published under these names line up
    with the plan steps that bind them.
    """
    if not isinstance(model, UNet):
        raise TypeError(f"iter_plan_conv_layers requires a UNet, got {type(model).__name__}")
    for e, encoder in enumerate(model.encoders):
        yield f"encoders.{e}.conv.conv1", encoder.conv.conv1
        yield f"encoders.{e}.conv.conv2", encoder.conv.conv2
    yield "bottleneck.conv1", model.bottleneck.conv1
    yield "bottleneck.conv2", model.bottleneck.conv2
    for j, decoder in enumerate(model.decoders):
        yield f"decoders.{j}.upconv", decoder.upconv
        yield f"decoders.{j}.conv.conv1", decoder.conv.conv1
        yield f"decoders.{j}.conv.conv2", decoder.conv.conv2
    yield "head", model.head


def compile_unet_plan(
    model: UNet, input_shape: tuple[int, ...], packed_weights: dict | None = None
) -> CompiledPlan:
    """Compile ``model``'s eval forward for one concrete input shape.

    The plan computes ``softmax(model.forward(x), axis=1)`` — the same maps
    :meth:`UNet.predict_proba` produces — without per-call allocations.
    ``packed_weights`` maps :func:`iter_plan_conv_layers` names to pre-packed
    ``(w_mat, bias)`` pairs (e.g. read-only views into a shared-memory weight
    arena); layers found there bind the shared pack instead of copying.
    """
    if not isinstance(model, UNet):
        raise TypeError(f"compile_unet_plan requires a UNet, got {type(model).__name__}")
    cfg = model.config
    if len(input_shape) != 4:
        raise ValueError(f"expected a (N, C, H, W) input shape, got {input_shape}")
    n, c, h, w = (int(d) for d in input_shape)
    if c != cfg.in_channels:
        raise ValueError(f"model expects {cfg.in_channels} input channels, got {c}")
    step = cfg.min_input_size()
    if h % step or w % step:
        raise ValueError(f"input spatial size must be divisible by {step} for depth {cfg.depth}")

    widths = cfg.encoder_channels()
    b = PlanBuilder((n, c, h, w), packed_weights=packed_weights)

    # Merged (up-convolution ‖ skip) buffers, one per encoder/decoder level; the decoder's first
    # convolution gives each its border.  Channel layout matches Concat(upsampled, skip): [0:width) up, [width:2w) skip.
    merged = [b.reserve((n, 2 * widths[e], h >> e, w >> e)) for e in range(cfg.depth)]

    x = INPUT
    for e, encoder in enumerate(model.encoders):
        block = encoder.conv  # DoubleConv (dropout is identity in eval)
        x = b.conv2d(x, block.conv1, relu=True, name=f"encoders.{e}.conv.conv1")
        skip = b.conv2d(x, block.conv2, relu=True, out=merged[e].slice(widths[e], 2 * widths[e]),
                        name=f"encoders.{e}.conv.conv2")
        x = b.maxpool(skip, encoder.pool.pool_size)

    x = b.conv2d(x, model.bottleneck.conv1, relu=True, name="bottleneck.conv1")
    x = b.conv2d(x, model.bottleneck.conv2, relu=True, name="bottleneck.conv2")

    for j, decoder in enumerate(model.decoders):
        e = cfg.depth - 1 - j
        b.upconv(x, decoder.upconv, out=merged[e].slice(0, widths[e]), name=f"decoders.{j}.upconv")
        x = b.conv2d(merged[e], decoder.conv.conv1, relu=True, name=f"decoders.{j}.conv.conv1")
        x = b.conv2d(x, decoder.conv.conv2, relu=True, name=f"decoders.{j}.conv.conv2")

    logits = b.conv2d(x, model.head, relu=False, name="head")
    b.softmax_output(logits)
    return b.finalize()


class CompiledUNet:
    """A model plus its per-shape LRU plan cache — the serving hot path.

    Drop-in for the ``predict_proba`` seam: the first call at a new input
    shape compiles a plan (one arena allocation), later calls at that shape
    run allocation-free.  Thread-safe; concurrent runs of the same shape are
    serialised by the plan's lock, distinct shapes run in parallel.
    """

    def __init__(self, model: UNet, max_plans: int = 8, packed_weights: dict | None = None):
        if not isinstance(model, UNet):
            raise TypeError(f"CompiledUNet requires a UNet, got {type(model).__name__}")
        self.model = model
        self.max_plans = int(max_plans)
        self._cache = PlanCache(
            lambda shape: compile_unet_plan(model, shape, packed_weights=packed_weights),
            max_plans=max_plans,
        )

    def predict_proba(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Class probabilities ``(N, K, H, W)`` through the compiled plan.

        ``out`` routes the final softmax into a caller-provided float32
        buffer (bit-identical values, zero output allocation) — the seam the
        shared-memory backend workers use to write straight into a shared
        output arena.
        """
        x = np.asarray(x, dtype=np.float32)
        return self._cache.get(x.shape).run(x, out=out)

    def warm(self, input_shape: tuple[int, ...]) -> CompiledPlan:
        """Pre-compile (and cache) the plan for ``input_shape``."""
        return self._cache.get(input_shape)

    def clear(self) -> None:
        """Drop every cached plan (required after the model's weights change)."""
        self._cache.clear()

    def cache_info(self) -> dict:
        return self._cache.info()

    def enable_profiling(self, enabled: bool = True) -> None:
        """Toggle per-step timing on every currently cached plan.

        Plans compiled *after* this call start unprofiled — re-enable after
        warming new shapes (the ``repro-seaice profile`` runner warms first,
        then enables, so its measured iterations all profile).
        """
        for _shape, plan in self._cache.items():
            plan.enable_profiling(enabled)

    def profile_info(self) -> dict[tuple[int, ...], list[dict]]:
        """``{input_shape: per-step timings}`` for every profiled cached plan."""
        return {
            shape: info
            for shape, plan in self._cache.items()
            if (info := plan.profile_info())
        }
