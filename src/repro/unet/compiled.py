"""Compile a :class:`~repro.unet.UNet` into a zero-allocation inference plan.

:func:`compile_unet_plan` maps each op of the model's op list
(:func:`~repro.unet.model.unet_ops`) to one :class:`~repro.nn.plan.PlanBuilder`
call for a concrete ``(N, C, H, W)`` input shape, and emits a
:class:`~repro.nn.plan.CompiledPlan` whose steps run the *exact* eval-mode
forward (offset-GEMM convolutions with their ReLU fused in, window max
pooling, up-convolutions at their input's resolution; dropout is the identity
and emits nothing) into a single preallocated workspace arena.

Three structural fusions fall out of planning ahead:

* **Concatenation disappears.**  A concat op makes its two sources channel
  slices of one merged arena buffer (:meth:`~repro.nn.plan.PlanBuilder.concat`):
  the encoder's second convolution has already been recorded writing its skip
  activation, and the up-convolution its output, so each lands in its slice of
  the merged buffer — no ``np.concatenate``, no skip copy.
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

from ..nn import Concat, Conv2D, Dropout, MaxPool2D, ReLU, UpConv2D
from ..nn.plan import INPUT, CompiledPlan, PlanBuilder, PlanCache
from .model import UNet

__all__ = ["compile_unet_plan", "iter_plan_conv_layers", "CompiledUNet"]


def iter_plan_conv_layers(model: UNet):
    """Yield ``(name, layer)`` for every ``Conv2D`` / ``UpConv2D`` a U-Net plan packs, in plan order.

    The names are the op names — the layers' ``state_dict`` paths — under
    which :func:`compile_unet_plan` looks layers up in ``packed_weights``, so
    the packs the shared-memory model store publishes under them line up with
    the plan steps that bind them.
    """
    if not isinstance(model, UNet):
        raise TypeError(f"iter_plan_conv_layers requires a UNet, got {type(model).__name__}")
    yield from ((op.name, op.layer) for op in model.ops if isinstance(op.layer, (Conv2D, UpConv2D)))


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
    model.config.check_input_shape(input_shape)
    b = PlanBuilder(input_shape, packed_weights=packed_weights)
    ops, slots = model.ops, [INPUT]  # slots[i]: where activation i lives
    for i, op in enumerate(ops):
        layer, srcs = op.layer, [slots[s] for s in op.srcs]
        if isinstance(layer, Conv2D):
            relu = i + 1 < len(ops) and isinstance(ops[i + 1].layer, ReLU)
            slots.append(b.conv2d(srcs[0], layer, relu=relu, name=op.name))
        elif isinstance(layer, Dropout) or (isinstance(layer, ReLU) and isinstance(ops[i - 1].layer, Conv2D)):
            slots.append(srcs[0])  # the identity in eval / fused into the conv before it
        elif isinstance(layer, MaxPool2D):
            slots.append(b.maxpool(srcs[0], layer.pool_size))
        elif isinstance(layer, UpConv2D):
            slots.append(b.upconv(srcs[0], layer, name=op.name))
        elif isinstance(layer, Concat):
            slots.append(b.concat(*srcs))
        else:
            raise TypeError(f"no plan step for op {op.name} ({type(layer).__name__})")
    b.softmax_output(slots[-1])
    return b.finalize()


#: Distinct input shapes whose plans a :class:`CompiledUNet` keeps compiled (least recently used go first).
MAX_PLANS = 8


class CompiledUNet:
    """A model plus its per-shape LRU plan cache — the serving hot path.

    Drop-in for the ``predict_proba`` seam: the first call at a new input
    shape compiles a plan (one arena allocation), later calls at that shape
    run allocation-free.  Thread-safe; concurrent runs of the same shape are
    serialised by the plan's lock, distinct shapes run in parallel.
    """

    def __init__(self, model: UNet, packed_weights: dict | None = None):
        if not isinstance(model, UNet):
            raise TypeError(f"CompiledUNet requires a UNet, got {type(model).__name__}")
        self.model = model
        self._cache = PlanCache(
            lambda shape: compile_unet_plan(model, shape, packed_weights=packed_weights),
            max_plans=MAX_PLANS,
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
