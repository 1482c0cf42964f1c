"""Compiled inference plans: shape-specialised forward execution into one arena.

Serving traffic drives the same forward pass thousands of times per second at
a handful of fixed tile shapes, yet the generic ``Module.forward`` path pays
allocator and page-fault cost on every call: a fresh offset-GEMM scratch, a
fresh padded-input buffer and a fresh output tensor per convolution, plus
intermediate activations for every pool/upsample/concat.

This module provides the machinery to *compile* a model once per concrete
input shape instead:

* :class:`PlanBuilder` walks a layer graph at compile time, computing every
  intermediate shape, pre-packing convolution weights into their GEMM layout
  (one transpose/reshape at compile time instead of per call) and reserving
  every buffer — activations, padded inputs and a single shared offset-GEMM
  scratch one row band large — inside one flat float32 **workspace arena**;
* :meth:`PlanBuilder.finalize` materialises the arena with a single
  allocation and *binds* every execution step to concrete views into it, so
  :meth:`CompiledPlan.run` executes fused conv+bias(+ReLU) steps with
  ``np.matmul(..., out=...)`` and in-place ops, allocating nothing but the
  final output tensor;
* :class:`PlanCache` keeps an LRU cache of compiled plans keyed by input
  shape, so a serving process holds one warm plan per traffic shape.

Plans snapshot the weights they were compiled from (the GEMM pack is a
copy): mutating the model's parameters afterwards requires recompiling
(:meth:`PlanCache.clear`).  Running one plan is serialised by a per-plan
lock — concurrent callers of the *same* plan are safe but do not overlap;
distinct plans (distinct shapes) run fully in parallel.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable

import numpy as np

from .convgemm import conv_band_rows, conv_bands, conv_output_size, run_conv_bands
from .layers import max_of_views, pool_views

__all__ = [
    "Slot",
    "PlanBuilder",
    "CompiledPlan",
    "PlanCache",
    "pack_conv_weights",
]

_ALIGN = 16  # float32 elements (64 bytes) — keeps every buffer cache-line aligned.


def pack_conv_weights(conv) -> tuple[np.ndarray, np.ndarray | None]:
    """Pack a ``Conv2D`` layer's weights into their ``(offset, channel)`` GEMM layout.

    This is the exact packing :meth:`PlanBuilder.conv2d` performs at compile
    time — one transpose+reshape copy of the weight into the contiguous
    ``(F, k*k*C)`` GEMM operand plus a ``(F, 1)`` bias column.  It is exposed
    so a shared-memory model store can pack once in the parent process and
    have every worker's plan bind the *same* physical copy (the layout is
    input-shape independent, so one pack serves every compiled shape).
    """
    f = conv.out_channels
    # One transpose+reshape per *compile* instead of per call.  The explicit
    # copy matters twice over: it keeps the GEMM operand contiguous, and it
    # snapshots the weights (for 1×1 kernels the transpose+reshape would
    # otherwise be a live view of the parameter).
    w_mat = np.array(conv.weight.value.transpose(0, 2, 3, 1).reshape(f, -1), dtype=np.float32)
    # np.array (not ascontiguousarray): the bias is already contiguous, so
    # only an explicit copy snapshots it alongside the packed weights.
    bias = np.array(conv.bias.value, dtype=np.float32).reshape(f, 1) if conv.use_bias else None
    return w_mat, bias


class Slot:
    """Compile-time reservation of one buffer inside the workspace arena.

    ``channels`` restricts the view to ``[c0:c1)`` along axis 1 — that is how
    concatenation is fused away: the encoder's skip convolution and the
    decoder's up-convolution both write straight into their channel slice of
    the merged buffer, so no ``np.concatenate`` ever runs.
    """

    __slots__ = ("offset", "shape", "channels")

    def __init__(self, offset: int, shape: tuple[int, ...], channels: tuple[int, int] | None = None):
        self.offset = offset
        self.shape = shape
        self.channels = channels

    @property
    def view_shape(self) -> tuple[int, ...]:
        if self.channels is None:
            return self.shape
        c0, c1 = self.channels
        return self.shape[:1] + (c1 - c0,) + self.shape[2:]

    def slice(self, c0: int, c1: int) -> "Slot":
        """A channel-sliced alias of this slot (no new arena space)."""
        if self.channels is not None:
            raise ValueError("cannot slice an already-sliced slot")
        if not 0 <= c0 < c1 <= self.shape[1]:
            raise ValueError(f"channel slice [{c0}:{c1}) outside 0..{self.shape[1]}")
        return Slot(self.offset, self.shape, (c0, c1))

    def resolve(self, arena: np.ndarray) -> np.ndarray:
        size = 1
        for dim in self.shape:
            size *= dim
        view = arena[self.offset : self.offset + size].reshape(self.shape)
        if self.channels is not None:
            view = view[:, self.channels[0] : self.channels[1]]
        return view


#: Sentinel slot: the plan's external input array, supplied at run time.
INPUT = Slot(-1, ())


class _Step:
    """One bound execution step.  ``bind`` resolves slots to arena views once
    at finalize time; ``run`` only does assignments and in-place math."""

    def bind(self, resolve: Callable[[Slot], np.ndarray]) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def run(self, x: np.ndarray):  # pragma: no cover - interface
        raise NotImplementedError


class _PadCopyStep(_Step):
    """Copy an activation into the interior of its pre-zeroed padded buffer."""

    def __init__(self, src: Slot, dst: Slot, pad: int, src_shape: tuple[int, ...]):
        self.src, self.dst, self.pad = src, dst, pad
        self.src_shape = src_shape

    def bind(self, resolve):
        p = self.pad
        h, w = self.src_shape[2:]
        self._src = None if self.src is INPUT else resolve(self.src)
        self._interior = resolve(self.dst)[:, :, p : p + h, p : p + w]

    def run(self, x):
        self._interior[...] = x if self._src is None else self._src


class _ConvStep(_Step):
    """Fused convolution + bias (+ ReLU), one cache-resident row band at a time.

    The weight matrix is pre-packed in ``(offset, channel)`` order at compile
    time.  At bind time every band's source/destination views are precomputed
    (:func:`~repro.nn.convgemm.conv_bands`, the partition the layer forward
    shares), so each call is, per band: one strided copy of the k² offset
    slices, one ``np.matmul(..., out=...)`` into the output rows, an in-place
    bias add and an in-place ReLU while those rows are still in cache.
    """

    def __init__(self, src: Slot, cols: Slot | None, out: Slot,
                 w_mat: np.ndarray, bias: np.ndarray | None,
                 kernel: int, stride: int, relu: bool):
        self.src, self.cols, self.out = src, cols, out
        self.w_mat, self.bias = w_mat, bias
        self.kernel, self.stride, self.relu = kernel, stride, relu

    def bind(self, resolve):
        # cols None = pointwise 1x1/stride-1: the input rows are the cols matrix
        cols = None if self.cols is None else resolve(self.cols)
        self._bands = conv_bands(resolve(self.src), resolve(self.out), cols, self.kernel, self.stride)

    def run(self, x):
        run_conv_bands(self._bands, self.w_mat, self.bias, self.relu)


class _MaxPoolStep(_Step):
    """k×k max pooling: pairwise maxima of the k² strided views into the output."""

    def __init__(self, src: Slot, out: Slot, pool: int):
        self.src, self.out, self.pool = src, out, pool

    def bind(self, resolve):
        self._views = pool_views(resolve(self.src), self.pool)
        self._out = resolve(self.out)

    def run(self, x):
        max_of_views(self._views, self._out)


class _UpsamplePadStep(_Step):
    """2× nearest-neighbour upsampling fused with the (0, 1) edge padding the
    paper's up-convolution needs (even kernels cannot pad symmetrically)."""

    def __init__(self, src: Slot, dst: Slot):
        self.src, self.dst = src, dst

    def bind(self, resolve):
        h, w = self.src.view_shape[2:]
        src = resolve(self.src)
        dst = resolve(self.dst)
        up = dst[:, :, : 2 * h, : 2 * w]
        self._src = src
        self._quads = (up[:, :, 0::2, 0::2], up[:, :, 0::2, 1::2],
                       up[:, :, 1::2, 0::2], up[:, :, 1::2, 1::2])
        self._edge_row, self._edge_row_src = dst[:, :, 2 * h, : 2 * w], dst[:, :, 2 * h - 1, : 2 * w]
        self._edge_col, self._edge_col_src = dst[:, :, :, 2 * w], dst[:, :, :, 2 * w - 1]

    def run(self, x):
        for quad in self._quads:
            quad[...] = self._src
        self._edge_row[...] = self._edge_row_src
        # Column after row so the bottom-right corner replicates correctly.
        self._edge_col[...] = self._edge_col_src


class _SoftmaxStep(_Step):
    """Channel softmax of the logits — the plan's one fresh allocation, unless
    the caller provides the buffer (e.g. a shared-memory output arena)."""

    def __init__(self, src: Slot):
        self.src = src

    def bind(self, resolve):
        self._logits = resolve(self.src)

    def run(self, x):
        return self.run_into(x, np.empty(self._logits.shape, dtype=np.float32))

    def run_into(self, x, out: np.ndarray) -> np.ndarray:
        # Mirrors losses.softmax op for op (max-subtract, exp, normalise) so
        # every float matches ``UNet.predict_proba`` bit for bit.
        np.subtract(self._logits, self._logits.max(axis=1, keepdims=True), out=out)
        np.exp(out, out=out)
        out /= out.sum(axis=1, keepdims=True)
        return out


class CompiledPlan:
    """One compiled, shape-specialised forward pass over a workspace arena."""

    def __init__(self, input_shape: tuple[int, ...], output_shape: tuple[int, ...],
                 arena: np.ndarray, steps: list[_Step]):
        self.input_shape = tuple(input_shape)
        self.output_shape = tuple(output_shape)
        self._arena = arena
        self._steps = steps
        self._lock = threading.Lock()
        #: per-step ``{"step", "calls", "total_ms"}`` accumulators while
        #: profiling is enabled; ``None`` (the default) keeps :meth:`run`'s
        #: hot path at a single ``is None`` branch
        self._profile: list[dict] | None = None

    @property
    def arena_nbytes(self) -> int:
        """Total bytes of the preallocated workspace arena."""
        return self._arena.nbytes

    def enable_profiling(self, enabled: bool = True) -> None:
        """Toggle per-step wall-time accumulation (resets prior samples)."""
        with self._lock:
            if enabled:
                self._profile = [
                    {"step": type(step).__name__.lstrip("_"), "calls": 0, "total_ms": 0.0}
                    for step in self._steps
                ]
            else:
                self._profile = None

    def profile_info(self) -> list[dict]:
        """Accumulated per-step timings (``[]`` unless profiling is enabled)."""
        with self._lock:
            cells = self._profile
            if cells is None:
                return []
            return [
                {
                    "index": index,
                    "step": cell["step"],
                    "calls": cell["calls"],
                    "total_ms": round(cell["total_ms"], 3),
                    "mean_ms": round(cell["total_ms"] / cell["calls"], 4) if cell["calls"] else 0.0,
                }
                for index, cell in enumerate(cells)
            ]

    def run(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Execute the plan on ``x`` (must match the compiled input shape).

        Serialised per plan: the steps write into shared arena views, so two
        concurrent runs of the same plan must not interleave.  With ``out``
        (a float32 array of the plan's output shape) the final softmax writes
        straight into the caller's buffer — the zero-copy seam the
        shared-memory fork backend uses to land probabilities in a shared
        output arena — producing bit-identical values to the allocating path.
        """
        x = np.asarray(x, dtype=np.float32)
        if x.shape != self.input_shape:
            raise ValueError(f"plan compiled for input {self.input_shape}, got {x.shape}")
        if out is not None and (out.shape != self.output_shape or out.dtype != np.float32):
            raise ValueError(
                f"plan output buffer must be float32 {self.output_shape}, "
                f"got {out.dtype} {out.shape}"
            )
        with self._lock:
            if self._profile is not None:
                return self._run_profiled(x, out)
            for step in self._steps[:-1]:
                step.run(x)
            last = self._steps[-1]
            if out is not None:
                return last.run_into(x, out)
            return last.run(x)

    def _run_profiled(self, x: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        """The :meth:`run` body with per-step timing; caller holds ``_lock``."""
        result = None
        last_index = len(self._steps) - 1
        for index, step in enumerate(self._steps):
            start = time.perf_counter()
            if index == last_index and out is not None:
                result = step.run_into(x, out)
            else:
                result = step.run(x)
            cell = self._profile[index]
            cell["calls"] += 1
            cell["total_ms"] += (time.perf_counter() - start) * 1e3
        return result


class PlanBuilder:
    """Reserve buffers and record steps, then :meth:`finalize` into a plan.

    The builder is model-agnostic: it knows how to pad, convolve, pool and
    upsample between arena slots.  Model-specific compilers (e.g.
    :func:`repro.unet.compiled.compile_unet_plan`) walk their layer graph and
    drive these primitives.
    """

    def __init__(self, input_shape: tuple[int, ...], packed_weights: dict | None = None):
        if len(input_shape) != 4 or min(input_shape) < 1:
            raise ValueError(f"expected a concrete (N, C, H, W) input shape, got {input_shape}")
        self.input_shape = tuple(int(d) for d in input_shape)
        self._total = 0
        self._scratch_size = 0  # shared offset-GEMM cols region, sized to the largest conv band
        self._scratch_slots: list[Slot] = []
        self._steps: list[_Step] = []
        #: ``{layer name: (w_mat, bias)}`` of externally pre-packed GEMM
        #: weights (see :func:`pack_conv_weights`) bound zero-copy instead of
        #: re-packing — this is how N fork workers share one physical copy.
        self._packed_weights = packed_weights or {}

    # ------------------------------------------------------------------ #
    # Arena reservation
    # ------------------------------------------------------------------ #
    def reserve(self, shape: tuple[int, ...]) -> Slot:
        """Reserve a dedicated float32 buffer of ``shape`` in the arena."""
        size = 1
        for dim in shape:
            size *= int(dim)
        slot = Slot(self._total, tuple(int(d) for d in shape))
        self._total += -(-size // _ALIGN) * _ALIGN
        return slot

    def _reserve_scratch(self, shape: tuple[int, ...]) -> Slot:
        """Reserve a view of the *shared* cols scratch (transient per conv band)."""
        size = 1
        for dim in shape:
            size *= int(dim)
        self._scratch_size = max(self._scratch_size, size)
        slot = Slot(-2, tuple(int(d) for d in shape))  # offset patched at finalize
        self._scratch_slots.append(slot)
        return slot

    # ------------------------------------------------------------------ #
    # Primitives
    # ------------------------------------------------------------------ #
    def conv2d(self, src: Slot, conv, relu: bool = False, out: Slot | None = None,
               name: str | None = None) -> Slot:
        """Append a convolution of ``src`` by a ``Conv2D`` layer.

        Pads into a dedicated pre-zeroed buffer when the layer pads, packs the
        weights into their ``(offset, channel)`` GEMM layout, and routes the
        GEMM output into ``out`` (e.g. a channel slice of a merged buffer)
        or a freshly reserved activation.  Returns the output slot.

        ``name`` keys the layer into the builder's ``packed_weights`` map:
        when a pre-packed ``(w_mat, bias)`` pair was supplied for it (e.g.
        views into a shared-memory weight arena) the step binds that pair
        directly instead of packing a private copy.
        """
        n, c, h, w = (self.input_shape if src is INPUT else src.view_shape)
        if c != conv.in_channels:
            raise ValueError(f"conv expects {conv.in_channels} channels, got {c}")
        k, s, p = conv.kernel_size, conv.stride, conv.padding
        oh = conv_output_size(h, k, s, p)
        ow = conv_output_size(w, k, s, p)

        if p > 0:
            padded = self.reserve((n, c, h + 2 * p, w + 2 * p))
            self._steps.append(_PadCopyStep(src, padded, p, (n, c, h, w)))
            src = padded
        elif src is INPUT:
            # Unpadded external input still needs a stable arena copy so the
            # cols views can be pre-bound.
            copied = self.reserve((n, c, h, w))
            self._steps.append(_PadCopyStep(INPUT, copied, 0, (n, c, h, w)))
            src = copied

        f = conv.out_channels
        packed = self._packed_weights.get(name) if name is not None else None
        if packed is not None:
            w_mat, bias = packed
            if w_mat.shape != (f, k * k * c):
                raise ValueError(
                    f"pre-packed weights for {name!r} have shape {w_mat.shape}, "
                    f"expected {(f, k * k * c)}"
                )
            if (bias is None) != (not conv.use_bias):
                raise ValueError(f"pre-packed bias for {name!r} does not match use_bias")
        else:
            w_mat, bias = pack_conv_weights(conv)

        kc = k * k * c
        cols = None if (k == 1 and s == 1) else self._reserve_scratch((kc * conv_band_rows(kc, f, oh, ow) * ow,))
        if out is None:
            out = self.reserve((n, f, oh, ow))
        if out.view_shape != (n, f, oh, ow):
            raise ValueError(f"conv output {(n, f, oh, ow)} does not fit slot {out.view_shape}")
        self._steps.append(_ConvStep(src, cols, out, w_mat, bias, k, s, relu))
        return out

    def maxpool(self, src: Slot, pool: int) -> Slot:
        n, c, h, w = src.view_shape
        if h % pool or w % pool:
            raise ValueError(f"spatial size ({h}, {w}) not divisible by pool size {pool}")
        out = self.reserve((n, c, h // pool, w // pool))
        self._steps.append(_MaxPoolStep(src, out, pool))
        return out

    def upsample_pad(self, src: Slot) -> Slot:
        """2× upsample plus bottom/right edge padding (up-convolution input)."""
        n, c, h, w = src.view_shape
        out = self.reserve((n, c, 2 * h + 1, 2 * w + 1))
        self._steps.append(_UpsamplePadStep(src, out))
        return out

    def softmax_output(self, src: Slot) -> None:
        """Terminal step: channel softmax returned as a fresh tensor."""
        self._steps.append(_SoftmaxStep(src))
        self._output_shape = src.view_shape

    # ------------------------------------------------------------------ #
    def finalize(self) -> CompiledPlan:
        """Allocate the arena (one ``np.zeros``) and bind every step to it.

        Zero-initialising the arena is what makes padding free at run time:
        pad-buffer borders are written exactly once, here, and every other
        byte is overwritten by the steps on each call.
        """
        if not self._steps or not isinstance(self._steps[-1], _SoftmaxStep):
            raise RuntimeError("finalize requires a terminal softmax_output step")
        scratch_offset = self._total
        for slot in self._scratch_slots:
            slot.offset = scratch_offset
        total = self._total + self._scratch_size
        arena = np.zeros(total, dtype=np.float32)
        for step in self._steps:
            step.bind(lambda slot: slot.resolve(arena))
        return CompiledPlan(self.input_shape, self._output_shape, arena, self._steps)


class PlanCache:
    """Thread-safe LRU cache of :class:`CompiledPlan` keyed by input shape.

    ``compile_fn(shape)`` builds a plan on a miss; the least recently used
    plan is dropped once ``max_plans`` distinct shapes are live.  Counters
    (:meth:`info`) expose hit/miss/eviction behaviour for tests and ``/stats``.
    """

    def __init__(self, compile_fn: Callable[[tuple[int, ...]], CompiledPlan], max_plans: int = 8):
        if max_plans < 1:
            raise ValueError("max_plans must be >= 1")
        self._compile_fn = compile_fn
        self.max_plans = int(max_plans)
        self._plans: "OrderedDict[tuple[int, ...], CompiledPlan]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, shape: tuple[int, ...]) -> CompiledPlan:
        shape = tuple(int(d) for d in shape)
        with self._lock:
            plan = self._plans.get(shape)
            if plan is not None:
                self.hits += 1
                self._plans.move_to_end(shape)
                return plan
            # Compile under the lock: a second thread racing the same shape
            # must not build (and allocate an arena for) a duplicate plan.
            self.misses += 1
            plan = self._compile_fn(shape)
            self._plans[shape] = plan
            while len(self._plans) > self.max_plans:
                self._plans.popitem(last=False)
                self.evictions += 1
            return plan

    def shapes(self) -> list[tuple[int, ...]]:
        """Cached shapes, least recently used first."""
        with self._lock:
            return list(self._plans)

    def items(self) -> list[tuple[tuple[int, ...], CompiledPlan]]:
        """``(shape, plan)`` snapshot, least recently used first."""
        with self._lock:
            return list(self._plans.items())

    def clear(self) -> None:
        """Drop every cached plan (required after mutating model weights)."""
        with self._lock:
            self._plans.clear()

    def info(self) -> dict:
        with self._lock:
            return {
                "plans": len(self._plans),
                "max_plans": self.max_plans,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "arena_bytes": sum(p.arena_nbytes for p in self._plans.values()),
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)
