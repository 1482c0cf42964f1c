"""Compiled inference plans: shape-specialised forward execution into one arena.

Serving traffic drives the same forward pass thousands of times per second at
a handful of fixed tile shapes, yet the generic ``Module.forward`` path pays
allocator and page-fault cost on every call: a fresh offset-GEMM scratch, a
fresh padded-input buffer and a fresh output tensor per convolution, plus
intermediate activations for every pool/up-convolution/concat.

This module provides the machinery to *compile* a model once per concrete
input shape instead:

* :class:`PlanBuilder` takes one call per op of a model's op list at compile
  time, computing every intermediate shape, pre-packing convolution weights
  into their GEMM layout (one transpose/reshape per compile, not per call) and reserving
  every activation buffer; a buffer a padding convolution reads carries that
  zero border itself, so its producers write its interior and nothing is
  copied into a padded twin (only the external input is);
* an up-convolution (2× nearest up-sample, edge pad, 2×2 conv) runs at its
  input's resolution: output pixel ``(2i+a, 2j+b)`` reads input pixel
  ``(i + (a+di)//2, j + (b+dj)//2)`` (clamped) for kernel tap ``(di, dj)``,
  so each of the four phases ``(a, b)`` is one GEMM of a folded-weight block
  of the ``(F, 9C)`` phase pack against a row range of one gathered band,
  written straight into that phase's strided pixels — no up-sampled map;
* :meth:`PlanBuilder.finalize` packs the buffers by liveness — two that are
  never live at the same step may share bytes — into one flat float32
  **workspace arena** that ends in a single offset-GEMM scratch one row band
  large, and *binds* every execution step to concrete views into it, so
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

import math
import threading
import time
from collections import OrderedDict
from typing import Callable

import numpy as np

from .convgemm import (
    conv_band_rows,
    conv_bands,
    conv_output_size,
    run_conv_bands,
    run_upconv_bands,
    upconv_bands,
    upconv_weights,
)
from .layers import UpConv2D, max_of_views, pool_views

__all__ = [
    "Slot",
    "PlanBuilder",
    "CompiledPlan",
    "PlanCache",
    "pack_conv_weights",
]

_ALIGN = 16  # float32 elements (64 bytes) — keeps every buffer cache-line aligned.


def _conv_of(layer):
    """The ``Conv2D`` holding a layer's weights: the layer itself, or an ``UpConv2D``'s 2×2 ``conv``."""
    return layer.conv if isinstance(layer, UpConv2D) else layer


def pack_conv_weights(layer) -> tuple[np.ndarray, np.ndarray | None]:
    """Pack a ``Conv2D``'s or an ``UpConv2D``'s weights into their GEMM layout.

    This is the exact packing :meth:`PlanBuilder.conv2d` / :meth:`PlanBuilder.upconv`
    perform at compile time: a convolution's weight as the contiguous
    ``(F, k*k*C)`` operand in ``(offset, channel)`` order, an up-convolution's as
    its ``(F, 9C)`` phase pack (:func:`~repro.nn.convgemm.upconv_weights`), plus
    a ``(F, 1)`` bias column.  It is exposed so a shared-memory model store can
    pack once in the parent process and have every worker's plan bind the
    *same* physical copy (the layout is input-shape independent, so one pack
    serves every compiled shape).
    """
    conv = _conv_of(layer)
    f = conv.out_channels
    if isinstance(layer, UpConv2D):
        w_mat = upconv_weights(conv.weight.value)
    else:
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
    """Compile-time reservation of one buffer of the workspace arena.

    ``shape`` is what producers and most consumers see; the storage is larger
    by a zero border of ``pad`` pixels per side, decided by the first
    convolution that reads the slot (``None`` until then) and read in place of
    a padded copy.  ``offset`` is assigned when :meth:`PlanBuilder.finalize`
    packs the arena.  ``channels`` restricts the view to ``[c0:c1)`` along axis
    1 — that is how concatenation is fused away (:meth:`PlanBuilder.concat`):
    the producers of both sources write straight into their channel slice of
    the merged buffer, so no ``np.concatenate`` ever runs.  A slice shares its
    ``root``'s storage, border and placement.
    """

    __slots__ = ("offset", "shape", "channels", "pad", "root")

    def __init__(self, offset: int | None, shape: tuple[int, ...],
                 channels: tuple[int, int] | None = None, root: "Slot | None" = None):
        self.offset = offset
        self.shape = shape
        self.channels = channels
        self.pad: int | None = None
        self.root = root or self

    @property
    def view_shape(self) -> tuple[int, ...]:
        if self.channels is None:
            return self.shape
        c0, c1 = self.channels
        return self.shape[:1] + (c1 - c0,) + self.shape[2:]

    @property
    def storage_shape(self) -> tuple[int, ...]:
        border = 2 * (self.root.pad or 0)
        return self.shape[:2] + tuple(dim + border for dim in self.shape[2:])

    def slice(self, c0: int, c1: int) -> "Slot":
        """A channel-sliced alias of this slot (no new arena space)."""
        if self.channels is not None:
            raise ValueError("cannot slice an already-sliced slot")
        if not 0 <= c0 < c1 <= self.shape[1]:
            raise ValueError(f"channel slice [{c0}:{c1}) outside 0..{self.shape[1]}")
        return Slot(None, self.shape, (c0, c1), root=self)

    def resolve(self, arena: np.ndarray, border: int = 0) -> np.ndarray:
        """The slot's view of ``arena``, widened by ``border`` pixels of its zero border per side."""
        root = self.root
        shape = root.storage_shape
        view = arena[root.offset : root.offset + math.prod(shape)].reshape(shape)
        inset = (root.pad or 0) - border
        if inset:
            view = view[:, :, inset:-inset, inset:-inset]
        if self.channels is not None:
            view = view[:, self.channels[0] : self.channels[1]]
        return view


#: Sentinel slot: the plan's external input array, supplied at run time.
INPUT = Slot(None, ())


class _Step:
    """One bound execution step.  ``reads`` / ``writes`` name the slots it
    touches — what :meth:`PlanBuilder.finalize` packs the arena from; ``bind``
    resolves slots to arena views once, after placement; ``run`` only does
    assignments and in-place math."""

    reads: tuple[Slot, ...] = ()
    writes: tuple[Slot, ...] = ()

    def bind(self, arena: np.ndarray) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def run(self, x: np.ndarray):  # pragma: no cover - interface
        raise NotImplementedError


class _PadCopyStep(_Step):
    """Copy the external input — or an activation whose own border another
    consumer already decided differently — into the interior of a bordered buffer."""

    def __init__(self, src: Slot, dst: Slot):
        self.reads, self.writes = (src,), (dst,)

    def bind(self, arena):
        src = self.reads[0]
        self._src = None if src is INPUT else src.resolve(arena)
        self._interior = self.writes[0].resolve(arena)

    def run(self, x):
        self._interior[...] = x if self._src is None else self._src


class _BorderStep(_Step):
    """Re-zero the border ring of a buffer whose bytes another buffer used since the last run."""

    def __init__(self, slot: Slot):
        self.writes = (slot,)

    def bind(self, arena):
        p = self.writes[0].pad
        whole = self.writes[0].resolve(arena, border=p)
        self._strips = (whole[:, :, :p], whole[:, :, -p:], whole[:, :, p:-p, :p], whole[:, :, p:-p, -p:])

    def run(self, x):
        for strip in self._strips:
            strip.fill(0.0)


class _ConvStep(_Step):
    """Fused convolution + bias (+ ReLU), one cache-resident row band at a time.

    The weight matrix is pre-packed in ``(offset, channel)`` order at compile
    time.  At bind time every band's source/destination views are precomputed
    (:func:`~repro.nn.convgemm.conv_bands`, the partition the layer forward
    shares), so each call is, per band: one strided copy of the k² offset
    slices, one ``np.matmul(..., out=...)`` into the output rows — or, when
    those rows sit inside a bordered buffer, into the scratch with the last
    elementwise pass writing them — an in-place bias add and ReLU while the
    band is still in cache.  The source is read with ``pad`` pixels of its
    zero border.
    """

    def __init__(self, src: Slot, scratch: Slot, out: Slot,
                 w_mat: np.ndarray, bias: np.ndarray | None,
                 kernel: int, pad: int, relu: bool):
        self.reads, self.writes, self.scratch = (src,), (out,), scratch
        self.w_mat, self.bias = w_mat, bias
        self.kernel, self.pad, self.relu = kernel, pad, relu

    def bind(self, arena):
        self._bands = conv_bands(self.reads[0].resolve(arena, border=self.pad), self.writes[0].resolve(arena),
                                 self.scratch.resolve(arena), self.kernel)

    def run(self, x):
        run_conv_bands(self._bands, self.w_mat, self.bias, self.relu)


class _MaxPoolStep(_Step):
    """k×k max pooling: pairwise maxima of the k² strided views into the output."""

    def __init__(self, src: Slot, out: Slot, pool: int):
        self.reads, self.writes, self.pool = (src,), (out,), pool

    def bind(self, arena):
        self._views = pool_views(self.reads[0].resolve(arena), self.pool)
        self._out = self.writes[0].resolve(arena)

    def run(self, x):
        max_of_views(self._views, self._out)


class _UpConvStep(_Step):
    """2× up-convolution at the input's resolution: per row band, one gather of the
    four clamped taps, then per output phase one GEMM against its block of the
    ``(F, 9C)`` phase pack and a bias pass into that phase's strided pixels
    (:func:`~repro.nn.convgemm.upconv_bands`, the partition the layer shares)."""

    def __init__(self, src: Slot, scratch: Slot, out: Slot, w_pack: np.ndarray, bias: np.ndarray | None):
        self.reads, self.writes, self.scratch = (src,), (out,), scratch
        self.w_mat, self.bias = w_pack, bias

    def bind(self, arena):
        self._bands = upconv_bands(self.reads[0].resolve(arena), self.writes[0].resolve(arena),
                                   self.scratch.resolve(arena))

    def run(self, x):
        run_upconv_bands(self._bands, self.w_mat, self.bias)


class _SoftmaxStep(_Step):
    """Channel softmax of the logits — the plan's one fresh allocation, unless
    the caller provides the buffer (e.g. a shared-memory output arena)."""

    def __init__(self, src: Slot):
        self.reads = (src,)

    def bind(self, arena):
        self._logits = self.reads[0].resolve(arena)

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

    The builder is model-agnostic: it knows how to pad, convolve, pool,
    up-convolve and concatenate between arena slots.  A model compiler (e.g.
    :func:`repro.unet.compiled.compile_unet_plan`) makes one primitive call
    per op of its model's op list.
    """

    def __init__(self, input_shape: tuple[int, ...], packed_weights: dict | None = None):
        if len(input_shape) != 4 or min(input_shape) < 1:
            raise ValueError(f"expected a concrete (N, C, H, W) input shape, got {input_shape}")
        self.input_shape = tuple(int(d) for d in input_shape)
        #: the one offset-GEMM scratch (cols + staged output of a band), sized to the largest conv band
        self._scratch = Slot(None, (0,))
        self._steps: list[_Step] = []
        #: ``{layer name: (w_mat, bias)}`` of externally pre-packed GEMM
        #: weights (see :func:`pack_conv_weights`) bound zero-copy instead of
        #: re-packing — this is how N fork workers share one physical copy.
        self._packed_weights = packed_weights or {}

    def reserve(self, shape: tuple[int, ...]) -> Slot:
        """Reserve a float32 buffer of ``shape``; :meth:`finalize` decides where it lives."""
        return Slot(None, tuple(int(d) for d in shape))

    # ------------------------------------------------------------------ #
    # Primitives
    # ------------------------------------------------------------------ #
    def conv2d(self, src: Slot, conv, relu: bool = False, name: str | None = None) -> Slot:
        """Append a convolution of ``src`` by a ``Conv2D`` layer.

        The first convolution to read a buffer decides its zero border, so a
        padding layer reads its source in place (steps recorded earlier bind
        to the interior); only the external input, a buffer whose border is
        already narrower, or a pointwise read of a bordered one is copied.
        Packs the weights into their ``(offset, channel)`` GEMM layout and
        reserves the output activation.  Returns the output slot.

        ``name`` keys the layer into the builder's ``packed_weights`` map:
        when a pre-packed ``(w_mat, bias)`` pair was supplied for it (e.g.
        views into a shared-memory weight arena) the step binds that pair
        directly instead of packing a private copy.
        """
        n, c, h, w = (self.input_shape if src is INPUT else src.view_shape)
        if c != conv.in_channels:
            raise ValueError(f"conv expects {conv.in_channels} channels, got {c}")
        k, p = conv.kernel_size, conv.padding
        oh = conv_output_size(h, k, p)
        ow = conv_output_size(w, k, p)

        pointwise = k == 1  # its cols are rows of the source itself, which a border would break up
        if src is not INPUT and src.root.pad is None:
            src.root.pad = p
        if src is INPUT or src.root.pad < p or (pointwise and src.root.pad):
            copied = self.reserve((n, c, h, w))
            copied.pad = p
            self._steps.append(_PadCopyStep(src, copied))
            src = copied

        f = conv.out_channels
        w_mat, bias = self._weights(conv, name, (f, k * k * c))
        kc = k * k * c
        self._grow_scratch(((0 if pointwise else kc) + f) * conv_band_rows(kc, f, oh, ow) * ow)
        out = self.reserve((n, f, oh, ow))
        self._steps.append(_ConvStep(src, self._scratch, out, w_mat, bias, k, p, relu))
        return out

    def upconv(self, src: Slot, upconv, name: str | None = None) -> Slot:
        """Append an ``UpConv2D`` of ``src`` at ``src``'s resolution; returns its fresh output activation.

        No up-sampled or edge-padded buffer exists: the step gathers the four
        clamped taps of one band of ``src`` into the scratch and writes each
        output phase's pixels from one GEMM against its block of the ``(F, 9C)``
        phase pack (:func:`pack_conv_weights`; ``name`` as for :meth:`conv2d`).
        """
        n, c, h, w = src.view_shape
        conv = upconv.conv
        if c != conv.in_channels:
            raise ValueError(f"up-conv expects {conv.in_channels} channels, got {c}")
        f = conv.out_channels
        w_pack, bias = self._weights(upconv, name, (f, 9 * c))
        self._grow_scratch((4 * c + f) * conv_band_rows(4 * c, f, h, w) * w)
        out = self.reserve((n, f, 2 * h, 2 * w))
        self._steps.append(_UpConvStep(src, self._scratch, out, w_pack, bias))
        return out

    def _weights(self, layer, name: str | None, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray | None]:
        """``layer``'s pre-packed ``(w_mat, bias)`` under ``name`` (checked against ``shape``), else a fresh pack."""
        packed = self._packed_weights.get(name) if name is not None else None
        if packed is None:
            return pack_conv_weights(layer)
        w_mat, bias = packed
        if w_mat.shape != shape:
            raise ValueError(f"pre-packed weights for {name!r} have shape {w_mat.shape}, expected {shape}")
        if (bias is None) != (not _conv_of(layer).use_bias):
            raise ValueError(f"pre-packed bias for {name!r} does not match use_bias")
        return w_mat, bias

    def _grow_scratch(self, floats: int) -> None:
        self._scratch.shape = (max(self._scratch.shape[0], floats),)

    def maxpool(self, src: Slot, pool: int) -> Slot:
        n, c, h, w = src.view_shape
        if h % pool or w % pool:
            raise ValueError(f"spatial size ({h}, {w}) not divisible by pool size {pool}")
        out = self.reserve((n, c, h // pool, w // pool))
        self._steps.append(_MaxPoolStep(src, out, pool))
        return out

    def concat(self, a: Slot, b: Slot) -> Slot:
        """Channel concatenation ``[a ‖ b]`` with no step: the sources become channel slices of one new buffer.

        ``a`` and ``b`` must be whole buffers whose border no convolution has
        decided yet.  They are re-pointed in place at the merged buffer, so the
        steps already recorded as writing or reading them bind to their slice
        of it.  Returns the merged slot.
        """
        for src in (a, b):
            if src is INPUT or src.root is not src or src.pad is not None:
                raise ValueError("concat sources must be whole buffers no convolution has read yet")
        (n, ca, h, w), cb = a.shape, b.shape[1]
        if b.shape != (n, cb, h, w):
            raise ValueError(f"cannot concat shapes {a.shape} and {b.shape}")
        merged = self.reserve((n, ca + cb, h, w))
        for src, view in ((a, merged.slice(0, ca)), (b, merged.slice(ca, ca + cb))):
            src.shape, src.channels, src.root = view.shape, view.channels, merged
        return merged

    def softmax_output(self, src: Slot) -> None:
        """Terminal step: channel softmax returned as a fresh tensor."""
        self._steps.append(_SoftmaxStep(src))
        self._output_shape = src.view_shape

    # ------------------------------------------------------------------ #
    def finalize(self) -> CompiledPlan:
        """Pack the buffers by liveness, allocate the arena (one ``np.zeros``) and bind every step.

        A buffer is live from the first to the last step that touches it, both
        included, so a step's source and destination never share bytes.
        Largest first, each buffer takes the lowest offset free of every buffer
        live at a common step; the scratch follows them.  No step writes a
        border: a buffer that has its bytes to itself keeps the zeros of the
        allocation, one that shares them has its ring re-zeroed right before
        its first writer.  Every other byte is overwritten on each call.
        """
        if not self._steps or not isinstance(self._steps[-1], _SoftmaxStep):
            raise RuntimeError("finalize requires a terminal softmax_output step")
        live: dict[Slot, list[int]] = {}
        for index, step in enumerate(self._steps):
            for slot in step.reads + step.writes:
                if slot is not INPUT:
                    live.setdefault(slot.root, [index, index])[1] = index
        size = {root: -(-math.prod(root.storage_shape) // _ALIGN) * _ALIGN for root in live}
        placed: list[Slot] = []  # by offset
        for root in sorted(live, key=size.get, reverse=True):
            first, last = live[root]
            root.offset = 0
            for other in placed:
                if other.offset >= root.offset + size[root]:
                    break
                if live[other][0] <= last and first <= live[other][1]:
                    root.offset = max(root.offset, other.offset + size[other])
            placed.append(root)
            placed.sort(key=lambda slot: slot.offset)
        self._scratch.offset = max(root.offset + size[root] for root in placed)
        arena = np.zeros(self._scratch.offset + self._scratch.shape[0], dtype=np.float32)

        rings = {live[root][0]: root for root in placed if root.pad and any(
            other is not root and other.offset < root.offset + size[root] and root.offset < other.offset + size[other]
            for other in placed)}
        steps: list[_Step] = []
        for index, step in enumerate(self._steps):
            if index in rings:
                steps.append(_BorderStep(rings[index]))
            steps.append(step)
        for index, step in enumerate(steps):
            try:
                step.bind(arena)
            except ValueError as exc:
                raise ValueError(f"plan step {index} ({type(step).__name__}): {exc}") from exc
        return CompiledPlan(self.input_shape, self._output_shape, arena, steps)


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
