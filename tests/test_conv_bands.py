"""Properties of the row-banded conv and up-conv kernels and the four-view pooling the plans and layers share.

Plans and layer forwards split every convolution into the same row bands
(``conv_band_rows``), so their floats agree bit for bit *by construction*; the
tests shrink the band budget until small tensors run the multi-band and
ragged-last-band paths, and hold the whole-image GEMM the kernel replaced
(``reference_kernels``) as a tolerance oracle — last-bit equality to it is not
a property BLAS gives.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import cache_nbytes
from reference_kernels import (
    ReferenceMaxPool2D,
    ReferenceUpConv2D,
    col2im,
    im2col,
    reference_conv_forward,
    reference_max_pool,
    reference_upsample_adjoint,
    reference_upsample_pad,
)

from repro.nn import Conv2D, MaxPool2D, UpConv2D
from repro.nn import convgemm as kernels
from repro.nn.layers import max_of_views, pool_views
from repro.nn.plan import INPUT, PlanBuilder, _PadCopyStep
from repro.unet import UNet, UNetConfig, compile_unet_plan

SMALL_BUDGETS = [2 * 1024, 16 * 1024]  # every conv multi-band; a mix of whole-image, multi-band and ragged bands


def band_budget(nbytes: int):
    return mock.patch.object(kernels, "BAND_BYTES", nbytes)


def laid_out(rng: np.random.Generator, shape: tuple[int, ...], layout: str) -> np.ndarray:
    """A float32 ``(N, C, H, W)`` batch: C-contiguous, an NHWC transpose, or every other pixel of a larger one."""
    n, c, h, w = shape
    if layout == "transposed":
        return rng.random((n, h, w, c), dtype=np.float32).transpose(0, 3, 1, 2)
    if layout == "strided":
        return rng.random((n, c, 2 * h, 2 * w), dtype=np.float32)[:, :, ::2, ::2]
    return rng.random(shape, dtype=np.float32)


@st.composite
def unet_cases(draw):
    """(model, input batch) over depth 1-3, base width 4/6/8, N 1-3, non-square sizes, three memory layouts."""
    depth = draw(st.integers(1, 3))
    step = 2**depth
    shape = (draw(st.integers(1, 3)), 3, step * draw(st.integers(1, 40 // step)), step * draw(st.integers(1, 40 // step)))
    seed = draw(st.integers(0, 2**16))
    model = UNet(UNetConfig(depth=depth, base_channels=draw(st.sampled_from([4, 6, 8])), dropout=0.0, seed=seed))
    layout = draw(st.sampled_from(["contiguous", "transposed", "strided"]))
    return model, laid_out(np.random.default_rng(seed), shape, layout)


def arena_layout(plan) -> tuple[dict, tuple[int, int]]:
    """``{buffer: (offset, floats, first step, last step)}`` and the scratch's ``(offset, floats)``, recomputed from
    the bound steps' read/write sets — not from anything ``finalize`` kept."""
    buffers: dict = {}
    scratch = None
    for index, step in enumerate(plan._steps):
        scratch = getattr(step, "scratch", scratch)
        for slot in step.reads + step.writes:
            if slot is not INPUT:
                root = slot.root
                first = buffers.get(root, (0, 0, index))[2]
                buffers[root] = (root.offset, int(np.prod(root.storage_shape)), first, index)
    return buffers, (scratch.offset, scratch.shape[0])


class TestCompiledPlanEqualsLayerWalk:
    @pytest.mark.parametrize("budget", SMALL_BUDGETS)
    @settings(max_examples=25, deadline=None)
    @given(case=unet_cases())
    def test_bit_identity_properties(self, budget, case):
        model, x = case
        with band_budget(budget):
            plan = compile_unet_plan(model, x.shape)
            probs = plan.run(x)
            np.testing.assert_array_equal(probs, model.predict_proba(x))
            into = np.full(plan.output_shape, np.nan, dtype=np.float32)
            assert plan.run(x, out=into) is into
            np.testing.assert_array_equal(into, probs)
            alone = compile_unet_plan(model, (1,) + x.shape[1:])
            for i in range(x.shape[0]):
                np.testing.assert_array_equal(alone.run(x[i : i + 1]), probs[i : i + 1])

    @pytest.mark.parametrize("budget", SMALL_BUDGETS)
    @settings(max_examples=25, deadline=None)
    @given(case=unet_cases())
    def test_buffers_live_at_a_common_step_never_share_bytes(self, budget, case):
        model, x = case
        with band_budget(budget):
            plan = compile_unet_plan(model, x.shape)
        buffers, (scratch_offset, scratch_size) = arena_layout(plan)
        placed = sorted(buffers.values())
        assert scratch_size > 0 and scratch_offset + scratch_size == plan._arena.size
        for i, (offset, size, first, last) in enumerate(placed):
            assert 0 <= offset and offset + size <= scratch_offset
            for other_offset, other_size, other_first, other_last in placed[i + 1 :]:
                if other_first <= last and first <= other_last:
                    assert offset + size <= other_offset, "two buffers live at one step overlap"
        # the plan reads the input through one copy and nothing else is copied next to itself
        assert sum(isinstance(step, _PadCopyStep) for step in plan._steps) == 1

    @pytest.mark.parametrize("budget", SMALL_BUDGETS)
    @settings(max_examples=25, deadline=None)
    @given(case=unet_cases())
    def test_a_used_plan_equals_a_fresh_one(self, budget, case):
        """A border ring dirtied by the buffer's co-tenant, or any byte carried over between runs, shows here."""
        model, x2 = case
        x1 = 100.0 * np.random.default_rng(1).standard_normal(x2.shape).astype(np.float32) + 50.0
        with band_budget(budget):
            used, fresh = compile_unet_plan(model, x2.shape), compile_unet_plan(model, x2.shape)
            expected = fresh.run(x2)
            used.run(x1)
            np.testing.assert_array_equal(used.run(x2), expected)
            used.run(x1, out=np.empty(used.output_shape, dtype=np.float32))
            into = np.full(used.output_shape, np.nan, dtype=np.float32)
            np.testing.assert_array_equal(used.run(x2, out=into), expected)

    @pytest.mark.parametrize("budget", SMALL_BUDGETS + [kernels.BAND_BYTES])
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(case=unet_cases())
    def test_whole_image_gemm_oracle(self, budget, case):
        model, x = case
        with band_budget(budget):
            probs = compile_unet_plan(model, x.shape).run(x)
        with mock.patch("repro.nn.conv.conv_forward_offset", reference_conv_forward):
            oracle = model.predict_proba(x)
        # 150 random cases of this strategy differed by up to 2.8e-6 in probability (138 of them by something),
        # so the issue's 1e-6 is not attainable; 4e-6 is that maximum plus headroom
        np.testing.assert_allclose(probs, oracle, rtol=0, atol=4e-6)
        top_two = np.sort(oracle, axis=1)[:, -2:]
        decided = top_two[:, 1] - top_two[:, 0] > 8e-6  # a tie within the tolerance may break either way
        np.testing.assert_array_equal(probs.argmax(axis=1)[decided], oracle.argmax(axis=1)[decided])


class TestConvKernel:
    @pytest.mark.parametrize("budget", SMALL_BUDGETS)
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(c=st.integers(1, 5), f=st.integers(1, 5), k=st.integers(1, 3),
           pad=st.integers(0, 1), n=st.integers(1, 3), h=st.integers(3, 17), w=st.integers(3, 17),
           layout=st.sampled_from(["contiguous", "transposed", "strided"]), seed=st.integers(0, 2**16))
    def test_layer_forward_matches_whole_image_oracle(self, budget, c, f, k, pad, n, h, w, layout, seed):
        conv = Conv2D(c, f, kernel_size=k, padding=pad, seed=seed)
        conv.bias.value[...] = np.linspace(-1.0, 1.0, f, dtype=np.float32)
        conv.eval()
        x = laid_out(np.random.default_rng(seed), (n, c, h, w), layout)
        with band_budget(budget):
            out = conv.forward(x)
        with mock.patch("repro.nn.conv.conv_forward_offset", reference_conv_forward):
            oracle = conv.forward(x)
        np.testing.assert_allclose(out, oracle, rtol=0, atol=1e-5)

    @pytest.mark.parametrize("budget", SMALL_BUDGETS)
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(wide_first=st.booleans(), n=st.integers(1, 2), h=st.integers(6, 14),
           w=st.integers(6, 14), seed=st.integers(0, 2**16))
    def test_plan_convs_of_any_padding_match_the_layers(self, budget, wide_first, n, h, w, seed):
        """Padding 0, padding 2, an even kernel, a pointwise read, and one buffer read by convs of different padding."""
        def conv(c, f, k, p, offset):
            layer = Conv2D(c, f, kernel_size=k, padding=p, seed=seed + offset).eval()
            layer.bias.value[...] = np.linspace(-0.5, 0.5, f, dtype=np.float32)
            return layer

        stem, narrow, wide = conv(3, 4, 3, 1, 0), conv(4, 4, 3, 1, 1), conv(4, 4, 5, 2, 2)
        valid, even, head = conv(8, 5, 3, 0, 3), conv(5, 4, 2, 2, 4), conv(4, 3, 1, 0, 5)
        x = np.random.default_rng(seed).standard_normal((n, 3, h, w)).astype(np.float32)

        def eager():
            a = np.maximum(stem.forward(x), np.float32(0.0))
            merged = np.concatenate([narrow.forward(a), wide.forward(a)], axis=1)
            logits = head.forward(even.forward(np.maximum(valid.forward(merged), np.float32(0.0))))
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            return e / e.sum(axis=1, keepdims=True)

        with band_budget(budget):
            b = PlanBuilder(x.shape)
            a = b.conv2d(INPUT, stem, relu=True)
            # whichever reads ``a`` first decides its border: the narrower second reader fits inside the wider
            # border, the wider second reader is the conflicting consumer that still gets a pad copy
            outs = {layer: b.conv2d(a, layer) for layer in ((wide, narrow) if wide_first else (narrow, wide))}
            merged = b.concat(outs[narrow], outs[wide])
            g = b.conv2d(merged, valid, relu=True)
            b.softmax_output(b.conv2d(b.conv2d(g, even), head))
            plan = b.finalize()
            assert (a.pad, merged.pad, g.pad) == (2 if wide_first else 1, 0, 2)
            assert sum(isinstance(step, _PadCopyStep) for step in plan._steps) == (1 if wide_first else 2)
            probs = plan.run(x)
            np.testing.assert_array_equal(probs, eager())
        with mock.patch("repro.nn.conv.conv_forward_offset", reference_conv_forward):
            np.testing.assert_allclose(probs, eager(), rtol=0, atol=1e-5)

    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(1, 3), c=st.integers(1, 6), f=st.integers(1, 6), k=st.integers(1, 3), pad=st.integers(0, 1),
           h=st.integers(3, 12), w=st.integers(3, 12), need_input_grad=st.booleans(),
           input_layout=st.sampled_from(["contiguous", "channel_slice", "strided"]),
           grad_layout=st.sampled_from(["contiguous", "transposed", "strided"]), seed=st.integers(0, 2**16))
    def test_backward_matches_the_im2col_oracle(self, n, c, f, k, pad, h, w, need_input_grad, input_layout,
                                                grad_layout, seed):
        """``dW`` from strided views of the padded input, ``dB`` and ``dX`` against the seed's whole-matrix formulas
        in float64 — over batch, channel and kernel sizes, non-square images, a padded input whose planes sit inside
        a wider batch (or are not whole rows at all) and an output gradient that is a view."""
        rng = np.random.default_rng(seed)
        if input_layout == "channel_slice":
            xp = kernels.pad_input(rng.standard_normal((n, c + 2, h, w)).astype(np.float32), pad)[:, 1:-1]
        else:
            xp = kernels.pad_input(laid_out(rng, (n, c, h, w), input_layout), pad)
            if input_layout == "strided":  # a pad of 0 hands the layer's input through as it came
                xp = laid_out(rng, xp.shape, "strided")
        weight = rng.standard_normal((f, c, k, k)).astype(np.float32)
        grad = laid_out(rng, (n, f, xp.shape[2] - k + 1, xp.shape[3] - k + 1), grad_layout) - np.float32(0.5)
        dx, dw, db = kernels.conv_backward_offset(xp, weight, grad, need_input_grad=need_input_grad, pad=pad)

        cols = im2col(xp.astype(np.float64), k, k)
        grad_mat = grad.astype(np.float64).transpose(0, 2, 3, 1).reshape(-1, f)
        expected = [(dw, (grad_mat.T @ cols).reshape(weight.shape)), (db, grad_mat.sum(axis=0))]
        if need_input_grad:
            padded = col2im(grad_mat @ weight.reshape(f, -1).astype(np.float64), xp.shape, k, k)
            expected.append((dx, padded[:, :, pad:xp.shape[2] - pad, pad:xp.shape[3] - pad]))
        else:
            assert dx is None
        for ours, oracle in expected:
            assert ours.dtype == np.float32 and ours.shape == oracle.shape
            assert float(np.abs(ours - oracle).max()) <= 1e-4 * max(float(np.abs(oracle).max()), 1e-8)

    @pytest.mark.parametrize("kernel", [1, 3])
    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("use_bias", [False, True])
    def test_rows_inside_a_bordered_buffer_are_staged_not_reshaped(self, kernel, relu, use_bias):
        rng = np.random.default_rng(kernel)
        xp = rng.standard_normal((2, 4, 9 + kernel, 10 + kernel)).astype(np.float32)[:, :, : 8 + kernel, : 9 + kernel]
        if kernel == 1:
            xp = np.ascontiguousarray(xp)
        w_mat = rng.standard_normal((3, kernel * kernel * 4)).astype(np.float32)
        bias = rng.standard_normal((3, 1)).astype(np.float32) if use_bias else None
        expected = np.empty((2, 3, 9, 10), dtype=np.float32)
        bordered = np.full((2, 3, 11, 12), np.nan, dtype=np.float32)
        with band_budget(SMALL_BUDGETS[0]):
            scratch = np.empty(kernels.BAND_BYTES, dtype=np.float32)
            direct = kernels.conv_bands(xp, expected, scratch, kernel)
            assert all(np.shares_memory(band[3], expected) and band[4] is band[5] for band in direct)
            kernels.run_conv_bands(direct, w_mat, bias, relu)
            bands = kernels.conv_bands(xp, bordered[:, :, 1:-1, 1:-1], scratch, kernel)
            assert len(bands) > 2
            for _dst, _src, cols2, out2, staged, dest in bands:
                assert np.shares_memory(out2, scratch) and np.shares_memory(staged, out2)
                assert np.shares_memory(dest, bordered) and np.shares_memory(cols2, xp if kernel == 1 else scratch)
            kernels.run_conv_bands(bands, w_mat, bias, relu)
        np.testing.assert_array_equal(bordered[:, :, 1:-1, 1:-1], expected)
        ring = np.ones(bordered.shape, dtype=bool)
        ring[:, :, 1:-1, 1:-1] = False
        assert np.isnan(bordered[ring]).all()

    def test_bind_refuses_a_reshape_that_would_copy(self):
        """``a[img, :, r0:r1].reshape(c, -1)`` copies once the row stride is not the width; a plan bound to that
        copy would read a stale snapshot (pointwise source) or write into a temporary (output) forever."""
        bordered = np.zeros((2, 4, 10, 12), dtype=np.float32)
        with pytest.raises(ValueError, match="pointwise conv source"):
            kernels.conv_bands(bordered[:, :, 1:-1, 1:-1], np.empty((2, 4, 8, 10), dtype=np.float32), None, 1)
        for scratch in (None, np.empty(8, dtype=np.float32)):
            with pytest.raises(ValueError, match="scratch too small"):
                kernels.conv_bands(np.zeros((2, 4, 8, 10), dtype=np.float32), bordered[:, :, 1:-1, 1:-1], scratch, 1)
        b = PlanBuilder((1, 4, 8, 8))
        a = b.conv2d(INPUT, Conv2D(4, 4, kernel_size=3, padding=1))
        b.softmax_output(b.conv2d(a, Conv2D(4, 3, kernel_size=1)))
        a.pad = 1  # what conv2d refuses to do: border a buffer a pointwise conv already reads
        with pytest.raises(ValueError, match=r"plan step \d+ \(_ConvStep\): pointwise conv source"):
            b.finalize()

    def test_partition_is_at_least_one_row_and_within_budget(self):
        for kc, f, out_h, out_w in [(27, 8, 256, 256), (144, 8, 256, 256), (288, 16, 16, 16), (4096, 64, 8, 4096)]:
            rows = kernels.conv_band_rows(kc, f, out_h, out_w)
            assert 1 <= rows <= out_h
            assert rows == 1 or 4 * (kc + f) * rows * out_w <= kernels.BAND_BYTES


class TestUpConvKernel:
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 3), c=st.integers(1, 6), f=st.integers(1, 6), h=st.integers(1, 9), w=st.integers(1, 9),
           budget=st.sampled_from(SMALL_BUDGETS), layout=st.sampled_from(["contiguous", "transposed", "strided"]),
           seed=st.integers(0, 2**16))
    @example(n=1, c=2, f=1, h=4, w=7, budget=2048, layout="contiguous", seed=12836)  # dB sums to 0.004 from terms of ~1
    def test_layer_matches_the_edge_pad_oracle(self, n, c, f, h, w, budget, layout, seed):
        """The phase-wise layer and the up-sample + edge pad + 2×2 conv it replaced, each in eval and in training,
        against that formulation in float64 (im2col over the up-sampled map): forward, ``dW``, ``dB`` and ``dX``.
        A side of 1 puts the clamp in every phase; the small budgets run multi-band and ragged last bands.  The
        layer's training forward is its eval forward and pins no more than the edge-padded input's bytes."""
        rng = np.random.default_rng(seed)
        x = laid_out(rng, (n, c, h, w), layout) - np.float32(0.5)
        grad = rng.standard_normal((n, f, 2 * h, 2 * w)).astype(np.float32)
        bias = rng.standard_normal(f).astype(np.float32)
        layer, oracle = UpConv2D(c, f, seed=seed), ReferenceUpConv2D(c, f, seed=seed)
        weight = layer.conv.weight.value.astype(np.float64)

        padded = reference_upsample_pad(x.astype(np.float64))
        cols = im2col(padded, 2, 2)
        grad_mat = grad.astype(np.float64).transpose(0, 2, 3, 1).reshape(-1, f)
        expected = {
            "out": (cols @ weight.reshape(f, -1).T + bias).reshape(n, 2 * h, 2 * w, f).transpose(0, 3, 1, 2),
            "dW": (grad_mat.T @ cols).reshape(weight.shape),
            "dB": grad_mat.sum(axis=0),
            "dX": reference_upsample_adjoint(col2im(grad_mat @ weight.reshape(f, -1), padded.shape, 2, 2)),
        }
        bound = x.nbytes * (h + 1) * (w + 1) / (h * w)
        for module in (layer, oracle):
            module.conv.bias.value[...] = bias
            with band_budget(budget):
                evaluated = module.eval().forward(x)
                got = {"out": module.train().forward(x)}
                np.testing.assert_array_equal(evaluated, got["out"])
                assert (cache_nbytes(module) <= bound) == (module is layer)
                got["dX"] = module.backward(grad)
            got["dW"], got["dB"] = module.conv.weight.grad, module.conv.bias.grad
            for key, oracle_value in expected.items():
                assert got[key].dtype == np.float32 and got[key].shape == oracle_value.shape, key
                # A float32 sum is accurate to its terms' size, not its result's: one filter's dB can cancel to ~0.
                size = np.abs(grad_mat).sum(axis=0) if key == "dB" else np.abs(oracle_value)
                scale = max(float(size.max()), 1e-8)
                assert float(np.abs(got[key] - oracle_value).max()) <= 1e-4 * scale, key

    def test_phases_write_their_pixels_and_nothing_else(self):
        """Into a channel slice of a bordered buffer, as a plan binds it: every band's four phases fill the
        interior exactly as the layer does, the ring and the other channels stay untouched."""
        rng = np.random.default_rng(1)
        layer = UpConv2D(8, 4, seed=5).eval()
        x = rng.standard_normal((2, 8, 7, 5)).astype(np.float32)
        bordered = np.full((2, 6, 16, 12), np.nan, dtype=np.float32)
        with band_budget(SMALL_BUDGETS[0]):
            expected = layer.forward(x)
            scratch = np.empty(kernels.BAND_BYTES, dtype=np.float32)
            bands = kernels.upconv_bands(x, bordered[:, :4, 1:-1, 1:-1], scratch)
            assert len(bands) == 2 * 4  # rows 2, 2, 2 and a ragged 1
            kernels.run_upconv_bands(bands, kernels.upconv_weights(layer.conv.weight.value),
                                     layer.conv.bias.value[:, None])
        np.testing.assert_array_equal(bordered[:, :4, 1:-1, 1:-1], expected)
        untouched = np.ones(bordered.shape, dtype=bool)
        untouched[:, :4, 1:-1, 1:-1] = False
        assert np.isnan(bordered[untouched]).all()


class TestArena:
    def test_benchmark_plan_arena_holds_one_band_of_scratch(self):
        """The scene benchmark's plan: 154,957,056 bytes with a whole-image cols scratch, 79,680,768 with one slot
        per buffer and a padded twin per conv input, 19,322,496 packed by liveness with an up-sampled, edge-padded
        ``(N, C, 2h+1, 2w+1)`` map per up-convolution, under 16.5 MB without them (the live set's peak plus a band).
        Every buffer is at one of the U-Net's level resolutions."""
        model = UNet(UNetConfig(depth=2, base_channels=8, dropout=0.0, seed=0))
        plan = compile_unet_plan(model, (2, 3, 256, 256))
        assert plan.arena_nbytes <= 16_500_000
        buffers, (_, scratch_size) = arena_layout(plan)
        assert 0 < 4 * scratch_size <= kernels.BAND_BYTES
        assert plan.arena_nbytes < 0.5 * 4 * sum(size for _, size, _, _ in buffers.values())  # bytes are shared
        assert {root.shape[2:] for root in buffers} <= {(256 >> e, 256 >> e) for e in range(3)}

    def test_shared_scratch_is_at_most_one_band(self):
        """cols + staged output rows of the largest band, pointwise (no cols) or not."""
        builder = PlanBuilder((2, 16, 256, 256))
        for width, kernel in ((8, 3), (16, 3), (16, 1)):
            builder.conv2d(INPUT, Conv2D(16, width, kernel_size=kernel))
        assert 0 < 4 * builder._scratch.shape[0] <= kernels.BAND_BYTES


class TestPooling:
    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 3), n=st.integers(1, 3), c=st.integers(1, 4), oh=st.integers(1, 6), ow=st.integers(1, 6),
           layout=st.sampled_from(["contiguous", "transposed", "strided"]), seed=st.integers(0, 2**16))
    def test_four_view_maximum_equals_the_6d_reduce(self, k, n, c, oh, ow, layout, seed):
        x = laid_out(np.random.default_rng(seed), (n, c, k * oh, k * ow), layout)
        x[x < 0.3] = 0.0  # post-ReLU activations: many exact ties
        expected = reference_max_pool(x, k)
        out = np.empty((n, c, oh, ow), dtype=np.float32)
        assert max_of_views(pool_views(x, k), out) is out
        np.testing.assert_array_equal(out, expected)
        for pool in (MaxPool2D, ReferenceMaxPool2D):
            np.testing.assert_array_equal(pool(k).eval().forward(x), expected)
        np.testing.assert_array_equal(ReferenceMaxPool2D(k).forward(x), expected)  # training forward
