"""Tests for repro.nn layers: gradient checks and behavioural properties."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    Concat,
    Conv2D,
    Dropout,
    MaxPool2D,
    ReLU,
    UpConv2D,
    conv_output_size,
)

from reference_kernels import ReferenceConv2D, ReferenceMaxPool2D, Subsampled, check_layer_gradients, col2im, im2col


class TestGradientChecks:
    """Analytic backward passes must match central finite differences."""

    def test_conv2d(self):
        check_layer_gradients(Conv2D(2, 3, kernel_size=3, seed=1), (2, 2, 6, 6))

    def test_conv2d_stride(self):
        check_layer_gradients(Subsampled(Conv2D(1, 2, kernel_size=3, padding=1, seed=2), 2), (1, 1, 7, 7))

    def test_conv2d_1x1(self):
        check_layer_gradients(Conv2D(3, 2, kernel_size=1, padding=0, seed=3), (2, 3, 4, 4))

    def test_relu(self):
        check_layer_gradients(ReLU(), (2, 3, 5, 5))

    def test_maxpool(self):
        check_layer_gradients(MaxPool2D(2), (2, 2, 6, 6))

    def test_upconv(self):
        check_layer_gradients(UpConv2D(2, 1, seed=4), (1, 2, 4, 4))


class TestEngineParity:
    """The offset-GEMM training layers must reproduce the im2col/col2im
    reference layers — outputs and every gradient — across conv geometries.

    The layers do not stride (pooling down-samples the U-Net); the oracle still
    can.  A strided convolution is the dense one read at every ``stride``-th
    pixel, and its backward the dense backward of a gradient that is zero in
    between, so the stride-2 geometries hold the dense layer — ``Subsampled`` —
    to the striding oracle and to finite differences under such sparse gradients."""

    CONFIGS = [
        # (kernel, stride, padding, input_shape)
        (1, 1, 0, (2, 3, 6, 6)),
        (1, 2, 0, (2, 2, 8, 8)),
        (2, 1, 0, (1, 2, 7, 7)),
        (2, 2, 0, (2, 2, 8, 8)),
        (3, 1, 0, (2, 2, 7, 7)),
        (3, 1, "same", (2, 3, 6, 6)),
        (3, 2, 1, (1, 3, 9, 9)),
        (3, 2, "same", (2, 2, 8, 8)),
        # dX leaves the padding out: padding == k-1 (no gradient border), and
        # padding beyond the kernel's reach (cropped after the contraction)
        (2, 1, 1, (1, 2, 6, 6)),
        (1, 1, 1, (2, 2, 5, 5)),
        (3, 1, 3, (1, 2, 5, 5)),
        (3, 2, 2, (1, 2, 7, 7)),
    ]

    @pytest.mark.parametrize("kernel,stride,padding,shape", CONFIGS)
    def test_offset_matches_im2col_reference(self, kernel, stride, padding, shape):
        rng = np.random.default_rng(kernel * 100 + stride * 10 + shape[1])
        conv = Conv2D(shape[1], 4, kernel_size=kernel, padding=padding, seed=11)
        fast = Subsampled(conv, stride)
        ref = ReferenceConv2D(shape[1], 4, kernel_size=kernel, stride=stride, padding=padding, seed=11)
        x = rng.normal(size=shape).astype(np.float32)
        out_fast, out_ref = fast(x), ref(x)
        np.testing.assert_allclose(out_fast, out_ref, atol=1e-5)

        upstream = rng.normal(size=out_fast.shape).astype(np.float32)
        grad_fast, grad_ref = fast.backward(upstream), ref.backward(upstream)
        # Tensor-scale relative error: float32 GEMM-order noise on individual
        # near-zero entries must not mask a genuine mismatch elsewhere.
        for a, b in ((grad_fast, grad_ref),
                     (conv.weight.grad, ref.weight.grad),
                     (conv.bias.grad, ref.bias.grad)):
            scale = max(float(np.abs(b).max()), 1e-8)
            assert float(np.abs(a - b).max()) / scale <= 1e-4

    @pytest.mark.parametrize("kernel,stride,padding,shape", CONFIGS)
    def test_offset_gradcheck(self, kernel, stride, padding, shape):
        layer = Subsampled(Conv2D(shape[1], 3, kernel_size=kernel, padding=padding, seed=2), stride)
        # h=1e-2 keeps the float32 central differences out of cancellation
        # noise across every geometry (the engines themselves agree to 1e-6).
        check_layer_gradients(layer, shape, seed=1, h=1e-2)

    def test_skip_input_grad_still_accumulates_parameter_grads(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 2, 6, 6)).astype(np.float32)
        full = Conv2D(2, 3, seed=5)
        skip = Conv2D(2, 3, seed=5)
        upstream = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        full(x)
        skip(x)
        assert full.backward(upstream, need_input_grad=True) is not None
        assert skip.backward(upstream, need_input_grad=False) is None
        np.testing.assert_allclose(skip.weight.grad, full.weight.grad, atol=1e-6)
        np.testing.assert_allclose(skip.bias.grad, full.bias.grad, atol=1e-6)

    def test_maxpool_engines_agree_without_ties(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        fast, ref = MaxPool2D(2), ReferenceMaxPool2D(2)
        np.testing.assert_array_equal(fast(x), ref(x))
        upstream = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        np.testing.assert_allclose(fast.backward(upstream), ref.backward(upstream), atol=1e-6)

    def test_maxpool_tie_breaking_routes_to_first_maximum(self):
        """Ties send the whole gradient to the first maximum in row-major
        window order (the layer's contract); the seed's mask reference
        split it evenly instead."""
        x = np.array([[[[1.0, 1.0], [0.0, 1.0]]]], dtype=np.float32)
        upstream = np.array([[[[3.0]]]], dtype=np.float32)

        pool = MaxPool2D(2)
        assert pool(x)[0, 0, 0, 0] == 1.0
        grad = pool.backward(upstream)
        np.testing.assert_array_equal(grad[0, 0], [[3.0, 0.0], [0.0, 0.0]])

        legacy = ReferenceMaxPool2D(2)
        legacy(x)
        np.testing.assert_allclose(legacy.backward(upstream)[0, 0],
                                   [[1.0, 1.0], [0.0, 1.0]])


class TestIm2Col:
    def test_output_size(self):
        assert conv_output_size(8, 3, 1) == 8
        assert conv_output_size(8, 2, 0) == 7
        with pytest.raises(ValueError):
            conv_output_size(2, 5, 0)

    def test_im2col_shape(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 6, 6)).astype(np.float32)
        cols = im2col(x, 3, 3, stride=1, pad=1)
        assert cols.shape == (2 * 6 * 6, 3 * 3 * 3)

    def test_col2im_is_adjoint_of_im2col(self):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint property."""
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 2, 5, 5))
        cols = im2col(x, 3, 3, stride=1, pad=1)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * col2im(y, x.shape, 3, 3, stride=1, pad=1)).sum())
        assert np.isclose(lhs, rhs, rtol=1e-10)

    def test_col2im_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            col2im(np.zeros((4, 4)), (1, 1, 5, 5), 3, 3)


class TestConvBehaviour:
    def test_same_padding_preserves_size(self):
        conv = Conv2D(3, 8, kernel_size=3, padding="same")
        out = conv(np.zeros((2, 3, 16, 16), dtype=np.float32))
        assert out.shape == (2, 8, 16, 16)

    def test_identity_kernel(self):
        conv = Conv2D(1, 1, kernel_size=1, padding=0)
        conv.weight.value[...] = 1.0
        x = np.random.default_rng(0).normal(size=(1, 1, 4, 4)).astype(np.float32)
        np.testing.assert_allclose(conv(x), x, rtol=1e-6)

    def test_bias_adds_constant(self):
        conv = Conv2D(1, 1, kernel_size=1, padding=0)
        conv.weight.value[...] = 0.0
        conv.bias.value[...] = 2.5
        out = conv(np.zeros((1, 1, 3, 3), dtype=np.float32))
        assert np.all(out == 2.5)

    def test_rejects_wrong_channel_count(self):
        conv = Conv2D(3, 4)
        with pytest.raises(ValueError):
            conv(np.zeros((1, 2, 8, 8), dtype=np.float32))

    def test_rejects_bad_padding_string(self):
        with pytest.raises(ValueError):
            Conv2D(1, 1, padding="valid-ish")

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            Conv2D(1, 1).backward(np.zeros((1, 1, 3, 3), dtype=np.float32))


class TestSimpleLayers:
    def test_relu_clips_negative(self):
        out = ReLU()(np.array([[-1.0, 2.0]], dtype=np.float32))
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    def test_maxpool_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = MaxPool2D(2)(x)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_rejects_indivisible(self):
        with pytest.raises(ValueError):
            MaxPool2D(2)(np.zeros((1, 1, 5, 5), dtype=np.float32))

    def test_upconv_doubles_spatial_size(self):
        out = UpConv2D(4, 2)(np.zeros((1, 4, 8, 8), dtype=np.float32))
        assert out.shape == (1, 2, 16, 16)

    def test_dropout_identity_in_eval(self):
        layer = Dropout(0.5, seed=0)
        layer.training = False
        x = np.ones((2, 3, 4, 4), dtype=np.float32)
        np.testing.assert_array_equal(layer(x), x)

    def test_dropout_preserves_expectation_in_train(self):
        layer = Dropout(0.3, seed=1)
        x = np.ones((1, 1, 64, 64), dtype=np.float32)
        out = layer(x)
        assert abs(out.mean() - 1.0) < 0.1
        assert (out == 0).any()

    def test_dropout_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)

    def test_dropout_mask_is_float32_single_scale(self):
        layer = Dropout(0.4, seed=2)
        x = np.ones((2, 3, 16, 16), dtype=np.float32)
        out = layer(x)
        assert out.dtype == np.float32
        assert layer._mask.dtype == np.float32
        # Inverted dropout: surviving values are exactly x / keep.
        kept = out[out != 0]
        np.testing.assert_allclose(kept, 1.0 / 0.6, rtol=1e-6)

    def test_dropout_backward_routes_through_mask(self):
        layer = Dropout(0.5, seed=3)
        x = np.ones((1, 1, 32, 32), dtype=np.float32)
        out = layer(x)
        grad = layer.backward(np.ones_like(out))
        np.testing.assert_array_equal(grad == 0, out == 0)

    def test_concat_and_backward_split(self):
        concat = Concat()
        a = np.ones((1, 2, 4, 4), dtype=np.float32)
        b = np.zeros((1, 3, 4, 4), dtype=np.float32)
        merged = concat(a, b)
        assert merged.shape == (1, 5, 4, 4)
        ga, gb = concat.backward(np.ones_like(merged))
        assert ga.shape == a.shape and gb.shape == b.shape

    def test_concat_rejects_mismatched_spatial(self):
        with pytest.raises(ValueError):
            Concat()(np.zeros((1, 2, 4, 4)), np.zeros((1, 2, 8, 8)))
