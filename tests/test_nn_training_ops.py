"""The training-mode layer ops PR 17 rewrote on the four-view primitives, held to the bodies they replaced.

Training forward now *is* eval forward (``np.maximum`` / ``max_of_views``) plus the index
backward needs, so the only inputs on which the rewritten ops may differ from their oracles
in ``reference_kernels`` are NaNs (``np.maximum`` propagates them, the old mask-and-``where``
zeroed them) — excluded here, as they are from training.  Inputs come from a handful of small
integers *including −0.0*, so tied windows and signed zeros are the norm, not the exception.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from helpers import cache_nbytes
from reference_kernels import ReferenceArgmaxPool2D, ReferenceReLU, reference_pad_input

from repro.nn import CategoricalCrossEntropy, Conv2D, MaxPool2D, ReLU, UpConv2D, convgemm
from repro.nn.layers import Dropout
from repro.unet import UNet, UNetConfig

_VALUES = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])


@st.composite
def pooled_case(draw):
    """``(k, x, grad)``: float32 ``(N, C, k·a, k·b)`` input and the matching pooled-shape gradient."""
    k = draw(st.sampled_from([1, 2, 3]))
    n, c, a, b = (draw(st.integers(1, 3)) for _ in range(4))
    x = draw(hnp.arrays(np.float32, (n, c, k * a, k * b), elements=_VALUES))
    grad = draw(hnp.arrays(np.float32, (n, c, a, b), elements=_VALUES))
    return k, x, grad


def _same_step(layer, oracle, cache_attr, x, grad):
    """Forward, backward, cache dtype and pinned bytes of ``layer`` equal ``oracle``'s exactly."""
    out, expected = layer.forward(x), oracle.forward(x)
    assert out.dtype == expected.dtype == np.float32
    np.testing.assert_array_equal(out, expected)
    assert cache_nbytes(layer) == cache_nbytes(oracle) > 0
    cached, reference = getattr(layer, cache_attr), getattr(oracle, cache_attr)
    assert cached.dtype == reference.dtype
    np.testing.assert_array_equal(cached, reference)
    dx, expected_dx = layer.backward(grad), oracle.backward(grad)
    assert dx.dtype == expected_dx.dtype == np.float32
    np.testing.assert_array_equal(dx, expected_dx)


@settings(max_examples=50, deadline=None)
@given(pooled_case())
def test_relu_training_step_equals_mask_and_where(case):
    _k, x, _grad = case
    grad = np.flip(x, axis=-1).copy()  # input-shaped, same value set
    _same_step(ReLU(), ReferenceReLU(), "_mask", x, grad)


@settings(max_examples=50, deadline=None)
@given(pooled_case())
def test_max_pool_training_step_equals_argmax_routing(case):
    k, x, grad = case
    _same_step(MaxPool2D(k), ReferenceArgmaxPool2D(k), "_cache", x, grad)


@settings(max_examples=50, deadline=None)
@given(pooled_case(), st.integers(0, 3))
def test_pad_input_equals_np_pad(case, pad):
    _k, x, _grad = case
    padded, expected = convgemm.pad_input(x, pad), reference_pad_input(x, pad)
    assert padded.dtype == expected.dtype and padded.flags.c_contiguous
    np.testing.assert_array_equal(padded, expected)
    assert (padded is x) == (pad == 0)


def _flat_gradient(model: UNet, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    for index, drop in enumerate(m for m in model.modules() if isinstance(m, Dropout)):
        drop._rng = np.random.default_rng([7, 0, 0, index])
    loss = CategoricalCrossEntropy()
    model.train()
    model.zero_grad()
    loss.forward(model.forward(x), y)
    model.backward(loss.backward(), need_input_grad=False)
    return np.concatenate([param.grad.ravel() for param in model.parameters()])


def test_whole_model_gradient_equals_the_oracle_layers():
    """One depth-3 train step: not one gradient value moves when every rewritten op is swapped
    for the body it replaced, and the pooling scratch slot is gone from the shared workspace.
    (The up-convolution's oracle is not exact — it sums 16 taps where the layer sums 9 — and is
    held to the layer by ``test_conv_bands.TestUpConvKernel`` instead.)"""
    rng = np.random.default_rng(0)
    x = rng.random((4, 3, 64, 64), dtype=np.float32)
    y = rng.integers(0, 3, size=(4, 64, 64)).astype(np.uint8)
    config = UNetConfig(depth=3, base_channels=8, dropout=0.1, seed=7)

    convgemm.release_workspace()
    gradient = _flat_gradient(UNet(config), x, y)
    assert "pool" not in convgemm._SCRATCH and set(convgemm._SCRATCH) == {"cols"}

    oracle = UNet(config)
    swaps = {ReLU: ReferenceReLU, MaxPool2D: ReferenceArgmaxPool2D}
    for module in oracle.modules():
        if type(module) in swaps:
            module.__class__ = swaps[type(module)]
    with mock.patch("repro.nn.conv.pad_input", reference_pad_input), \
            mock.patch("repro.nn.convgemm.pad_input", reference_pad_input):
        expected = _flat_gradient(oracle, x, y)
    assert np.any(expected != 0.0)
    assert np.array_equal(gradient, expected)


def test_training_scratch_holds_a_band_or_a_pitched_gradient_never_an_unrolled_input():
    """After one step of the bench model on 4×64², the shared scratch is smaller than the largest conv band plus the
    largest output gradient at its input's row pitch: ``dW`` reads the padded activations in place, so nothing with
    k²·C planes (9.5 MB for the widest 64² layer) was ever allocated."""
    rng = np.random.default_rng(0)
    model = UNet(UNetConfig(depth=3, base_channels=8, dropout=0.1, seed=7))
    convgemm.release_workspace()
    _flat_gradient(model, rng.random((4, 3, 64, 64), dtype=np.float32), rng.integers(0, 3, size=(4, 64, 64)).astype(np.uint8))
    convs = [module for module in model.modules() if isinstance(module, Conv2D) and module._cache is not None]
    pitched = max(4 * xp.shape[0] * conv.out_channels * (xp.shape[2] - conv.kernel_size + 1) * xp.shape[3]
                  for conv in convs for xp in [conv._cache])
    # an up-convolution's backward pitches its four stacked phase gradients to its edge-padded input's rows
    pitched = max([pitched] + [4 * x.shape[0] * 4 * up.conv.out_channels * x.shape[2] * (x.shape[3] + 1)
                               for up in model.modules() if isinstance(up, UpConv2D) for x in [up._cache]])
    unrolled = max(4 * xp.shape[0] * conv.kernel_size**2 * xp.shape[1] * 64 * 64 for conv in convs for xp in [conv._cache])
    assert 0 < convgemm.workspace_nbytes() < convgemm.BAND_BYTES + pitched < unrolled / 10
