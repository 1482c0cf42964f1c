"""Tests for repro.nn core: module system, losses, optimizers, serialization."""

from __future__ import annotations

import os

import numpy as np
import pytest

from helpers import num_parameters
from repro.nn import (
    Adam,
    CategoricalCrossEntropy,
    CheckpointError,
    Conv2D,
    Parameter,
    ReLU,
    load_checkpoint,
    load_model_state,
    save_checkpoint,
    save_weights,
    softmax,
)

from reference_kernels import Sequential, numerical_gradient


class TestModuleSystem:
    def test_parameter_registration(self):
        conv = Conv2D(2, 3)
        names = set(conv.named_parameters())
        assert names == {"weight", "bias"}
        assert num_parameters(conv) == 3 * 2 * 3 * 3 + 3

    def test_nested_modules(self):
        model = Sequential(Conv2D(1, 2, seed=0), ReLU(), Conv2D(2, 1, seed=1))
        names = set(model.named_parameters())
        assert "0.weight" in names and "2.bias" in names
        assert len(model) == 3
        assert isinstance(model[1], ReLU)

    def test_train_eval_propagates(self):
        model = Sequential(Conv2D(1, 1), ReLU())
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad(self):
        conv = Conv2D(1, 1)
        conv.weight.grad += 3.0
        conv.zero_grad()
        assert np.all(conv.weight.grad == 0)

    def test_state_dict_round_trip(self):
        a = Sequential(Conv2D(1, 2, seed=0), Conv2D(2, 1, seed=1))
        b = Sequential(Conv2D(1, 2, seed=7), Conv2D(2, 1, seed=9))
        b.load_state_dict(a.state_dict())
        for (ka, pa), (kb, pb) in zip(a.named_parameters().items(), b.named_parameters().items()):
            assert ka == kb
            np.testing.assert_array_equal(pa.value, pb.value)

    def test_load_state_dict_rejects_mismatch(self):
        model = Sequential(Conv2D(1, 1))
        with pytest.raises(KeyError):
            model.load_state_dict({"bogus": np.zeros(1)})

    def test_load_state_dict_rejects_wrong_shape(self):
        model = Sequential(Conv2D(1, 1))
        state = model.state_dict()
        state["0.bias"] = np.zeros((5,))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_sequential_forward_backward(self):
        model = Sequential(Conv2D(1, 2, seed=0), ReLU(), Conv2D(2, 1, seed=1))
        x = np.random.default_rng(0).normal(size=(2, 1, 8, 8)).astype(np.float32)
        out = model(x)
        grad = model.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_parameter_repr_and_props(self):
        p = Parameter(np.zeros((2, 3)))
        assert p.shape == (2, 3) and p.size == 6



class TestSoftmaxAndLoss:
    def test_softmax_normalises(self):
        logits = np.random.default_rng(0).normal(size=(2, 3, 4, 4)).astype(np.float32)
        probs = softmax(logits, axis=1)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-5)
        assert probs.min() >= 0

    def test_softmax_invariant_to_shift(self):
        logits = np.random.default_rng(1).normal(size=(1, 3, 2, 2)).astype(np.float32)
        np.testing.assert_allclose(softmax(logits), softmax(logits + 100.0), atol=1e-5)

    def test_loss_perfect_prediction_is_small(self):
        logits = np.full((1, 3, 2, 2), -20.0, dtype=np.float32)
        targets = np.zeros((1, 2, 2), dtype=np.int64)
        logits[:, 0] = 20.0
        loss = CategoricalCrossEntropy()(logits, targets)
        assert loss < 1e-3

    def test_loss_uniform_prediction_is_log_k(self):
        logits = np.zeros((1, 3, 4, 4), dtype=np.float32)
        targets = np.random.default_rng(0).integers(0, 3, size=(1, 4, 4))
        assert CategoricalCrossEntropy()(logits, targets) == pytest.approx(np.log(3), rel=1e-4)

    def test_loss_accepts_onehot_targets(self):
        logits = np.random.default_rng(2).normal(size=(2, 3, 4, 4)).astype(np.float32)
        targets = np.random.default_rng(3).integers(0, 3, size=(2, 4, 4))
        onehot = np.zeros_like(logits)
        for n in range(2):
            for i in range(4):
                for j in range(4):
                    onehot[n, targets[n, i, j], i, j] = 1.0
        loss_int = CategoricalCrossEntropy()(logits, targets)
        loss_onehot = CategoricalCrossEntropy()(logits, onehot)
        assert loss_int == pytest.approx(loss_onehot, rel=1e-6)

    def test_loss_gradient_matches_numerical(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(1, 3, 3, 3)).astype(np.float64)
        targets = rng.integers(0, 3, size=(1, 3, 3))
        loss_fn = CategoricalCrossEntropy()
        loss_fn(logits.astype(np.float32), targets)
        analytic = loss_fn.backward()

        def f(values):
            return CategoricalCrossEntropy()(values.astype(np.float32), targets)

        numeric = numerical_gradient(f, logits.copy(), h=1e-4)
        # float32 forward passes limit the attainable agreement
        assert np.max(np.abs(analytic - numeric)) < 3e-3

    def test_loss_rejects_bad_targets(self):
        logits = np.zeros((1, 3, 2, 2), dtype=np.float32)
        with pytest.raises(ValueError):
            CategoricalCrossEntropy()(logits, np.zeros((1, 3, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            CategoricalCrossEntropy()(logits, np.full((1, 2, 2), 5, dtype=np.int64))

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            CategoricalCrossEntropy().backward()


class TestOptimizers:
    def _quadratic_param(self):
        return Parameter(np.array([5.0, -3.0], dtype=np.float32))

    def test_adam_descends_quadratic(self):
        p = self._quadratic_param()
        opt = Adam([p], lr=0.2)
        for _ in range(200):
            p.zero_grad()
            p.grad += 2 * p.value
            opt.step()
        assert np.all(np.abs(p.value) < 1e-2)

    def test_optimizer_validation(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=-1.0)

    def test_state_dicts(self):
        p = Parameter(np.zeros(2))
        adam = Adam([p], lr=0.1)
        assert adam.state_dict()["lr"] == 0.1 and adam.state_dict()["t"] == 0
        adam.step()
        assert adam.state_dict()["t"] == 1

    @staticmethod
    def _run_steps(param: Parameter, opt, steps: int) -> None:
        for _ in range(steps):
            param.zero_grad()
            param.grad += 2 * param.value
            opt.step()

    def test_adam_state_dict_round_trip_continues_trajectory(self):
        p1 = Parameter(np.array([4.0, -2.0], dtype=np.float32))
        opt1 = Adam([p1], lr=0.1)
        self._run_steps(p1, opt1, 5)
        state = opt1.state_dict()
        for key in ("t", "m.0", "v.0"):
            assert key in state

        p2 = Parameter(p1.value.copy())
        opt2 = Adam([p2], lr=0.5)
        # A checkpoint from before the hyper-parameters became constants carries them too.
        opt2.load_state_dict({**state, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "weight_decay": 0.0})
        assert opt2._t == 5 and opt2.lr == 0.1
        self._run_steps(p1, opt1, 5)
        self._run_steps(p2, opt2, 5)
        np.testing.assert_allclose(p1.value, p2.value, atol=1e-7)

    def test_load_state_dict_rejects_bad_slots(self):
        p = Parameter(np.zeros(2))
        opt = Adam([p], lr=0.1)
        state = opt.state_dict()
        state.pop("m.0")
        with pytest.raises(KeyError):
            Adam([Parameter(np.zeros(2))], lr=0.1).load_state_dict(state)
        state = opt.state_dict()
        state["m.0"] = np.zeros(5)
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(2))], lr=0.1).load_state_dict(state)


class TestSerialization:
    def test_save_load_round_trip(self, tmp_path):
        model = Sequential(Conv2D(1, 2, seed=0), Conv2D(2, 1, seed=1))
        path = save_weights(model, tmp_path / "model")
        clone = Sequential(Conv2D(1, 2, seed=5), Conv2D(2, 1, seed=6))
        clone.load_state_dict(load_model_state(path))
        for pa, pb in zip(model.parameters(), clone.parameters()):
            np.testing.assert_array_equal(pa.value, pb.value)

    def test_save_appends_npz_suffix(self, tmp_path):
        model = Sequential(Conv2D(1, 1))
        path = save_weights(model, tmp_path / "weights")
        assert path.endswith(".npz")

    def test_load_missing_file_raises(self, tmp_path):
        model = Sequential(Conv2D(1, 1))
        with pytest.raises(FileNotFoundError):
            model.load_state_dict(load_model_state(tmp_path / "nope.npz"))

    @staticmethod
    def _train_steps(model, opt, steps, seed=0):
        rng = np.random.default_rng(seed)
        for _ in range(steps):
            x = rng.normal(size=(2, 1, 8, 8)).astype(np.float32)
            out = model(x)
            opt.zero_grad()
            model.backward(np.ones_like(out))
            opt.step()

    def test_checkpoint_resume_matches_uninterrupted_run(self, tmp_path):
        """Saving and resuming mid-run must continue the exact trajectory —
        including the Adam moments, which plain weight checkpoints lose."""
        model = Sequential(Conv2D(1, 2, seed=0), ReLU(), Conv2D(2, 1, seed=1))
        opt = Adam(model.parameters(), lr=1e-2)
        self._train_steps(model, opt, 4, seed=0)
        path = save_checkpoint(model, opt, tmp_path / "ckpt")

        resumed = Sequential(Conv2D(1, 2, seed=7), ReLU(), Conv2D(2, 1, seed=8))
        resumed_opt = Adam(resumed.parameters(), lr=0.7)
        load_checkpoint(resumed, resumed_opt, path)
        assert resumed_opt._t == opt._t and resumed_opt.lr == opt.lr

        self._train_steps(model, opt, 4, seed=1)
        self._train_steps(resumed, resumed_opt, 4, seed=1)
        for pa, pb in zip(model.parameters(), resumed.parameters()):
            np.testing.assert_allclose(pa.value, pb.value, atol=1e-7)

    def test_load_checkpoint_rejects_weights_only_archive(self, tmp_path):
        model = Sequential(Conv2D(1, 1))
        path = save_weights(model, tmp_path / "weights")
        with pytest.raises(CheckpointError):
            load_checkpoint(model, Adam(model.parameters(), lr=0.1), path)

    def test_load_checkpoint_rejects_truncated_archive(self, tmp_path):
        """A torn write (crash mid-checkpoint) must surface as CheckpointError,
        not leak zipfile/KeyError internals to the resume logic."""
        model = Sequential(Conv2D(1, 2, seed=0))
        opt = Adam(model.parameters(), lr=1e-2)
        path = save_checkpoint(model, opt, tmp_path / "ckpt")
        with open(path, "r+b") as fh:
            fh.truncate(max(1, os.path.getsize(path) // 2))
        with pytest.raises(CheckpointError):
            load_checkpoint(model, opt, path)

    def test_checkpoint_extra_state_roundtrip(self, tmp_path):
        model = Sequential(Conv2D(1, 1, seed=0))
        opt = Adam(model.parameters(), lr=1e-2)
        extra = {"epoch": 3, "cursor": [1, 2], "nested": {"rng": "state"}}
        path = save_checkpoint(model, opt, tmp_path / "ckpt", extra_state=extra)
        assert load_checkpoint(model, opt, path) == extra
        # Archives without extra state load as an empty dict.
        plain = save_checkpoint(model, opt, tmp_path / "plain")
        assert load_checkpoint(model, opt, plain) == {}
