"""Tests for repro.unet (model, inference) and the in-process face of the one trainer."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import BatchLoader
from repro.distributed import ElasticTrainer
from repro.nn import Conv2D, Dropout, MaxPool2D, UpConv2D
from repro.unet import (
    SceneClassifier,
    InferenceConfig,
    UNet,
    UNetConfig,
    tiny_unet_config,
)
from repro.unet.compiled import iter_plan_conv_layers

from reference_kernels import ReferenceUNet

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def tiny_model():
    return UNet(tiny_unet_config(seed=1))


class TestUNetModel:
    def test_output_shape(self, tiny_model):
        x = np.random.default_rng(0).random((2, 3, 32, 32)).astype(np.float32)
        logits = tiny_model.forward(x)
        assert logits.shape == (2, 3, 32, 32)

    def test_paper_configuration_matches_description(self):
        """Paper: 28 convolutional layers, 5 down-sampling steps, 256x256 inputs."""
        model = UNet(UNetConfig(depth=5, base_channels=64, dropout=0.2))
        assert sum(isinstance(m, Conv2D) for m in model.modules()) == 28
        assert sum(isinstance(op.layer, MaxPool2D) for op in model.ops) == 5
        assert sum(isinstance(op.layer, UpConv2D) for op in model.ops) == 5
        assert model.config.min_input_size() == 32  # 256 is a valid input size
        assert 256 % model.config.min_input_size() == 0

    def test_predict_returns_valid_classes(self, tiny_model):
        x = np.random.default_rng(1).random((1, 3, 32, 32)).astype(np.float32)
        pred = tiny_model.predict(x)
        assert pred.shape == (1, 32, 32)
        assert set(np.unique(pred)).issubset({0, 1, 2})

    def test_predict_proba_sums_to_one(self, tiny_model):
        x = np.random.default_rng(2).random((1, 3, 32, 32)).astype(np.float32)
        probs = tiny_model.predict_proba(x)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-5)

    def test_predict_restores_training_mode(self, tiny_model):
        tiny_model.train()
        tiny_model.predict(np.zeros((1, 3, 32, 32), dtype=np.float32))
        assert tiny_model.training

    def test_rejects_indivisible_input(self, tiny_model):
        with pytest.raises(ValueError):
            tiny_model.forward(np.zeros((1, 3, 30, 30), dtype=np.float32))

    def test_rejects_wrong_channels(self, tiny_model):
        with pytest.raises(ValueError):
            tiny_model.forward(np.zeros((1, 4, 32, 32), dtype=np.float32))

    def test_backward_shape(self, tiny_model):
        x = np.random.default_rng(3).random((1, 3, 32, 32)).astype(np.float32)
        logits = tiny_model.forward(x)
        grad = tiny_model.backward(np.ones_like(logits))
        assert grad.shape == x.shape

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            UNet(tiny_unet_config()).backward(np.zeros((1, 3, 32, 32), dtype=np.float32))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            UNetConfig(depth=0)
        with pytest.raises(ValueError):
            UNetConfig(base_channels=0)
        with pytest.raises(ValueError):
            UNetConfig(dropout=1.5)

    def test_deterministic_construction(self):
        a, b = UNet(UNetConfig(seed=5, depth=2, base_channels=4)), UNet(UNetConfig(seed=5, depth=2, base_channels=4))
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa.value, pb.value)


class TestOpList:
    """The graph is one op list; the block classes and hand walk it replaced are ``ReferenceUNet``."""

    def test_plan_layer_names_are_state_dict_paths(self):
        model = UNet(UNetConfig(depth=3, base_channels=2, dropout=0.1))
        keys = model.state_dict()
        named = list(iter_plan_conv_layers(model))
        assert len(named) == 3 * 2 + 2 + 3 * 3 + 1  # encoder convs, bottleneck, up-conv + convs per decoder, head
        for name, layer in named:
            for key in layer.state_dict():
                assert f"{name}.{key}" in keys

    @settings(max_examples=25, deadline=None)
    @given(depth=st.integers(1, 4), base=st.integers(1, 6), dropout=st.sampled_from([0.0, 0.2]),
           in_channels=st.integers(1, 4), num_classes=st.integers(2, 4), batch=st.integers(1, 3),
           scale=st.integers(1, 2), seed=st.integers(0, 2**16))
    def test_matches_the_block_walk_bit_for_bit(self, depth, base, dropout, in_channels, num_classes, batch,
                                                scale, seed):
        config = UNetConfig(in_channels=in_channels, num_classes=num_classes, depth=depth,
                            base_channels=base, dropout=dropout, seed=seed)
        model, oracle = UNet(config), ReferenceUNet(config)
        ours, theirs = model.state_dict(), oracle.state_dict()
        assert list(ours) == list(theirs)
        assert all(np.array_equal(ours[key], theirs[key]) for key in ours)
        drops = [[m for m in net.modules() if isinstance(m, Dropout)] for net in (model, oracle)]
        states = [[drop._rng.bit_generator.state for drop in ds] for ds in drops]
        assert states[0] == states[1]  # same seeds in the same modules() order

        rng = np.random.default_rng(seed)
        size = config.min_input_size() * scale
        x = rng.standard_normal((batch, in_channels, size, size)).astype(np.float32)
        grad = rng.standard_normal((batch, num_classes, size, size)).astype(np.float32)
        for ds in drops:
            for index, drop in enumerate(ds):
                drop._rng = np.random.default_rng([seed, 1, 0, index])
        logits = [net.forward(x) for net in (model, oracle)]
        assert np.array_equal(logits[0], logits[1])
        for need_input_grad in (True, False):
            model.zero_grad()
            oracle.zero_grad()
            dx = [net.backward(grad, need_input_grad=need_input_grad) for net in (model, oracle)]
            if need_input_grad:
                assert np.array_equal(dx[0], dx[1])
            else:
                assert dx == [None, None]
            for param, oracle_param in zip(model.parameters(), oracle.parameters()):
                assert np.array_equal(param.grad, oracle_param.grad)
        assert np.array_equal(model.predict_proba(x), oracle.predict_proba(x))


def test_the_unet_topology_is_written_once():
    """Only ``unet/model.py`` spells out the encoder–bottleneck–decoder graph: nothing else
    under ``src/repro`` reaches blocks by attribute or builds a block name."""
    root = SRC / "repro"
    pattern = r"\.(encoders|decoders|bottleneck)\b|f[\"'](enc|dec)\{"
    spelled = {
        path.relative_to(root).as_posix()
        for path in root.rglob("*.py")
        if re.search(pattern, path.read_text())
    }
    assert spelled == {"unet/model.py"}
    assert not (root / "unet" / "blocks.py").exists()


class TestTrainer:
    """:class:`ElasticTrainer` as constructed by default: no workers, one micro-shard."""

    def test_loss_decreases_on_tiny_problem(self, tiny_split):
        train, _ = tiny_split
        loader = BatchLoader(train.images, train.labels, batch_size=4, seed=0)
        trainer = ElasticTrainer(config=tiny_unet_config(seed=0), learning_rate=3e-3)
        history = trainer.fit(loader, epochs=5)
        assert history.losses[-1] < history.losses[0]
        assert history.total_time > 0
        assert history.mean_throughput > 0

    def test_learns_trivial_mapping(self):
        """A tiny U-Net must learn to map a constant-class image to its class."""
        rng = np.random.default_rng(0)
        images, labels = [], []
        values = {0: 240, 1: 120, 2: 15}
        for cls in (0, 1, 2):
            for _ in range(4):
                noise = rng.integers(-5, 6, size=(16, 16, 3))
                images.append(np.clip(values[cls] + noise, 0, 255).astype(np.uint8))
                labels.append(np.full((16, 16), cls, dtype=np.uint8))
        images, labels = np.stack(images), np.stack(labels)
        loader = BatchLoader(images, labels, batch_size=6, seed=1)
        trainer = ElasticTrainer(config=UNetConfig(depth=2, base_channels=8, dropout=0.0, seed=2), learning_rate=5e-3)
        trainer.fit(loader, epochs=40)
        report = trainer.evaluate(images, labels)
        assert report.accuracy > 0.9

    def test_evaluate_report_structure(self, tiny_split):
        train, test = tiny_split
        trainer = ElasticTrainer(config=tiny_unet_config(seed=3))
        report = trainer.evaluate(test.images, test.labels, class_names=["thick", "thin", "water"])
        assert 0.0 <= report.accuracy <= 1.0
        assert report.confusion.shape == (3, 3)

    def test_fit_rejects_zero_epochs(self, tiny_split):
        train, _ = tiny_split
        loader = BatchLoader(train.images, train.labels, batch_size=4)
        with pytest.raises(ValueError):
            ElasticTrainer(config=tiny_unet_config()).fit(loader, epochs=0)


def predict_tiles(model, tiles, batch_size=8, apply_cloud_filter=False):
    """Class maps of an already-tiled stack, through the stack dispatch ``SceneClassifier``'s scene paths use."""
    config = InferenceConfig(batch_size=batch_size, apply_cloud_filter=apply_cloud_filter)
    with SceneClassifier(model=model, config=config) as classifier:
        return classifier._predict_stack(tiles).argmax(axis=1).astype(np.uint8)


class TestInference:
    def test_predict_tiles_shape(self, tiny_model, tiny_dataset):
        preds = predict_tiles(tiny_model, tiny_dataset.images[:3], batch_size=2)
        assert preds.shape == (3, 32, 32)

    def test_predict_tiles_with_filter(self, tiny_model, tiny_dataset):
        preds = predict_tiles(tiny_model, tiny_dataset.images[:2], apply_cloud_filter=True)
        assert preds.shape == (2, 32, 32)

    def test_predict_tiles_rejects_bad_input(self, tiny_model, tiny_dataset):
        with pytest.raises(ValueError):
            predict_tiles(tiny_model, tiny_dataset.labels)
        with pytest.raises(ValueError):
            predict_tiles(tiny_model, tiny_dataset.images, batch_size=0)

    def test_scene_classifier_full_scene(self, tiny_model, clear_scene):
        classifier = SceneClassifier(
            model=tiny_model, config=InferenceConfig(tile_size=32, apply_cloud_filter=False, batch_size=4)
        )
        class_map = classifier.classify_scene(clear_scene.rgb)
        assert class_map.shape == clear_scene.class_map.shape
        assert set(np.unique(class_map)).issubset({0, 1, 2})

    def test_scene_classifier_rejects_bad_scene(self, tiny_model):
        classifier = SceneClassifier(model=tiny_model)
        with pytest.raises(ValueError):
            classifier.classify_scene(np.zeros((32, 32), dtype=np.uint8))

    def test_trained_classifier_beats_chance_on_scene(self, clear_scene, tiny_split):
        from repro.metrics import accuracy_score

        train, _ = tiny_split
        loader = BatchLoader(train.images, train.labels, batch_size=4, seed=0, augment=True)
        trainer = ElasticTrainer(config=UNetConfig(depth=2, base_channels=8, dropout=0.0, seed=4), learning_rate=3e-3)
        trainer.fit(loader, epochs=12)
        classifier = SceneClassifier(
            model=trainer.master, config=InferenceConfig(tile_size=32, apply_cloud_filter=False)
        )
        prediction = classifier.classify_scene(clear_scene.rgb)
        assert accuracy_score(clear_scene.class_map, prediction) > 0.6
