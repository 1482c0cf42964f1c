"""Tests for the overlap-aware batched scene-inference engine."""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_kernels import reference_classify_scene

from repro.backend import available_backends, make_backend
from repro.unet import (
    InferenceConfig,
    SceneClassifier,
    UNet,
    predict_tile_probabilities,
    tiny_unet_config,
)


@pytest.fixture(scope="module")
def engine_model():
    return UNet(tiny_unet_config(seed=9))


def predict_tiles(model, tiles, batch_size=8):
    """Class maps of an already-tiled stack (unfiltered), through the stack dispatch ``SceneClassifier``'s scene paths use."""
    config = InferenceConfig(batch_size=batch_size, apply_cloud_filter=False)
    with SceneClassifier(model=model, config=config) as classifier:
        return classifier._predict_stack(tiles).argmax(axis=1).astype(np.uint8)


class _RowSliceable:
    """A scene that offers only ``.shape`` and row slices, and records how many rows each read took."""

    def __init__(self, scene: np.ndarray) -> None:
        self._scene, self.shape, self.fetched = scene, scene.shape, []

    def __getitem__(self, rows: slice) -> np.ndarray:
        assert isinstance(rows, slice) and rows.step is None, rows
        block = self._scene[rows]
        self.fetched.append(len(block))
        return block


class TestInferenceConfig:
    def test_defaults_valid(self):
        config = InferenceConfig()
        assert config.overlap == 0 and config.num_workers == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tile_size": 0},
            {"overlap": -1},
            {"tile_size": 32, "overlap": 32},
            {"batch_size": 0},
            {"num_workers": 0},
        ],
    )
    def test_rejects_bad_options(self, kwargs):
        with pytest.raises(ValueError):
            InferenceConfig(**kwargs)

    def test_dict_roundtrip(self):
        config = InferenceConfig(tile_size=48, overlap=8, apply_cloud_filter=False,
                                 batch_size=4, num_workers=2)
        data = config.to_dict()
        import json

        assert json.loads(json.dumps(data)) == data  # JSON-safe
        assert InferenceConfig.from_dict(data) == config

    def test_from_dict_partial_uses_defaults(self):
        config = InferenceConfig.from_dict({"tile_size": 64})
        assert config == InferenceConfig(tile_size=64)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown InferenceConfig keys.*'typo_size'"):
            InferenceConfig.from_dict({"typo_size": 32})
        with pytest.raises(ValueError, match="dict"):
            InferenceConfig.from_dict([("tile_size", 32)])

    def test_from_dict_validates_values(self):
        with pytest.raises(ValueError):
            InferenceConfig.from_dict({"tile_size": 32, "overlap": 32})

    @pytest.mark.parametrize("data", [
        {"apply_cloud_filter": "false"},  # a truthy string used to turn the filter on
        {"compile_plans": 0},
        {"tile_size": 32.9},  # used to truncate to 32
        {"tile_size": True},  # used to give 1
        {"batch_size": "8"},
        {"backend": 1},
    ])
    def test_from_dict_rejects_mistyped_values(self, data):
        (key,) = data
        with pytest.raises(ValueError, match=f"'{key}' must be a JSON"):
            InferenceConfig.from_dict(data)

    def test_from_dict_loads_archives_that_carry_plan_cache_size(self):
        """Archives carry ``to_dict()``; before ``plan_cache_size`` was retired it returned this."""
        written = {"tile_size": 256, "overlap": 0, "apply_cloud_filter": True, "batch_size": 8,
                   "num_workers": 1, "compile_plans": True, "plan_cache_size": 8, "backend": "auto"}
        assert InferenceConfig.from_dict(written) == InferenceConfig()
        assert "plan_cache_size" not in InferenceConfig().to_dict()

    def test_backend_key_round_trips(self):
        config = InferenceConfig(backend="thread", num_workers=3)
        data = config.to_dict()
        assert data["backend"] == "thread"
        assert InferenceConfig.from_dict(data) == config

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            InferenceConfig(backend="gpu")

    def test_fork_backend_rejected_at_config_time_without_fork(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        monkeypatch.setattr("repro.backend.base._fork_available", lambda: False)
        with pytest.raises(ValueError, match="fork"):
            InferenceConfig(backend="fork")
        # ... while "auto" quietly degrades instead of failing.
        config = InferenceConfig(backend="auto", num_workers=4)
        assert config.resolved_backend() == "serial"

    def test_resolved_backend_heuristic(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert InferenceConfig().resolved_backend() == "serial"
        assert InferenceConfig(backend="serial", num_workers=8).resolved_backend() == "serial"


class TestPredictTiles:
    def test_empty_stack_returns_empty_map(self, engine_model):
        out = predict_tiles(engine_model, np.empty((0, 32, 32, 3), dtype=np.uint8))
        assert out.shape == (0, 32, 32)
        assert out.dtype == np.uint8

    def test_empty_stack_probabilities(self, engine_model):
        out = predict_tile_probabilities(engine_model, np.empty((0, 32, 32, 3), dtype=np.uint8))
        assert out.shape == (0, 3, 32, 32)
        assert out.dtype == np.float32

    def test_probabilities_shape_and_norm(self, engine_model, tiny_dataset):
        probs = predict_tile_probabilities(engine_model, tiny_dataset.images[:3], batch_size=2)
        assert probs.shape == (3, 3, 32, 32)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-5)

    def test_probabilities_match_labels(self, engine_model, tiny_dataset):
        tiles = tiny_dataset.images[:4]
        labels = predict_tiles(engine_model, tiles, batch_size=2)
        probs = predict_tile_probabilities(engine_model, tiles, batch_size=2)
        np.testing.assert_array_equal(probs.argmax(axis=1).astype(np.uint8), labels)

    def test_multiprocess_matches_serial(self, engine_model, tiny_dataset):
        tiles = tiny_dataset.images[:6]
        serial = predict_tile_probabilities(engine_model, tiles, batch_size=2, num_workers=1)
        pooled = predict_tile_probabilities(engine_model, tiles, batch_size=2, num_workers=2)
        np.testing.assert_array_equal(serial, pooled)

    def test_rejects_bad_stack(self, engine_model, tiny_dataset):
        with pytest.raises(ValueError):
            predict_tile_probabilities(engine_model, tiny_dataset.labels)
        with pytest.raises(ValueError):
            predict_tile_probabilities(engine_model, tiny_dataset.images, batch_size=0)
        with pytest.raises(ValueError):
            predict_tile_probabilities(engine_model, tiny_dataset.images, num_workers=0)


class TestOnePredictionPath:
    """Every classifier dispatches through a backend; which one never changes the bits."""

    @pytest.fixture(scope="class")
    def classifiers(self, engine_model):
        """One classifier (hence one started backend) per backend name, plus a serial one
        that is handed the scene as a bare row-sliceable object."""
        from repro.backend import available_backends

        backends = {name: name for name in available_backends()} | {"streaming": "serial"}
        built = {name: SceneClassifier(engine_model, InferenceConfig(backend=backend, num_workers=2,
                                                                     apply_cloud_filter=False))
                 for name, backend in backends.items()}
        yield built
        for classifier in built.values():
            classifier.close()

    @settings(max_examples=25, deadline=None)
    @given(h=st.integers(1, 96), w=st.integers(1, 96), tile=st.sampled_from([16, 32]), data=st.data(),
           batch_size=st.integers(1, 5), seed=st.integers(0, 2**16))
    def test_classify_scene_is_backend_and_streaming_invariant(self, classifiers, h, w, tile, data,
                                                               batch_size, seed):
        overlap = data.draw(st.integers(0, tile - 1), label="overlap")
        scene = np.random.default_rng(seed).integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        maps = {}
        for name, classifier in classifiers.items():
            # Tile geometry and batch size are read per call; the backend
            # (started once, above) outlives the config swap.
            classifier.config = replace(classifier.config, tile_size=tile, overlap=overlap,
                                        batch_size=batch_size)
            if name == "streaming":
                rows = _RowSliceable(scene)
                maps[name] = classifier.classify_scene(rows)
                assert max(rows.fetched) <= tile  # a band and its context, never more
            else:
                assert classifier.backend.name == classifier.config.backend
                maps[name] = classifier.classify_scene(scene)
        for name, class_map in maps.items():
            np.testing.assert_array_equal(class_map, maps["serial"], err_msg=name)

    def test_non_unet_rejected_on_every_backend(self, engine_model):
        """Inference takes a UNet only: a duck-typed stand-in raises ``TypeError``
        from the classifier and from every backend's ``publish_model``."""
        stub = SimpleNamespace(config=engine_model.config, predict_proba=engine_model.predict_proba)
        tiles = np.zeros((1, 16, 16, 3), dtype=np.uint8)
        for name in available_backends():
            with pytest.raises(TypeError, match="UNet"):
                SceneClassifier(model=stub, config=InferenceConfig(backend=name, num_workers=2))
            with make_backend(name, num_workers=2) as backend:
                with pytest.raises(TypeError, match="UNet"):
                    backend.publish_model("m", stub)
                assert not backend.has_model("m")
            with pytest.raises(TypeError, match="UNet"):
                predict_tile_probabilities(stub, tiles, num_workers=2, backend=name)


class TestOverlapBlending:
    def _scene(self):
        rng = np.random.default_rng(11)
        return rng.integers(0, 255, size=(100, 140, 3), dtype=np.uint8)

    def test_blended_output_matches_non_overlap(self, engine_model):
        """A real U-Net's blended (overlap 8) and disjoint (overlap 0) probability maps
        are, bit for bit, the whole-scene stack-and-stitch oracle's at the same overlap."""
        scene = self._scene()
        maps = {}
        for overlap in (0, 8):
            config = InferenceConfig(tile_size=32, overlap=overlap, apply_cloud_filter=False, batch_size=4)
            with SceneClassifier(model=engine_model, config=config) as classifier:
                maps[overlap] = classifier.classify_scene_proba(scene)
            expected = reference_classify_scene(engine_model, scene, config)
            assert maps[overlap].dtype == expected.dtype
            np.testing.assert_array_equal(maps[overlap], expected)
        assert not np.array_equal(maps[8], maps[0])  # the seams really were blended

    def test_proba_map_shape_and_norm(self, engine_model):
        scene = self._scene()
        config = InferenceConfig(tile_size=32, overlap=8, apply_cloud_filter=False, batch_size=4)
        probs = SceneClassifier(model=engine_model, config=config).classify_scene_proba(scene)
        assert probs.shape == (100, 140, 3)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-5)

    def test_classify_scene_with_overlap_and_workers(self, engine_model):
        scene = self._scene()
        config = InferenceConfig(
            tile_size=32, overlap=8, apply_cloud_filter=False, batch_size=4, num_workers=2
        )
        class_map = SceneClassifier(model=engine_model, config=config).classify_scene(scene)
        assert class_map.shape == scene.shape[:2]
        assert set(np.unique(class_map)).issubset({0, 1, 2})


class TestSmallSceneHandling:
    """Scenes (or tile sizes) the model cannot ingest directly must pad-and-crop."""

    @pytest.fixture(scope="class")
    def deep_model(self):
        # depth 3 → forward requires spatial sizes divisible by 8.
        from repro.unet import UNetConfig

        return UNet(UNetConfig(depth=3, base_channels=4, dropout=0.0, seed=2))

    def test_tile_size_not_divisible_by_model_step(self, deep_model):
        """Regression: tile_size 20 with a depth-3 model used to raise."""
        scene = np.random.default_rng(0).integers(0, 255, size=(20, 20, 3), dtype=np.uint8)
        config = InferenceConfig(tile_size=20, apply_cloud_filter=False)
        class_map = SceneClassifier(model=deep_model, config=config).classify_scene(scene)
        assert class_map.shape == (20, 20)

    def test_scene_smaller_than_tile(self, deep_model):
        scene = np.random.default_rng(1).integers(0, 255, size=(13, 9, 3), dtype=np.uint8)
        config = InferenceConfig(tile_size=32, apply_cloud_filter=False)
        class_map = SceneClassifier(model=deep_model, config=config).classify_scene(scene)
        assert class_map.shape == (13, 9)

    def test_one_pixel_band_after_padding(self, deep_model):
        """A 33-row scene with 32-px tiles leaves a 1-pixel remainder band."""
        scene = np.random.default_rng(2).integers(0, 255, size=(33, 1, 3), dtype=np.uint8)
        config = InferenceConfig(tile_size=32, apply_cloud_filter=False)
        class_map = SceneClassifier(model=deep_model, config=config).classify_scene(scene)
        assert class_map.shape == (33, 1)

    def test_padding_does_not_change_divisible_results(self, engine_model, tiny_dataset):
        """The pad-and-crop seam is a no-op when sizes already divide evenly."""
        tiles = tiny_dataset.images[:4]
        probs = predict_tile_probabilities(engine_model, tiles, batch_size=2)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-5)
        assert probs.shape[2:] == tiles.shape[1:3]

    def test_odd_tiles_through_predict_tiles(self, deep_model):
        tiles = np.random.default_rng(3).integers(0, 255, size=(3, 20, 28, 3), dtype=np.uint8)
        labels = predict_tiles(deep_model, tiles, batch_size=2)
        assert labels.shape == (3, 20, 28)
        probs = predict_tile_probabilities(deep_model, tiles, batch_size=2)
        assert probs.shape == (3, 3, 20, 28)
        np.testing.assert_array_equal(probs.argmax(axis=1).astype(np.uint8), labels)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-5)


class TestEvalModeMemory:
    def test_inference_leaves_no_backward_caches(self, engine_model):
        """Eval-mode forward must not pin backward state (the seed kept the
        full im2col matrix of every conv alive during inference)."""
        engine_model.predict(np.zeros((1, 3, 32, 32), dtype=np.float32))
        with pytest.raises(RuntimeError):
            engine_model.backward(np.zeros((1, 3, 32, 32), dtype=np.float32))

    def test_eval_forward_matches_train_forward_without_dropout(self):
        from repro.unet import UNetConfig

        model = UNet(UNetConfig(depth=2, base_channels=4, dropout=0.0, seed=3))
        x = np.random.default_rng(0).random((2, 3, 32, 32)).astype(np.float32)
        train_logits = model.train().forward(x)
        eval_logits = model.eval().forward(x)
        np.testing.assert_allclose(eval_logits, train_logits, atol=1e-4)


class TestPaddingAvoidsCopies:
    """Tile padding must be a no-op (same object, no reflect recompute) when
    the stack already matches the model's input multiple."""

    def test_pad_stack_already_multiple_returns_same_object(self, rng):
        from repro.unet.inference import _pad_stack_to_multiple

        stack = rng.integers(0, 255, size=(3, 32, 32, 3), dtype=np.uint8)
        assert _pad_stack_to_multiple(stack, 4) is stack
        assert _pad_stack_to_multiple(stack, 1) is stack

    def test_pad_stack_only_copies_when_needed(self, rng):
        from repro.unet.inference import _pad_stack_to_multiple

        stack = rng.integers(0, 255, size=(2, 30, 32, 3), dtype=np.uint8)
        padded = _pad_stack_to_multiple(stack, 8)
        assert padded is not stack and padded.shape == (2, 32, 32, 3)
        # Reflect padding: row 30 mirrors row 28, row 31 mirrors row 27.
        np.testing.assert_array_equal(padded[:, 30], stack[:, 28])
        np.testing.assert_array_equal(padded[:, 31], stack[:, 27])

    def test_pad_to_multiple_already_multiple_is_identity(self, rng):
        """A scene already a tile multiple is not padded: its grid covers it exactly and
        the padding step of ``split_into_tiles`` hands the same object back."""
        from repro.imops import TileGrid
        from repro.imops.resize import _pad_bottom_right

        image = rng.integers(0, 255, size=(64, 96, 3), dtype=np.uint8)
        assert TileGrid.covering(image.shape[:2], 32).padded_shape == image.shape[:2]
        assert _pad_bottom_right(image, 0, 0) is image

    def test_seam_output_equals_unpadded_forward(self, engine_model, rng):
        from repro.unet.inference import predict_batch_probabilities

        batch = rng.integers(0, 255, size=(2, 16, 16, 3), dtype=np.uint8)
        probs = predict_batch_probabilities(batch, engine_model, None)
        assert probs.shape[2:] == (16, 16)
