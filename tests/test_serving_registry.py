"""Tests for the serving model registry and the checkpoint lifecycle through it."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from helpers import classify_scene_proba
from repro.nn import Adam, CheckpointError, read_metadata, save_checkpoint, save_weights
from repro.nn.convgemm import NUMERICS
from repro.serving import ModelRegistry
from repro.unet import InferenceConfig, SceneClassifier, UNet, UNetConfig


@pytest.fixture()
def small_model():
    return UNet(UNetConfig(depth=2, base_channels=4, dropout=0.0, seed=21))


@pytest.fixture()
def scene(rng):
    return rng.integers(0, 255, size=(48, 64, 3), dtype=np.uint8)


def _publish(tmp_path, model, name="seaice", version=1, with_optimizer=False, **kwargs):
    registry = ModelRegistry(str(tmp_path / "registry"))
    optimizer = Adam(model.parameters()) if with_optimizer else None
    registry.publish(name, version, model, optimizer=optimizer, **kwargs)
    return registry


class TestRegistryBasics:
    def test_publish_scan_and_lookup(self, tmp_path, small_model):
        registry = _publish(tmp_path, small_model)
        assert registry.models() == {"seaice": [1]}
        assert registry.record("seaice").version == 1
        record = registry.record("seaice")
        assert record.version == 1 and record.path.endswith("1.npz")

    def test_archives_report_their_numerics_generation(self, tmp_path, small_model):
        """``publish`` stamps the generation; an archive from before the key is generation 1, a torn one unknown."""
        registry = _publish(tmp_path, small_model)
        assert registry.numerics("seaice", 1) == NUMERICS
        old = save_weights(small_model, str(tmp_path / "registry" / "seaice" / "2.npz"),
                           metadata={"unet_config": small_model.config.__dict__})
        assert registry.numerics("seaice", 2) == 1
        with open(old, "r+b") as stream:
            stream.truncate(100)
        assert registry.numerics("seaice", 2) is None

    def test_unknown_model_and_version_are_informative(self, tmp_path, small_model):
        registry = _publish(tmp_path, small_model)
        with pytest.raises(KeyError, match="unknown model 'nope'.*seaice"):
            registry.record("nope")
        with pytest.raises(KeyError, match="no version 9.*\\[1\\]"):
            registry.record("seaice", 9)

    def test_directory_scan_finds_v_prefixed_archives(self, tmp_path, small_model):
        root = tmp_path / "registry"
        save_weights(small_model, str(root / "ice" / "v3.npz"),
                     metadata={"unet_config": small_model.config.__dict__})
        registry = ModelRegistry(str(root))
        assert registry.models() == {"ice": [3]}

    def test_explicit_register_survives_scan(self, tmp_path, small_model):
        path = save_weights(small_model, str(tmp_path / "elsewhere" / "model.npz"),
                            metadata={"unet_config": small_model.config.__dict__})
        registry = ModelRegistry(str(tmp_path / "registry"))
        registry.register("external", 2, path)
        registry.scan()
        assert registry.models() == {"external": [2]}

    def test_register_missing_file_raises(self, tmp_path):
        registry = ModelRegistry()
        with pytest.raises(FileNotFoundError):
            registry.register("x", 1, str(tmp_path / "absent.npz"))


class TestCheckpointLifecycle:
    """save_checkpoint → registry load → identical classify_scene_proba output."""

    def test_weights_archive_roundtrip(self, tmp_path, small_model, scene):
        inference = InferenceConfig(tile_size=32, overlap=8, apply_cloud_filter=False)
        registry = _publish(tmp_path, small_model, inference=inference)
        served = registry.classifier("seaice")
        assert served.config == inference
        direct = SceneClassifier(model=small_model, config=inference)
        np.testing.assert_array_equal(
            classify_scene_proba(served, scene), classify_scene_proba(direct, scene)
        )

    def test_training_checkpoint_roundtrip(self, tmp_path, small_model, scene):
        """A full save_checkpoint archive (model + optimiser) serves directly."""
        inference = InferenceConfig(tile_size=32, apply_cloud_filter=False)
        registry = _publish(tmp_path, small_model, with_optimizer=True, inference=inference)
        served = registry.classifier("seaice")
        direct = SceneClassifier(model=small_model, config=inference)
        np.testing.assert_array_equal(
            classify_scene_proba(served, scene), classify_scene_proba(direct, scene)
        )

    def test_published_metadata_rebuilds_config(self, tmp_path, small_model):
        registry = _publish(tmp_path, small_model, extra_metadata={"note": "hi"})
        metadata = registry.record("seaice").metadata()
        assert metadata["unet_config"]["depth"] == 2
        assert metadata["note"] == "hi"
        served = registry.classifier("seaice")
        assert served.model.config == small_model.config

    def test_corrupt_archive_raises_checkpoint_error(self, tmp_path, small_model):
        registry = _publish(tmp_path, small_model)
        with open(registry.record("seaice").path, "wb") as fh:
            fh.write(b"this is not an npz archive")
        with pytest.raises(CheckpointError, match="corrupt or unreadable"):
            registry.classifier("seaice")

    def test_archive_without_metadata_raises(self, tmp_path, small_model):
        root = tmp_path / "registry"
        save_weights(small_model, str(root / "bare" / "1.npz"))
        registry = ModelRegistry(str(root))
        with pytest.raises(CheckpointError, match="unet_config"):
            registry.classifier("bare")

    def test_archive_with_missing_keys_raises(self, tmp_path, small_model):
        """An archive whose weights do not match its declared config errors clearly."""
        root = tmp_path / "registry"
        other = UNet(UNetConfig(depth=1, base_channels=2, dropout=0.0, seed=0))
        # Metadata promises the small_model architecture but stores other's weights.
        save_weights(other, str(root / "broken" / "1.npz"),
                     metadata={"unet_config": small_model.config.__dict__})
        registry = ModelRegistry(str(root))
        with pytest.raises(CheckpointError, match="does not match its declared unet_config"):
            registry.classifier("broken")

    def test_optimizer_only_archive_raises(self, tmp_path, small_model):
        import json

        root = tmp_path / "registry"
        path = root / "optonly" / "1.npz"
        path.parent.mkdir(parents=True)
        optimizer = Adam(small_model.parameters())
        meta = json.dumps({"unet_config": small_model.config.__dict__}).encode()
        entries = {"optim/" + key: np.asarray(value) for key, value in optimizer.state_dict().items()}
        entries["__meta__/json"] = np.frombuffer(meta, dtype=np.uint8)
        np.savez_compressed(str(path), **entries)
        registry = ModelRegistry(str(root))
        with pytest.raises(CheckpointError, match="no model parameters"):
            registry.classifier("optonly")


class TestWarmInstancesAndHotSwap:
    def test_classifier_is_warm_and_cached(self, tmp_path, small_model):
        registry = _publish(tmp_path, small_model)
        first = registry.classifier("seaice")
        assert registry.classifier("seaice") is first
        assert [key for key in registry.loaded_versions() if key[0] == "seaice"] == [("seaice", 1)]
        assert not first.model.training  # served models stay in eval mode

    def test_version_bump_hot_swaps(self, tmp_path, small_model):
        registry = _publish(tmp_path, small_model)
        v1 = registry.classifier("seaice")

        bumped = UNet(UNetConfig(depth=2, base_channels=4, dropout=0.0, seed=99))
        registry.publish("seaice", 2, bumped)
        v2 = registry.classifier("seaice")
        assert v2 is not v1
        assert registry.record("seaice").version == 2
        # The superseded warm instance is retired; pinned lookups still work.
        assert [key for key in registry.loaded_versions() if key[0] == "seaice"] == [("seaice", 2)]
        pinned = registry.classifier("seaice", 1)
        np.testing.assert_array_equal(
            pinned.model.head.weight.value, v1.model.head.weight.value
        )

    def test_new_archive_dropped_into_directory_is_discovered(self, tmp_path, small_model):
        registry = _publish(tmp_path, small_model)
        assert registry.models() == {"seaice": [1]}
        # Simulate another process dropping a new version into the directory.
        other = ModelRegistry(registry.root)
        other.publish("seaice", 7, small_model)
        assert registry.record("seaice").version == 7

    def test_inference_override_beats_archive_metadata(self, tmp_path, small_model):
        registry = _publish(tmp_path, small_model,
                            inference=InferenceConfig(tile_size=64))
        override = InferenceConfig(tile_size=16, batch_size=2, apply_cloud_filter=False)
        pinned = ModelRegistry(registry.root, inference=override)
        assert pinned.classifier("seaice").config == override


class TestSerializationMetadata:
    def test_read_metadata_roundtrip(self, tmp_path, small_model):
        path = save_weights(small_model, str(tmp_path / "m.npz"), metadata={"a": [1, 2]})
        assert read_metadata(path) == {"a": [1, 2]}

    def test_read_metadata_absent_is_empty(self, tmp_path, small_model):
        path = save_weights(small_model, str(tmp_path / "m.npz"))
        assert read_metadata(path) == {}

    def test_checkpoint_metadata_roundtrip(self, tmp_path, small_model):
        optimizer = Adam(small_model.parameters())
        path = save_checkpoint(small_model, optimizer, str(tmp_path / "ckpt.npz"),
                               metadata={"epoch": 5})
        assert read_metadata(path)["epoch"] == 5
        # load_checkpoint still round-trips with the metadata block present.
        from repro.nn import load_checkpoint
        load_checkpoint(small_model, optimizer, path)

    def test_non_json_metadata_rejected(self, tmp_path, small_model):
        with pytest.raises(ValueError, match="JSON-serialisable"):
            save_weights(small_model, str(tmp_path / "m.npz"), metadata={"x": object()})

    def test_missing_archive_is_informative(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="not found"):
            read_metadata(str(tmp_path / "ghost.npz"))


class TestWarmEvictionPolicy:
    def _publish_many(self, tmp_path, count: int) -> ModelRegistry:
        registry = ModelRegistry(str(tmp_path / "registry"))
        for i in range(count):
            model = UNet(UNetConfig(depth=1, base_channels=2, dropout=0.0, seed=i))
            registry.publish(f"model-{i}", 1, model,
                             inference=InferenceConfig(tile_size=8, apply_cloud_filter=False))
        return registry

    def test_max_warm_caps_resident_models_lru(self, tmp_path):
        registry = self._publish_many(tmp_path, 4)
        registry.max_warm = 2
        registry.classifier("model-0")
        registry.classifier("model-1")
        assert registry.warm_count() == 2
        registry.classifier("model-0")  # refresh model-0: model-1 is now LRU
        registry.classifier("model-2")
        assert registry.warm_count() == 2
        assert registry.loaded_versions() == [("model-0", 1), ("model-2", 1)]
        # The evicted model reloads transparently on demand.
        assert registry.classifier("model-1") is not None
        assert registry.warm_count() == 2

    def test_eviction_notifies_listeners(self, tmp_path):
        registry = self._publish_many(tmp_path, 3)
        registry.max_warm = 1
        retired: list[tuple[str, int]] = []
        registry.add_evict_listener(retired.append)
        registry.classifier("model-0")
        registry.classifier("model-1")
        registry.classifier("model-2")
        assert retired == [("model-0", 1), ("model-1", 1)]
        assert registry.loaded_versions() == [("model-2", 1)]

    def test_version_hot_swap_also_notifies(self, tmp_path, small_model):
        registry = _publish(tmp_path, small_model)
        retired: list[tuple[str, int]] = []
        registry.add_evict_listener(retired.append)
        registry.classifier("seaice")
        registry.publish("seaice", 2, small_model)
        registry.classifier("seaice")
        assert retired == [("seaice", 1)]

    def test_rejects_bad_max_warm(self, tmp_path):
        with pytest.raises(ValueError, match="max_warm"):
            ModelRegistry(str(tmp_path / "registry"), max_warm=0)

    def test_warm_load_precompiles_serving_plan(self, tmp_path, small_model):
        registry = _publish(tmp_path, small_model,
                            inference=InferenceConfig(tile_size=16, apply_cloud_filter=False, backend="serial"))
        classifier = registry.classifier("seaice")
        info = classifier.plan_cache_info()
        assert info is not None and info["plans"] == 1  # (1, C, 16, 16) pre-compiled


class TestIdempotentRetirement:
    """A hot-swap and an LRU eviction racing over the same warm key must
    retire it exactly once (listeners fired once, classifier closed once)."""

    _tiny = InferenceConfig(tile_size=8, apply_cloud_filter=False)

    def test_double_claim_under_lock_wins_once(self, tmp_path, small_model):
        registry = _publish(tmp_path, small_model, inference=self._tiny)
        registry.classifier("seaice")
        key = ("seaice", 1)
        first: list = []
        second: list = []
        with registry._lock:
            entry = registry._warm[key]
            registry._claim_retirement(key, first)
            registry._claim_retirement(key, second)  # the loser claims nothing
        assert first == [(key, entry)]
        assert second == []
        assert entry.retired

    def test_racing_retirement_paths_notify_exactly_once(self, tmp_path, small_model):
        registry = _publish(tmp_path, small_model, inference=self._tiny)
        registry.max_warm = 1
        other = UNet(UNetConfig(depth=1, base_channels=2, dropout=0.0, seed=3))
        registry.publish("other", 1, other, inference=self._tiny)
        registry.classifier("seaice")  # warm ("seaice", 1): the contended key

        entry = registry._warm[("seaice", 1)]
        close_calls: list[int] = []
        original_close = entry.classifier.close

        def counting_close() -> None:
            close_calls.append(1)
            original_close()

        entry.classifier.close = counting_close
        registry.publish("seaice", 2, small_model, inference=self._tiny)
        notified: list[tuple[str, int]] = []
        registry.add_evict_listener(notified.append)

        # Thread A retires v1 via the version hot-swap; thread B retires the
        # LRU entry (the same key) via the max_warm cap — at the same time.
        barrier = threading.Barrier(2)

        def hot_swap() -> None:
            barrier.wait()
            registry.classifier("seaice")

        def lru_evict() -> None:
            barrier.wait()
            registry.classifier("other")

        threads = [threading.Thread(target=hot_swap), threading.Thread(target=lru_evict)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert notified.count(("seaice", 1)) == 1
        assert len(close_calls) == 1
        assert ("seaice", 1) not in registry._warm
