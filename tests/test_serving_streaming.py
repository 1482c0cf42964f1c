"""Tests for the row-band streaming scene classifier."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import StreamingSceneClassifier
from repro.unet import InferenceConfig, SceneClassifier, UNet, UNetConfig


@pytest.fixture(scope="module")
def model():
    return UNet(UNetConfig(depth=2, base_channels=6, dropout=0.0, seed=13))


def _scene(shape, seed=0):
    return np.random.default_rng(seed).integers(0, 255, size=shape + (3,), dtype=np.uint8)


class TestStreamingMatchesWholeScene:
    @pytest.mark.parametrize(
        "shape, tile, overlap, batch",
        [
            ((96, 128), 32, 0, 4),     # disjoint grid
            ((96, 128), 32, 8, 4),     # blended grid
            ((100, 140), 32, 16, 3),   # non-divisible scene, heavy overlap
            ((97, 65), 32, 31, 2),     # maximal overlap
            ((20, 20), 32, 8, 8),      # scene smaller than one tile
            ((33, 1), 32, 0, 8),       # 1-pixel-wide degenerate scene
            ((128, 48), 32, 8, 1),     # batch size 1
        ],
    )
    def test_bit_identical_argmax(self, model, shape, tile, overlap, batch):
        scene = _scene(shape, seed=tile + overlap)
        config = InferenceConfig(tile_size=tile, overlap=overlap,
                                 apply_cloud_filter=False, batch_size=batch)
        whole = SceneClassifier(model=model, config=config).classify_scene(scene)
        streamed = StreamingSceneClassifier(model=model, config=config).classify_scene(scene)
        np.testing.assert_array_equal(streamed, whole)

    def test_with_cloud_filter(self, model):
        scene = _scene((64, 96), seed=5)
        config = InferenceConfig(tile_size=32, overlap=8, apply_cloud_filter=True, batch_size=4)
        whole = SceneClassifier(model=model, config=config).classify_scene(scene)
        streamed = StreamingSceneClassifier(model=model, config=config).classify_scene(scene)
        np.testing.assert_array_equal(streamed, whole)


class TestStreamingMechanics:
    def test_bands_tile_the_scene_exactly(self, model):
        scene = _scene((100, 70), seed=2)
        config = InferenceConfig(tile_size=32, overlap=8, apply_cloud_filter=False, batch_size=4)
        streamer = StreamingSceneClassifier(model=model, config=config)
        covered = np.zeros(scene.shape[:2], dtype=int)
        starts = []
        for y0, rows in streamer.iter_row_bands(scene):
            assert rows.dtype == np.uint8
            assert rows.shape[1] == scene.shape[1]
            covered[y0 : y0 + rows.shape[0]] += 1
            starts.append(y0)
        assert starts == sorted(starts)
        np.testing.assert_array_equal(covered, 1)  # every row exactly once

    def test_classify_to_memmap_output(self, model, tmp_path):
        """Both ends of the pipeline can live off-heap."""
        scene = _scene((64, 48), seed=3)
        config = InferenceConfig(tile_size=32, overlap=8, apply_cloud_filter=False, batch_size=4)
        source = np.memmap(tmp_path / "scene.dat", dtype=np.uint8, mode="w+", shape=scene.shape)
        source[:] = scene
        out = np.memmap(tmp_path / "out.dat", dtype=np.uint8, mode="w+", shape=scene.shape[:2])
        streamer = StreamingSceneClassifier(model=model, config=config)
        result = streamer.classify_to(source, out)
        expected = SceneClassifier(model=model, config=config).classify_scene(scene)
        np.testing.assert_array_equal(np.asarray(result), expected)

    def test_peak_buffer_is_bounded_by_band_not_scene(self, model):
        """Growing the scene height must not grow the streaming buffer."""
        config = InferenceConfig(tile_size=32, overlap=8, apply_cloud_filter=False, batch_size=4)
        streamer = StreamingSceneClassifier(model=model, config=config)
        streamer.classify_scene(_scene((128, 64), seed=1))
        short_peak = streamer.peak_buffer_bytes
        assert short_peak > 0
        streamer.classify_scene(_scene((512, 64), seed=1))
        tall_peak = streamer.peak_buffer_bytes
        assert tall_peak == short_peak

    def test_streams_on_the_configured_backend_and_releases_it(self, model):
        """``config.backend`` / ``num_workers`` pick the streamer's backend too: same bits, same buffers."""
        scene = _scene((100, 140), seed=4)
        options = dict(tile_size=32, overlap=16, apply_cloud_filter=False, batch_size=3)
        serial = StreamingSceneClassifier(model=model, config=InferenceConfig(backend="serial", **options))
        fanned_out = InferenceConfig(backend="thread", num_workers=2, **options)
        with StreamingSceneClassifier(model=model, config=fanned_out) as threaded:
            backend = threaded.backend
            assert (backend.name, backend.num_workers, backend.running) == ("thread", 2, True)
            streamed = threaded.classify_scene(scene)
            assert backend.occupancy()["tasks_dispatched"] > 0
        assert not backend.running
        np.testing.assert_array_equal(streamed, serial.classify_scene(scene))
        np.testing.assert_array_equal(
            streamed, SceneClassifier(model=model, config=serial.config).classify_scene(scene))
        assert threaded.peak_buffer_bytes == serial.peak_buffer_bytes

    def test_scene_larger_than_band_buffer(self, model):
        """The acceptance-criteria shape: scene ≥ 4x the streaming buffer."""
        config = InferenceConfig(tile_size=16, overlap=4, apply_cloud_filter=False, batch_size=4)
        scene = _scene((1280, 96), seed=8)
        streamer = StreamingSceneClassifier(model=model, config=config)
        streamed = streamer.classify_scene(scene)
        assert scene.nbytes >= 4 * streamer.peak_buffer_bytes
        whole = SceneClassifier(model=model, config=config).classify_scene(scene)
        np.testing.assert_array_equal(streamed, whole)

    def test_rejects_bad_scene(self, model):
        streamer = StreamingSceneClassifier(model=model)
        with pytest.raises(ValueError, match=r"\(H, W, 3\)"):
            streamer.classify_scene(np.zeros((32, 32), dtype=np.uint8))
        with pytest.raises(ValueError, match="output shape"):
            streamer.classify_to(np.zeros((32, 32, 3), dtype=np.uint8),
                                 np.zeros((16, 16), dtype=np.uint8))
