"""Tests for ``SceneClassifier``'s scene path: tile-row bands, streamed.

The oracle is :func:`reference_kernels.reference_classify_scene`, the whole-scene
stack-and-stitch the band loop replaced; every class map and probability map must
equal it bit for bit.  Working-set claims are ``tracemalloc`` peaks, not clocks.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import classify_scene_proba
from helpers import available_backends
from repro.unet import InferenceConfig, SceneClassifier, UNet, UNetConfig

from reference_kernels import reference_classify_scene


@pytest.fixture(scope="module")
def model():
    return UNet(UNetConfig(depth=2, base_channels=6, dropout=0.0, seed=13))


def _scene(shape, seed=0):
    return np.random.default_rng(seed).integers(0, 255, size=shape + (3,), dtype=np.uint8)


def _assert_matches_oracle(classifier, model, scene):
    expected = reference_classify_scene(model, scene, classifier.config)
    proba = classify_scene_proba(classifier, scene)
    assert proba.dtype == expected.dtype
    np.testing.assert_array_equal(proba, expected)
    np.testing.assert_array_equal(classifier.classify_scene(scene), expected.argmax(axis=-1).astype(np.uint8))


def _peak_bytes(run) -> int:
    """``tracemalloc``'s peak over one call of ``run``."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _band_peak(classifier, scene, out_path) -> int:
    """Peak of a warmed ``classify_to`` of ``scene`` into a memmap class map."""
    out = np.memmap(out_path, dtype=np.uint8, mode="w+", shape=scene.shape[:2])
    classifier.classify_to(scene, out)  # compiles the band's plans
    peak = _peak_bytes(lambda: classifier.classify_to(scene, out))
    del out
    return peak


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
        config = InferenceConfig(tile_size=tile, overlap=overlap, apply_cloud_filter=False, batch_size=batch)
        _assert_matches_oracle(SceneClassifier(model=model, config=config), model, _scene(shape, seed=tile + overlap))

    def test_with_cloud_filter(self, model):
        config = InferenceConfig(tile_size=32, overlap=8, apply_cloud_filter=True, batch_size=4)
        _assert_matches_oracle(SceneClassifier(model=model, config=config), model, _scene((64, 96), seed=5))


class TestBandPathMatchesTheWholeSceneOracle:
    """By property: any scene, grid, batch and filter gives the oracle's bits on the serial backend."""

    @pytest.fixture(scope="class")
    def classifiers(self, model):
        built = {filt: SceneClassifier(model, InferenceConfig(backend="serial", apply_cloud_filter=filt))
                 for filt in (False, True)}
        yield built
        for classifier in built.values():
            classifier.close()

    @settings(max_examples=30, deadline=None)
    @given(tile=st.sampled_from([16, 32]), data=st.data(), batch_size=st.integers(1, 5),
           cloud_filter=st.booleans(), seed=st.integers(0, 2**16))
    def test_scene_outputs_equal_the_oracle(self, classifiers, model, tile, data, batch_size, cloud_filter, seed):
        overlap = data.draw(st.integers(0, tile - 1), label="overlap")
        # Sides up to 140 px and at most 8 strides past the first tile, so a
        # 1-px stride still makes a grid of tens of tiles, not thousands.
        side = st.integers(1, min(140, tile + 8 * (tile - overlap)))
        h, w = data.draw(side, label="h"), data.draw(side, label="w")
        classifier = classifiers[cloud_filter]
        # Tile geometry and batch size are read per call; the backend (started
        # once, with or without the filter published) outlives the swap.
        classifier.config = replace(classifier.config, tile_size=tile, overlap=overlap, batch_size=batch_size)
        _assert_matches_oracle(classifier, model, _scene((h, w), seed=seed))

    @pytest.mark.skipif("fork" not in available_backends(), reason="fork backend unavailable")
    def test_fork_workers_equal_the_oracle(self, model):
        config = InferenceConfig(tile_size=32, overlap=12, apply_cloud_filter=False, batch_size=3,
                                 backend="fork", num_workers=2)
        with SceneClassifier(model=model, config=config) as classifier:
            _assert_matches_oracle(classifier, model, _scene((100, 140), seed=6))


class TestStreamingMechanics:
    def test_bands_tile_the_scene_exactly(self, model):
        scene = _scene((100, 70), seed=2)
        config = InferenceConfig(tile_size=32, overlap=8, apply_cloud_filter=False, batch_size=4)
        classifier = SceneClassifier(model=model, config=config)
        covered = np.zeros(scene.shape[:2], dtype=int)
        starts = []
        for y0, probs in classifier.iter_row_bands(scene):
            assert probs.dtype == np.float64  # blended grid
            assert probs.shape[1:] == (scene.shape[1], model.config.num_classes)
            covered[y0 : y0 + probs.shape[0]] += 1
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
        result = SceneClassifier(model=model, config=config).classify_to(source, out)
        expected = reference_classify_scene(model, scene, config).argmax(axis=-1)
        np.testing.assert_array_equal(np.asarray(result), expected)

    def test_peak_buffer_is_bounded_by_band_not_scene(self, model, tmp_path):
        """An 8x taller scene raises the measured working set by at most a quarter."""
        config = InferenceConfig(tile_size=32, overlap=8, apply_cloud_filter=False, batch_size=4)
        classifier = SceneClassifier(model=model, config=config)
        short_peak = _band_peak(classifier, _scene((128, 64), seed=1), tmp_path / "short.dat")
        tall_peak = _band_peak(classifier, _scene((1024, 64), seed=1), tmp_path / "tall.dat")
        assert 0 < tall_peak <= 1.25 * short_peak, (short_peak, tall_peak)

    @pytest.mark.skipif("fork" not in available_backends(), reason="fork backend unavailable")
    def test_streams_on_the_configured_backend_and_releases_it(self, model):
        """``config.backend`` / ``num_workers`` pick the backend the bands run on: same bits."""
        scene = _scene((100, 140), seed=4)
        options = dict(tile_size=32, overlap=16, apply_cloud_filter=False, batch_size=3)
        serial = SceneClassifier(model=model, config=InferenceConfig(backend="serial", **options))
        fanned_out = InferenceConfig(backend="fork", num_workers=2, **options)
        with SceneClassifier(model=model, config=fanned_out) as forked:
            backend = forked.backend
            assert (backend.name, backend.num_workers, backend.running) == ("fork", 2, True)
            streamed = forked.classify_scene(scene)
            assert backend.occupancy()["tasks_dispatched"] > 0
        assert not backend.running
        np.testing.assert_array_equal(streamed, serial.classify_scene(scene))
        np.testing.assert_array_equal(streamed, reference_classify_scene(model, scene, serial.config).argmax(axis=-1))

    def test_scene_larger_than_band_buffer(self, model, tmp_path):
        """A tall scene: the oracle's working set is >= 4x the band path's, and the bits agree."""
        config = InferenceConfig(tile_size=16, overlap=4, apply_cloud_filter=False, batch_size=4)
        scene = _scene((1280, 96), seed=8)
        band_peak = _band_peak(SceneClassifier(model=model, config=config), scene, tmp_path / "out.dat")
        whole = []
        whole_peak = _peak_bytes(lambda: whole.append(reference_classify_scene(model, scene, config)))
        assert whole_peak >= 4 * band_peak, (whole_peak, band_peak)
        np.testing.assert_array_equal(SceneClassifier(model=model, config=config).classify_scene(scene),
                                      whole[0].argmax(axis=-1))

    @pytest.mark.parametrize("backend", ["serial", pytest.param("fork", marks=pytest.mark.skipif(
        "fork" not in available_backends(), reason="fork backend unavailable"))])
    @pytest.mark.parametrize("shape", [(0, 10), (10, 0), (0, 0)])
    def test_empty_scene_gives_an_empty_map(self, model, backend, shape):
        for overlap, dtype in ((0, np.float32), (4, np.float64)):
            config = InferenceConfig(tile_size=16, overlap=overlap, apply_cloud_filter=False,
                                     backend=backend, num_workers=2)
            with SceneClassifier(model=model, config=config) as classifier:
                class_map = classifier.classify_scene(np.zeros(shape + (3,), dtype=np.uint8))
                proba = classify_scene_proba(classifier, np.zeros(shape + (3,), dtype=np.uint8))
            assert (class_map.shape, class_map.dtype) == (shape, np.uint8)
            assert (proba.shape, proba.dtype) == (shape + (model.config.num_classes,), dtype)

    def test_rejects_bad_scene(self, model):
        classifier = SceneClassifier(model=model)
        with pytest.raises(ValueError, match=r"\(H, W, 3\)"):
            classifier.classify_scene(np.zeros((32, 32), dtype=np.uint8))
        with pytest.raises(ValueError, match="output shape"):
            classifier.classify_to(np.zeros((32, 32, 3), dtype=np.uint8),
                                   np.zeros((16, 16), dtype=np.uint8))
