"""Tests for repro.imops.resize (resizing, tiling, reassembly)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pickle

from repro.imops import (
    TileGrid,
    assemble_from_tiles,
    blend_window,
    pad_to_multiple,
    resize_bilinear,
    resize_nearest,
    split_into_tiles,
)


class TestResize:
    def test_nearest_shape(self, rgb_image):
        out = resize_nearest(rgb_image, (20, 30))
        assert out.shape == (20, 30, 3)
        assert out.dtype == rgb_image.dtype

    def test_nearest_identity(self, gray_image):
        np.testing.assert_array_equal(resize_nearest(gray_image, gray_image.shape), gray_image)

    def test_nearest_preserves_label_values(self):
        labels = np.random.default_rng(0).integers(0, 3, size=(16, 16)).astype(np.uint8)
        out = resize_nearest(labels, (32, 32))
        assert set(np.unique(out)).issubset(set(np.unique(labels)))

    def test_bilinear_shape_and_dtype(self, rgb_image):
        out = resize_bilinear(rgb_image, (80, 112))
        assert out.shape == (80, 112, 3)
        assert out.dtype == np.uint8

    def test_bilinear_constant_image(self):
        img = np.full((10, 10), 77, dtype=np.uint8)
        out = resize_bilinear(img, (23, 17))
        assert np.all(out == 77)

    def test_bilinear_upscale_within_range(self, gray_image):
        out = resize_bilinear(gray_image, (96, 80))
        assert out.min() >= gray_image.min()
        assert out.max() <= gray_image.max()

    def test_rejects_nonpositive_target(self, gray_image):
        with pytest.raises(ValueError):
            resize_nearest(gray_image, (0, 10))
        with pytest.raises(ValueError):
            resize_bilinear(gray_image, (10, 0))

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.uint16])
    def test_bilinear_preserves_integer_dtypes(self, dtype):
        """Non-uint8 integer inputs must come back in the input dtype, not float64."""
        img = np.arange(12 * 10, dtype=dtype).reshape(12, 10) * 7
        out = resize_bilinear(img, (20, 18))
        assert out.dtype == dtype
        assert out.min() >= img.min() and out.max() <= img.max()

    def test_bilinear_integer_constant_image(self):
        img = np.full((9, 9), -1234, dtype=np.int16)
        out = resize_bilinear(img, (15, 4))
        assert out.dtype == np.int16
        assert np.all(out == -1234)


class TestPadAndTiles:
    def test_pad_to_multiple(self):
        img = np.ones((30, 45), dtype=np.uint8)
        out = pad_to_multiple(img, 16)
        assert out.shape == (32, 48)

    def test_pad_noop_when_already_multiple(self, gray_image):
        out = pad_to_multiple(gray_image, 8)
        assert out.shape == gray_image.shape

    def test_split_grid_and_count(self):
        img = np.arange(64 * 96 * 3, dtype=np.uint8).reshape(64, 96, 3)
        tiles, grid = split_into_tiles(img, 32)
        assert grid == (2, 3)
        assert tiles.shape == (6, 32, 32, 3)

    def test_split_assemble_round_trip_rgb(self):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 255, size=(64, 64, 3), dtype=np.uint8)
        tiles, grid = split_into_tiles(img, 16)
        np.testing.assert_array_equal(assemble_from_tiles(tiles, grid), img)

    def test_split_assemble_round_trip_gray(self):
        rng = np.random.default_rng(3)
        img = rng.integers(0, 255, size=(48, 80), dtype=np.uint8)
        tiles, grid = split_into_tiles(img, 16)
        np.testing.assert_array_equal(assemble_from_tiles(tiles, grid), img)

    def test_split_pads_non_multiple_scene(self):
        img = np.zeros((70, 50), dtype=np.uint8)
        tiles, grid = split_into_tiles(img, 32)
        assert grid == (3, 2)
        assert tiles.shape[0] == 6

    def test_assemble_rejects_wrong_count(self):
        _, grid = split_into_tiles(np.zeros((16, 24), dtype=np.uint8), 8)
        with pytest.raises(ValueError):
            assemble_from_tiles(np.zeros((5, 8, 8), dtype=np.uint8), grid)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.sampled_from([8, 16]))
    def test_round_trip_property(self, rows, cols, tile):
        rng = np.random.default_rng(rows * 17 + cols)
        img = rng.integers(0, 255, size=(rows * tile, cols * tile), dtype=np.uint8)
        tiles, grid = split_into_tiles(img, tile)
        assert grid == (rows, cols)
        np.testing.assert_array_equal(assemble_from_tiles(tiles, grid), img)

    def test_paper_tile_count(self):
        """66 scenes of 2048x2048 split into 256-pixel tiles give 4224 tiles (paper §IV-A)."""
        tiles_per_scene = (2048 // 256) ** 2
        assert 66 * tiles_per_scene == 4224

    def test_pad_to_multiple_handles_single_pixel_dims(self):
        """Reflect padding cannot pad wider than dim-1; degenerate inputs must
        fall back to edge padding instead of raising."""
        out = pad_to_multiple(np.full((1, 5), 9, dtype=np.uint8), 8)
        assert out.shape == (8, 8)
        assert np.all(out[:, :5] == 9)
        out = pad_to_multiple(np.ones((2, 1, 3), dtype=np.uint8), 16)
        assert out.shape == (16, 16, 3)
        assert np.all(out == 1)


class TestOverlapTiling:
    def test_grid_behaves_like_tuple(self):
        img = np.zeros((64, 96), dtype=np.uint8)
        tiles, grid = split_into_tiles(img, 32)
        assert isinstance(grid, TileGrid)
        assert grid == (2, 3)
        rows, cols = grid
        assert (rows, cols) == (2, 3)
        assert grid.num_tiles == 6
        assert grid.tile_size == 32 and grid.overlap == 0 and grid.stride == 32

    def test_grid_pickle_round_trip(self):
        _, grid = split_into_tiles(np.zeros((70, 50), dtype=np.uint8), 32, overlap=8)
        copy = pickle.loads(pickle.dumps(grid))
        assert copy == grid
        assert copy.tile_size == grid.tile_size and copy.overlap == grid.overlap
        assert copy.image_shape == grid.image_shape and copy.padded_shape == grid.padded_shape

    def test_non_multiple_round_trip_is_cropped_exact(self):
        """A disjoint reassembly stitches the padded scene and crops it back to the
        original size, so non-multiple scenes round-trip exactly."""
        rng = np.random.default_rng(5)
        for shape in [(300, 500, 3), (300, 500)]:
            img = rng.integers(0, 255, size=shape, dtype=np.uint8)
            tiles, grid = split_into_tiles(img, 128)
            assert grid.padded_shape == (384, 512)
            np.testing.assert_array_equal(assemble_from_tiles(tiles, grid), img)

    def test_legacy_tuple_grid_keeps_uncropped_stitch(self):
        """The uncropped stitch a plain (rows, cols) tuple used to select is a
        TileGrid whose image shape is its padded shape: the padded scene comes back."""
        img = np.random.default_rng(6).integers(0, 255, size=(300, 500), dtype=np.uint8)
        tiles, grid = split_into_tiles(img, 128)
        uncropped = TileGrid(grid[0], grid[1], grid.tile_size, 0, grid.padded_shape, grid.padded_shape)
        legacy = assemble_from_tiles(tiles, uncropped)
        assert legacy.shape == grid.padded_shape
        np.testing.assert_array_equal(legacy[:300, :500], img)
        np.testing.assert_array_equal(legacy, pad_to_multiple(img, 128))

    @pytest.mark.parametrize("shape", [(300, 500, 3), (96, 96), (40, 130)])
    def test_overlap_blend_round_trip(self, shape):
        """Tiles cut from one scene blend back to that scene (overlapping
        regions average identical values)."""
        rng = np.random.default_rng(7)
        img = rng.integers(0, 255, size=shape, dtype=np.uint8)
        tiles, grid = split_into_tiles(img, 32, overlap=8)
        assert tiles.shape[1:3] == (32, 32)
        out = assemble_from_tiles(tiles.astype(np.float64), grid)
        assert out.shape == img.shape
        np.testing.assert_allclose(out, img, atol=1e-9)

    def test_overlap_grid_geometry(self):
        _, grid = split_into_tiles(np.zeros((300, 500), dtype=np.uint8), 128, overlap=32)
        assert grid.stride == 96
        assert grid.image_shape == (300, 500)
        # stride*(rows-1) + tile covers the scene
        assert grid.padded_shape[0] >= 300 and grid.padded_shape[1] >= 500
        assert (grid[0] - 1) * grid.stride + 128 == grid.padded_shape[0]

    def test_small_scene_single_tile(self):
        tiles, grid = split_into_tiles(np.ones((20, 20), dtype=np.uint8), 32, overlap=8)
        assert grid == (1, 1)
        assert tiles.shape == (1, 32, 32)

    def test_rejects_bad_overlap(self):
        img = np.zeros((64, 64), dtype=np.uint8)
        with pytest.raises(ValueError):
            split_into_tiles(img, 32, overlap=32)
        with pytest.raises(ValueError):
            split_into_tiles(img, 32, overlap=-1)

    def test_blend_window_properties(self):
        win = blend_window(32, 8)
        assert win.shape == (32, 32)
        assert np.all(win > 0)
        assert np.all(win <= 1.0)
        # flat interior, tapered margins
        assert np.all(win[8:24, 8:24] == 1.0)
        assert win[0, 16] < 1.0 and win[-1, 16] < 1.0
        with pytest.raises(ValueError):
            blend_window(32, 32)

    def test_blended_tiles_mismatch_rejected(self):
        tiles, grid = split_into_tiles(np.zeros((64, 64), dtype=np.uint8), 32, overlap=8)
        with pytest.raises(ValueError):
            assemble_from_tiles(tiles[:-1], grid)
        with pytest.raises(ValueError):
            assemble_from_tiles(np.zeros((grid.num_tiles, 16, 16)), grid)
