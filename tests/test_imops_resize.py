"""Tests for repro.imops.resize (tiling, reassembly)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pickle

from repro.imops import TileGrid, assemble_from_tiles, blend_window, split_into_tiles


class TestPadAndTiles:
    def test_pad_to_multiple(self):
        tiles, grid = split_into_tiles(np.ones((30, 45), dtype=np.uint8), 16)
        assert grid.padded_shape == (32, 48)
        assert tiles.shape == (6, 16, 16)

    def test_pad_noop_when_already_multiple(self, gray_image):
        tiles, grid = split_into_tiles(gray_image, 8)
        assert grid.padded_shape == gray_image.shape
        np.testing.assert_array_equal(tiles[0], gray_image[:8, :8])

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
        """Reflect padding cannot pad wider than dim-1; degenerate scenes must
        fall back to edge padding instead of raising."""
        tiles, grid = split_into_tiles(np.full((1, 5), 9, dtype=np.uint8), 8)
        assert grid.padded_shape == (8, 8)
        assert np.all(tiles[0][:, :5] == 9)
        tiles, grid = split_into_tiles(np.ones((2, 1, 3), dtype=np.uint8), 16)
        assert tiles.shape == (1, 16, 16, 3)
        assert np.all(tiles == 1)


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
        np.testing.assert_array_equal(legacy, np.pad(img, ((0, 84), (0, 12)), mode="reflect"))

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

    @pytest.mark.parametrize("tile_size, overlap", [(1, 0), (8, 0), (8, 3), (32, 8), (33, 16)])
    def test_blend_window_is_symmetric_and_separable(self, tile_size, overlap):
        win = blend_window(tile_size, overlap)
        np.testing.assert_array_equal(win, win.T)
        np.testing.assert_array_equal(win, win[::-1, ::-1])
        edge = win[tile_size // 2]
        np.testing.assert_allclose(win, np.outer(edge, edge) / edge.max())
        assert win.max() == 1.0 and win.min() > 0.0

    def test_blended_tiles_mismatch_rejected(self):
        tiles, grid = split_into_tiles(np.zeros((64, 64), dtype=np.uint8), 32, overlap=8)
        with pytest.raises(ValueError):
            assemble_from_tiles(tiles[:-1], grid)
        with pytest.raises(ValueError):
            assemble_from_tiles(np.zeros((grid.num_tiles, 16, 16)), grid)


class TestGridCovering:
    """``TileGrid.covering`` against the brute-force rule: per axis, the fewest
    tiles at stride ``tile - overlap`` whose last one ends at or past the edge."""

    @staticmethod
    def _fewest(n, tile, overlap):
        count = 1
        while (count - 1) * (tile - overlap) + tile < n:
            count += 1
        return count

    @pytest.mark.parametrize(
        "shape, tile, overlap",
        [((1, 1), 8, 0), ((8, 8), 8, 0), ((9, 8), 8, 0), ((64, 96), 32, 0),
         ((70, 50), 32, 8), ((300, 500), 128, 32), ((129, 127), 128, 127), ((5, 200), 16, 15)],
    )
    def test_covering_matches_brute_force(self, shape, tile, overlap):
        grid = TileGrid.covering(shape, tile, overlap)
        counts = tuple(self._fewest(n, tile, overlap) for n in shape)
        assert tuple(grid) == counts
        assert grid.padded_shape == tuple((c - 1) * (tile - overlap) + tile for c in counts)
        assert all(p >= n for p, n in zip(grid.padded_shape, shape))
        _, split_grid = split_into_tiles(np.zeros(shape, dtype=np.uint8), tile, overlap=overlap)
        assert split_grid == grid and split_grid.padded_shape == grid.padded_shape

    @pytest.mark.parametrize("tile, overlap", [(0, 0), (8, 8), (8, -1)])
    def test_covering_rejects_bad_geometry(self, tile, overlap):
        with pytest.raises(ValueError):
            TileGrid.covering((16, 16), tile, overlap)
