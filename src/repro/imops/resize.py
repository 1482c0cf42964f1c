"""Image resizing, tiling and padding helpers.

The paper splits 2048×2048 Sentinel-2 scenes into 256×256 tiles before
auto-labeling and U-Net training, and the U-Net decoder up-samples feature
maps by a factor of two at every stage; this module provides both.

Tiling supports an optional ``overlap`` between neighbouring tiles: the scene
is cut with a stride of ``tile_size - overlap`` and reassembled with a
separable blend window so per-tile probability maps average smoothly across
tile borders instead of producing hard seams (the standard production pattern
for tiled segmentation inference).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "resize_nearest",
    "resize_bilinear",
    "pad_to_multiple",
    "TileGrid",
    "blend_window",
    "split_into_tiles",
    "assemble_from_tiles",
]


def resize_nearest(image: np.ndarray, new_shape: tuple[int, int]) -> np.ndarray:
    """Nearest-neighbour resize to ``(new_h, new_w)``; preserves dtype and labels."""
    img = np.asarray(image)
    new_h, new_w = int(new_shape[0]), int(new_shape[1])
    if new_h <= 0 or new_w <= 0:
        raise ValueError("target shape must be positive")
    h, w = img.shape[:2]
    rows = np.minimum((np.arange(new_h) + 0.5) * h / new_h, h - 1).astype(np.intp)
    cols = np.minimum((np.arange(new_w) + 0.5) * w / new_w, w - 1).astype(np.intp)
    return img[rows][:, cols]


def resize_bilinear(image: np.ndarray, new_shape: tuple[int, int]) -> np.ndarray:
    """Bilinear resize to ``(new_h, new_w)`` with half-pixel centres.

    Integer inputs are rounded, clipped to the dtype's range and cast back to
    the input dtype; float inputs stay float.
    """
    img = np.asarray(image)
    new_h, new_w = int(new_shape[0]), int(new_shape[1])
    if new_h <= 0 or new_w <= 0:
        raise ValueError("target shape must be positive")
    h, w = img.shape[:2]
    data = img.astype(np.float64)

    ys = (np.arange(new_h) + 0.5) * h / new_h - 0.5
    xs = (np.arange(new_w) + 0.5) * w / new_w - 0.5
    ys = np.clip(ys, 0, h - 1)
    xs = np.clip(xs, 0, w - 1)
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0).reshape(-1, 1)
    wx = (xs - x0).reshape(1, -1)
    if img.ndim == 3:
        wy = wy[..., None]
        wx = wx[..., None]

    top = data[y0][:, x0] * (1 - wx) + data[y0][:, x1] * wx
    bot = data[y1][:, x0] * (1 - wx) + data[y1][:, x1] * wx
    out = top * (1 - wy) + bot * wy
    if np.issubdtype(img.dtype, np.integer):
        info = np.iinfo(img.dtype)
        return np.clip(np.round(out), info.min, info.max).astype(img.dtype)
    return out.astype(img.dtype, copy=False) if np.issubdtype(img.dtype, np.floating) else out


def _pad_bottom_right(image: np.ndarray, pad_h: int, pad_w: int, mode: str) -> np.ndarray:
    """Pad the bottom/right edges, falling back to edge padding per axis when
    reflect padding is impossible (``np.pad`` reflect cannot pad wider than
    ``dim - 1``, which breaks on degenerate 1-pixel-wide inputs)."""
    if pad_h == 0 and pad_w == 0:
        return image
    h, w = image.shape[:2]
    if mode == "reflect" and ((pad_h > max(h - 1, 0)) or (pad_w > max(w - 1, 0))):
        out = image
        if pad_h:
            spec = [(0, pad_h)] + [(0, 0)] * (out.ndim - 1)
            out = np.pad(out, spec, mode="reflect" if pad_h <= h - 1 else "edge")
        if pad_w:
            spec = [(0, 0), (0, pad_w)] + [(0, 0)] * (out.ndim - 2)
            out = np.pad(out, spec, mode="reflect" if pad_w <= w - 1 else "edge")
        return out
    spec = [(0, pad_h), (0, pad_w)] + [(0, 0)] * (image.ndim - 2)
    return np.pad(image, spec, mode=mode)


def pad_to_multiple(image: np.ndarray, multiple: int, mode: str = "reflect") -> np.ndarray:
    """Pad the bottom/right edges so height and width are multiples of ``multiple``."""
    if multiple < 1:
        raise ValueError("multiple must be >= 1")
    img = np.asarray(image)
    h, w = img.shape[:2]
    return _pad_bottom_right(img, (-h) % multiple, (-w) % multiple, mode)


class TileGrid(tuple):
    """Geometry of one tiling produced by :func:`split_into_tiles`.

    Behaves exactly like the legacy ``(rows, cols)`` tuple (equality,
    unpacking, indexing), and additionally carries the tile size, overlap,
    and the original/padded scene shapes that overlap-aware reassembly needs.
    """

    tile_size: int
    overlap: int
    image_shape: tuple[int, int]
    padded_shape: tuple[int, int]

    def __new__(
        cls,
        rows: int,
        cols: int,
        tile_size: int,
        overlap: int,
        image_shape: tuple[int, int],
        padded_shape: tuple[int, int],
    ) -> "TileGrid":
        self = super().__new__(cls, (int(rows), int(cols)))
        self.tile_size = int(tile_size)
        self.overlap = int(overlap)
        self.image_shape = (int(image_shape[0]), int(image_shape[1]))
        self.padded_shape = (int(padded_shape[0]), int(padded_shape[1]))
        return self

    @property
    def rows(self) -> int:
        return self[0]

    @property
    def cols(self) -> int:
        return self[1]

    @property
    def stride(self) -> int:
        return self.tile_size - self.overlap

    @property
    def num_tiles(self) -> int:
        return self[0] * self[1]

    @classmethod
    def covering(cls, image_shape: tuple[int, int], tile_size: int, overlap: int = 0) -> "TileGrid":
        """The grid :func:`split_into_tiles` cuts an ``image_shape`` scene into: per axis, the
        fewest tiles at stride ``tile_size - overlap`` that reach the far edge (one when the
        axis fits in a tile), the scene padded out to where the last tile ends."""
        if tile_size < 1:
            raise ValueError("tile_size must be >= 1")
        if not 0 <= overlap < tile_size:
            raise ValueError("overlap must satisfy 0 <= overlap < tile_size")
        stride = tile_size - overlap
        counts = [1 if n <= tile_size else -(-(n - tile_size) // stride) + 1 for n in image_shape]
        padded = [(count - 1) * stride + tile_size for count in counts]
        return cls(*counts, tile_size, overlap, image_shape=image_shape, padded_shape=padded)

    def __reduce__(self):
        return (TileGrid, (self[0], self[1], self.tile_size, self.overlap, self.image_shape, self.padded_shape))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TileGrid(rows={self[0]}, cols={self[1]}, tile_size={self.tile_size}, "
                f"overlap={self.overlap}, image_shape={self.image_shape})")


def blend_window(tile_size: int, overlap: int) -> np.ndarray:
    """Separable 2-D blend weights for overlapped reassembly.

    The window is 1 over the tile interior and tapers linearly across the
    overlapped margin, so two neighbouring tiles cross-fade instead of
    switching abruptly at the seam.  Weights are strictly positive;
    :func:`assemble_from_tiles` normalises by the accumulated weight sum, so
    border tiles (whose margins overlap nothing) are handled automatically.
    """
    if tile_size < 1:
        raise ValueError("tile_size must be >= 1")
    if not 0 <= overlap < tile_size:
        raise ValueError("overlap must satisfy 0 <= overlap < tile_size")
    w1 = np.ones(tile_size, dtype=np.float64)
    taper = min(overlap, tile_size // 2)
    if taper > 0:
        ramp = np.arange(1, taper + 1, dtype=np.float64) / (taper + 1)
        w1[:taper] = ramp
        w1[-taper:] = ramp[::-1]
    return np.outer(w1, w1)


def split_into_tiles(
    image: np.ndarray, tile_size: int = 256, overlap: int = 0
) -> tuple[np.ndarray, TileGrid]:
    """Split a scene into ``tile_size``×``tile_size`` tiles.

    With ``overlap == 0`` (the default) the scene is cut into disjoint tiles
    after reflect-padding up to a tile-size multiple, matching how the paper
    cuts 66 big scenes into 4224 tiles.  With ``overlap > 0`` neighbouring
    tiles share ``overlap`` pixels (stride ``tile_size - overlap``), which is
    what seam-free blended inference consumes.

    Returns ``(tiles, grid)`` where ``tiles`` has shape
    ``(n_tiles, tile_size, tile_size[, C])`` and ``grid`` is a
    :class:`TileGrid` (usable as a plain ``(rows, cols)`` tuple).
    """
    img = np.asarray(image)
    h, w = img.shape[:2]
    grid = TileGrid.covering((h, w), tile_size, overlap)
    rows, cols = grid
    stride = grid.stride
    img = _pad_bottom_right(img, grid.padded_shape[0] - h, grid.padded_shape[1] - w, "reflect")

    if overlap == 0:
        if img.ndim == 2:
            tiles = img.reshape(rows, tile_size, cols, tile_size).swapaxes(1, 2)
            tiles = tiles.reshape(rows * cols, tile_size, tile_size)
        else:
            c = img.shape[2]
            tiles = img.reshape(rows, tile_size, cols, tile_size, c).swapaxes(1, 2)
            tiles = tiles.reshape(rows * cols, tile_size, tile_size, c)
        return np.ascontiguousarray(tiles), grid

    windows = np.lib.stride_tricks.sliding_window_view(img, (tile_size, tile_size), axis=(0, 1))
    windows = windows[::stride, ::stride]  # (rows, cols[, C], tile, tile)
    if img.ndim == 2:
        tiles = windows.reshape(rows * cols, tile_size, tile_size)
    else:
        tiles = windows.transpose(0, 1, 3, 4, 2).reshape(rows * cols, tile_size, tile_size, img.shape[2])
    return np.ascontiguousarray(tiles), grid


def _assemble_disjoint(tiles: np.ndarray, rows: int, cols: int) -> np.ndarray:
    t = tiles.shape[1]
    if tiles.ndim == 3:
        out = tiles.reshape(rows, cols, t, t).swapaxes(1, 2).reshape(rows * t, cols * t)
    else:
        c = tiles.shape[-1]
        out = tiles.reshape(rows, cols, t, t, c).swapaxes(1, 2).reshape(rows * t, cols * t, c)
    return np.ascontiguousarray(out)


def _blend_tile_row(acc: np.ndarray, weights: np.ndarray, tiles: np.ndarray, overlap: int) -> None:
    """Add one grid row of ``(cols, t, t, c)`` tiles, windowed, into the ``(t, padded_w, c)``
    float64 sums ``acc`` and their ``(t, padded_w, 1)`` window ``weights``, left to right."""
    t = tiles.shape[1]
    window = blend_window(t, overlap)[..., None]
    for q, tile in enumerate(tiles):
        x = q * (t - overlap)
        acc[:, x : x + t] += window * tile
        weights[:, x : x + t] += window


def _assemble_blended(tiles: np.ndarray, grid: TileGrid) -> np.ndarray:
    rows, cols = grid
    t, stride = grid.tile_size, grid.stride
    ph, pw = grid.padded_shape
    has_channels = tiles.ndim == 4
    c = tiles.shape[-1] if has_channels else 1
    acc = np.zeros((ph, pw, c), dtype=np.float64)
    weights = np.zeros((ph, pw, 1), dtype=np.float64)
    for r in range(rows):
        y = r * stride
        _blend_tile_row(acc[y : y + t], weights[y : y + t], tiles[r * cols : (r + 1) * cols].reshape(cols, t, t, c),
                        grid.overlap)
    out = acc / weights
    return out[..., 0] if not has_channels else out


def assemble_from_tiles(tiles: np.ndarray, grid: TileGrid) -> np.ndarray:
    """Inverse of :func:`split_into_tiles`: stitch tiles back into a scene.

    The output is cropped back to the original (pre-padding) scene shape.
    Overlapped grids are reassembled by weighted blending (see
    :func:`blend_window`) and therefore return a floating-point scene —
    blend probability maps, not argmax label maps.
    """
    tiles = np.asarray(tiles)
    rows, cols = grid
    if tiles.shape[0] != rows * cols:
        raise ValueError(f"expected {rows * cols} tiles, got {tiles.shape[0]}")
    if tiles.shape[1] != grid.tile_size or tiles.shape[2] != grid.tile_size:
        raise ValueError(f"tiles of shape {tiles.shape[1:3]} do not match grid tile_size {grid.tile_size}")
    h, w = grid.image_shape
    if grid.overlap == 0:
        return _assemble_disjoint(tiles, rows, cols)[:h, :w]
    return _assemble_blended(tiles, grid)[:h, :w]
