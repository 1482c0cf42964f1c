"""Tile catalog: scene → 256×256 tiles, metadata, and dataset splits.

The paper's training corpus is 66 large scenes split into 4224 tiles of
256×256 pixels, divided 80/20 into training and test sets, and further
split by cloud/shadow coverage (more/less than about 10 %) for Table V.
This module reproduces that bookkeeping for synthetic scenes of any size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..imops.resize import split_into_tiles
from .scene import Scene, synthesize_scenes

__all__ = ["TileRecord", "TileDataset", "build_dataset", "train_test_split"]


@dataclass
class TileRecord:
    """Metadata of a single tile within its parent scene."""

    scene_index: int
    tile_index: int
    cloud_shadow_fraction: float


class _ArrayField:
    """An array attribute of :class:`TileDataset`: set to an ndarray, or to a source with ``shape`` and
    ``read()`` (an archive member, see :func:`repro.data.io.load_dataset`) that its first read replaces by the array."""

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None) -> np.ndarray:
        if obj is None:
            raise AttributeError(self.name)  # no class-level default: the dataclass field stays required
        value = vars(obj)[self.name]
        if not isinstance(value, np.ndarray):
            value = vars(obj)[self.name] = value.read()
        return value

    def __set__(self, obj, value) -> None:
        vars(obj)[self.name] = value


@dataclass
class TileDataset:
    """A set of tiles with observed imagery, clean imagery and ground truth.

    Attributes
    ----------
    images:
        ``(N, T, T, 3)`` uint8 observed (possibly cloudy) RGB tiles.
    clean_images:
        ``(N, T, T, 3)`` uint8 cloud/shadow-free RGB tiles.
    labels:
        ``(N, T, T)`` uint8 ground-truth class maps (the "manual labels").
    records:
        Per-tile metadata aligned with the arrays.
    """

    images: np.ndarray = _ArrayField()
    clean_images: np.ndarray = _ArrayField()
    labels: np.ndarray = _ArrayField()
    records: list[TileRecord]

    def __post_init__(self) -> None:
        held = vars(self)  # shapes as held: checking a length must not inflate an archive member
        if {held[name].shape[0] for name in ("images", "clean_images", "labels")} != {len(self.records)}:
            raise ValueError("images, clean_images, labels and records must have equal length")

    def __len__(self) -> int:
        return len(self.records)

    @property
    def tile_size(self) -> int:
        return int(vars(self)["images"].shape[1])

    @property
    def cloud_shadow_fractions(self) -> np.ndarray:
        return np.array([r.cloud_shadow_fraction for r in self.records])

    def subset(self, indices: "np.ndarray | list[int]") -> "TileDataset":
        """Return a new dataset restricted to ``indices`` (order preserved)."""
        idx = np.asarray(indices, dtype=np.intp)
        return TileDataset(
            images=self.images[idx],
            clean_images=self.clean_images[idx],
            labels=self.labels[idx],
            records=[self.records[i] for i in idx],
        )

    def split_by_cloud_coverage(self, threshold: float = 0.10) -> tuple["TileDataset", "TileDataset"]:
        """Split into (more cloudy than threshold, less cloudy) — the Table V split."""
        fractions = self.cloud_shadow_fractions
        cloudy_idx = np.flatnonzero(fractions > threshold)
        clear_idx = np.flatnonzero(fractions <= threshold)
        return self.subset(cloudy_idx), self.subset(clear_idx)

    def class_distribution(self) -> np.ndarray:
        """Fraction of pixels per class over the whole dataset."""
        counts = np.bincount(self.labels.ravel(), minlength=3).astype(np.float64)
        return counts / counts.sum()


def tiles_from_scenes(scenes: list[Scene], tile_size: int = 256) -> TileDataset:
    """Cut every scene into tiles and collect them into one :class:`TileDataset`."""
    if not scenes:
        raise ValueError("need at least one scene")
    images, cleans, labels, records = [], [], [], []
    for s_idx, scene in enumerate(scenes):
        obs_tiles, _ = split_into_tiles(scene.rgb, tile_size)
        clean_tiles, _ = split_into_tiles(scene.clean_rgb, tile_size)
        label_tiles, _ = split_into_tiles(scene.class_map, tile_size)
        affected_tiles, _ = split_into_tiles(scene.veil.affected_mask.astype(np.uint8), tile_size)
        for t_idx in range(obs_tiles.shape[0]):
            images.append(obs_tiles[t_idx])
            cleans.append(clean_tiles[t_idx])
            labels.append(label_tiles[t_idx])
            records.append(
                TileRecord(
                    scene_index=s_idx,
                    tile_index=t_idx,
                    cloud_shadow_fraction=float(affected_tiles[t_idx].mean()),
                )
            )
    return TileDataset(
        images=np.stack(images),
        clean_images=np.stack(cleans),
        labels=np.stack(labels),
        records=records,
    )


def build_dataset(
    num_scenes: int = 4,
    scene_size: int = 512,
    tile_size: int = 256,
    base_seed: int = 0,
    cloudy_fraction: float = 0.5,
) -> TileDataset:
    """Synthesise scenes and cut them into a tile dataset in one call.

    The paper-scale configuration is ``num_scenes=66, scene_size=2048,
    tile_size=256`` which yields exactly 4224 tiles; the defaults are small
    so tests and examples stay fast.
    """
    scenes = synthesize_scenes(num_scenes, height=scene_size, width=scene_size, base_seed=base_seed,
                               cloudy_fraction=cloudy_fraction)
    return tiles_from_scenes(scenes, tile_size=tile_size)


def train_test_split(
    dataset: TileDataset,
    test_fraction: float = 0.2,
    seed: int = 0,
) -> tuple[TileDataset, TileDataset]:
    """Random 80/20 train/test split of tiles (paper §IV-A)."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    n = len(dataset)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_test = max(1, int(round(n * test_fraction)))
    test_idx = order[:n_test]
    train_idx = order[n_test:]
    if train_idx.size == 0:
        raise ValueError("dataset too small for the requested split")
    return dataset.subset(train_idx), dataset.subset(test_idx)
