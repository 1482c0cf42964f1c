"""Batch loading, normalisation and augmentation for U-Net training.

The paper "organise[s] the data into batches for the U-Net models using
dataloader" with batch sizes of 16/32/64 and relies on U-Net's heavy use of
data augmentation.  This loader converts uint8 RGB tiles into normalised
``(N, C, H, W)`` float32 batches with integer class-map targets, supports shuffling
and the standard flip / rotate-90 augmentations that preserve label maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = ["image_to_tensor", "augment_batch", "BatchLoader"]


def image_to_tensor(images: np.ndarray) -> np.ndarray:
    """Convert ``(N, H, W, 3)`` uint8 (or ``(H, W, 3)``) images to NCHW float32 in [0, 1]."""
    arr = np.asarray(images)
    single = arr.ndim == 3
    if single:
        arr = arr[None]
    if arr.ndim != 4 or arr.shape[-1] != 3:
        raise ValueError(f"expected (N, H, W, 3) images, got shape {np.asarray(images).shape}")
    tensor = arr.astype(np.float32) / 255.0
    tensor = np.transpose(tensor, (0, 3, 1, 2))
    return tensor[0] if single else tensor


def augment_batch(
    images: np.ndarray,
    labels: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply independent random dihedral augmentations to a whole batch at once.

    ``images`` is ``(N, C, H, W)`` float32, ``labels`` is ``(N, H, W)`` int;
    both are modified in place and returned.  Each sample draws its own flips
    and rotation from the 8-element dihedral group (flips + 90° rotations,
    exact for square tiles, so image and label stay aligned); the work is
    vectorised per transform over the sub-batch that drew it.
    """
    img = np.asarray(images)
    lab = np.asarray(labels)
    if img.ndim != 4 or lab.ndim != 3 or img.shape[2:] != lab.shape[1:] or img.shape[0] != lab.shape[0]:
        raise ValueError("augment_batch expects (N, C, H, W) images and matching (N, H, W) labels")
    n = img.shape[0]
    flip_w = rng.uniform(size=n) < 0.5
    if flip_w.any():
        img[flip_w] = img[flip_w, :, :, ::-1]
        lab[flip_w] = lab[flip_w, :, ::-1]
    flip_h = rng.uniform(size=n) < 0.5
    if flip_h.any():
        img[flip_h] = img[flip_h, :, ::-1, :]
        lab[flip_h] = lab[flip_h, ::-1, :]
    if img.shape[2] == img.shape[3]:
        quarter_turns = rng.integers(0, 4, size=n)
        for k in (1, 2, 3):
            sel = quarter_turns == k
            if sel.any():
                img[sel] = np.rot90(img[sel], k=k, axes=(2, 3))
                lab[sel] = np.rot90(lab[sel], k=k, axes=(1, 2))
    return img, lab


@dataclass
class BatchLoader:
    """Mini-batch iterator over (image, label) tile pairs.

    Parameters
    ----------
    images:
        ``(N, H, W, 3)`` uint8 tiles.
    labels:
        ``(N, H, W)`` integer class maps.
    batch_size:
        Number of tiles per batch (paper uses 16/32/64, default 32).
    shuffle:
        Reshuffle the order every epoch.
    augment:
        Apply random flips/rotations per sample.
    drop_last:
        Drop the final incomplete batch (needed for fixed-size distributed shards).
    seed:
        Seed of the loader's private random generator.
    """

    images: np.ndarray
    labels: np.ndarray
    batch_size: int = 32
    shuffle: bool = True
    augment: bool = False
    drop_last: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        self.images = np.asarray(self.images)
        self.labels = np.asarray(self.labels)
        if self.images.shape[0] != self.labels.shape[0]:
            raise ValueError("images and labels must have the same length")
        if self.images.shape[0] == 0:
            raise ValueError("cannot build a loader over zero tiles")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self._rng = np.random.default_rng(self.seed)

    def __len__(self) -> int:
        n = self.images.shape[0]
        if self.drop_last:
            return n // self.batch_size
        return int(np.ceil(n / self.batch_size))

    # ------------------------------------------------------------------ #
    def rng_state(self) -> dict:
        """JSON-serialisable snapshot of the loader's private generator.

        Captured into checkpoints so a resumed run replays the exact same
        shuffle permutations and augmentation draws as the uninterrupted
        one — shuffling and augmentation both consume this generator, so
        without the snapshot a resume silently forks the data trajectory.
        """
        return self._rng.bit_generator.state

    def set_rng_state(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`rng_state`."""
        self._rng.bit_generator.state = state

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(x, y)`` with ``x`` NCHW float32 and ``y`` (N, H, W) int64."""
        n = self.images.shape[0]
        order = self._rng.permutation(n) if self.shuffle else np.arange(n)
        num_batches = len(self)
        for b in range(num_batches):
            idx = order[b * self.batch_size : (b + 1) * self.batch_size]
            if idx.size == 0:
                continue
            x = image_to_tensor(self.images[idx])
            y = self.labels[idx].astype(np.int64)
            if self.augment:
                augment_batch(x, y, self._rng)
            yield x, y
