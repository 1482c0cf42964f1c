"""Tests for repro.data.loader (tensors, one-hot, augmentation, batching)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import BatchLoader, augment_batch, image_to_tensor


class TestImageToTensor:
    def test_batch_conversion(self, tiny_dataset):
        x = image_to_tensor(tiny_dataset.images)
        assert x.shape == (len(tiny_dataset), 3, 32, 32)
        assert x.dtype == np.float32
        assert x.min() >= 0.0 and x.max() <= 1.0

    def test_single_image(self, rgb_image):
        x = image_to_tensor(rgb_image)
        assert x.shape == (3,) + rgb_image.shape[:2]

    def test_values_scaled(self):
        img = np.full((4, 4, 3), 255, dtype=np.uint8)
        assert np.all(image_to_tensor(img) == 1.0)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            image_to_tensor(np.zeros((4, 4), dtype=np.uint8))


class TestAugmentBatch:
    def test_images_and_labels_stay_aligned(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, size=(6, 16, 16)).astype(np.int64)
        images = labels[:, None].astype(np.float32).repeat(3, axis=1)  # image encodes label
        for seed in range(5):
            img = images.copy()
            lab = labels.copy()
            augment_batch(img, lab, np.random.default_rng(seed))
            np.testing.assert_array_equal(img[:, 0].astype(np.int64), lab)

    def test_preserves_shapes_and_class_histogram(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 3, size=(5, 12, 12)).astype(np.int64)
        images = rng.random((5, 3, 12, 12), dtype=np.float32)
        img, lab = augment_batch(images.copy(), labels.copy(), np.random.default_rng(2))
        assert img.shape == images.shape and lab.shape == labels.shape
        for i in range(labels.shape[0]):
            np.testing.assert_array_equal(np.bincount(lab[i].ravel(), minlength=3),
                                          np.bincount(labels[i].ravel(), minlength=3))

    def test_matches_augment_pair_distribution(self):
        """Batch augmentation draws per-sample transforms: across many samples
        the full dihedral group must show up, not one batch-wide transform."""
        rng = np.random.default_rng(3)
        base = rng.random((1, 4, 4), dtype=np.float32)
        images = np.repeat(base[None], 64, axis=0)
        labels = np.zeros((64, 4, 4), dtype=np.int64)
        img, _ = augment_batch(images.copy(), labels, np.random.default_rng(4))
        distinct = {img[i].tobytes() for i in range(64)}
        # All samples started identical; independent draws must produce
        # several distinct orientations (8 possible, 64 draws).
        assert len(distinct) >= 4

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            augment_batch(np.zeros((2, 3, 8, 8)), np.zeros((3, 8, 8)), np.random.default_rng(0))


    @pytest.mark.parametrize("size", [(8, 8), (6, 10)], ids=["square", "oblong"])
    def test_each_sample_draws_a_dihedral_transform(self, size):
        """Every sample comes out as one symmetry of its own input, the same one for image
        and label; over 64 samples a square tile sees all 8, an oblong one the 4 flips."""
        h, w = size
        base = np.arange(h * w, dtype=np.int64).reshape(h, w)
        lab = np.repeat(base[None], 64, axis=0)
        img = lab[:, None].astype(np.float32).repeat(2, axis=1)
        augment_batch(img, lab, np.random.default_rng(11))
        group = [base, base[:, ::-1], base[::-1], base[::-1, ::-1]]
        if h == w:
            group += [np.rot90(g) for g in group]
        seen = set()
        for sample_img, sample_lab in zip(img, lab):
            np.testing.assert_array_equal(sample_img[0], sample_lab)
            np.testing.assert_array_equal(sample_img[1], sample_lab)
            matches = [i for i, g in enumerate(group) if g.shape == sample_lab.shape and np.array_equal(g, sample_lab)]
            assert len(matches) == 1
            seen.add(matches[0])
        assert seen == set(range(len(group)))


class TestAugmentPair:
    """One (image, label) pair: the batch of one a loader hands over when ``N % batch_size == 1``."""

    def test_image_and_label_stay_aligned(self):
        label = np.random.default_rng(0).integers(0, 3, size=(1, 16, 16)).astype(np.int64)
        image = label[:, None].astype(np.float32).repeat(3, axis=1)  # image encodes the label
        for seed in range(5):
            aug_img, aug_lab = augment_batch(image.copy(), label.copy(), np.random.default_rng(seed))
            np.testing.assert_array_equal(aug_img[0, 0].astype(np.int64), aug_lab[0])

    def test_preserves_shapes(self):
        image = np.zeros((1, 3, 8, 8), dtype=np.float32)
        label = np.zeros((1, 8, 8), dtype=np.int64)
        aug_img, aug_lab = augment_batch(image, label, np.random.default_rng(1))
        assert aug_img.shape == (1, 3, 8, 8) and aug_lab.shape == (1, 8, 8)

    def test_preserves_class_histogram(self):
        label = np.random.default_rng(2).integers(0, 3, size=(1, 12, 12)).astype(np.int64)
        before = np.bincount(label.ravel(), minlength=3)
        _, aug_lab = augment_batch(np.zeros((1, 3, 12, 12), dtype=np.float32), label, np.random.default_rng(3))
        np.testing.assert_array_equal(np.bincount(aug_lab.ravel(), minlength=3), before)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            augment_batch(np.zeros((1, 3, 8, 8)), np.zeros((1, 6, 6)), np.random.default_rng(0))


class TestBatchLoader:
    def test_iteration_covers_all_samples(self, tiny_dataset):
        loader = BatchLoader(tiny_dataset.images, tiny_dataset.labels, batch_size=3, shuffle=False)
        total = sum(x.shape[0] for x, _ in loader)
        assert total == len(tiny_dataset)
        assert len(loader) == 3  # 8 tiles in batches of 3 -> 3 batches

    def test_drop_last(self, tiny_dataset):
        loader = BatchLoader(tiny_dataset.images, tiny_dataset.labels, batch_size=3, drop_last=True)
        assert len(loader) == 2
        total = sum(x.shape[0] for x, _ in loader)
        assert total == 6

    def test_batch_types(self, tiny_dataset):
        loader = BatchLoader(tiny_dataset.images, tiny_dataset.labels, batch_size=4, shuffle=False)
        x, y = next(iter(loader))
        assert x.dtype == np.float32 and x.shape[1] == 3
        assert y.dtype == np.int64 and y.shape == (4, 32, 32)

    def test_shuffle_changes_order_but_not_content(self, tiny_dataset):
        loader = BatchLoader(tiny_dataset.images, tiny_dataset.labels, batch_size=8, shuffle=True, seed=3)
        x1, y1 = next(iter(loader))
        x2, y2 = next(iter(loader))
        assert np.isclose(np.sort(y1.ravel()).sum(), np.sort(y2.ravel()).sum())

    def test_deterministic_without_shuffle(self, tiny_dataset):
        a = BatchLoader(tiny_dataset.images, tiny_dataset.labels, batch_size=4, shuffle=False)
        b = BatchLoader(tiny_dataset.images, tiny_dataset.labels, batch_size=4, shuffle=False)
        np.testing.assert_array_equal(next(iter(a))[0], next(iter(b))[0])

    def test_augment_does_not_change_class_set(self, tiny_dataset):
        loader = BatchLoader(tiny_dataset.images, tiny_dataset.labels, batch_size=8, augment=True, seed=1)
        _, y = next(iter(loader))
        assert set(np.unique(y)).issubset({0, 1, 2})

    def test_rejects_empty_or_mismatched(self, tiny_dataset):
        with pytest.raises(ValueError):
            BatchLoader(tiny_dataset.images[:0], tiny_dataset.labels[:0])
        with pytest.raises(ValueError):
            BatchLoader(tiny_dataset.images, tiny_dataset.labels[:-1])
        with pytest.raises(ValueError):
            BatchLoader(tiny_dataset.images, tiny_dataset.labels, batch_size=0)
