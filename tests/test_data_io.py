"""Tests for repro.data.io (dataset persistence)."""

from __future__ import annotations

import io
import struct
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.data import io as dataset_io
from repro.data import load_dataset, save_dataset, train_test_split


class TestDatasetIO:
    def test_round_trip(self, tiny_dataset, tmp_path):
        path = save_dataset(tiny_dataset, tmp_path / "archive")
        assert path.endswith(".npz")
        loaded = load_dataset(path)
        np.testing.assert_array_equal(loaded.images, tiny_dataset.images)
        np.testing.assert_array_equal(loaded.clean_images, tiny_dataset.clean_images)
        np.testing.assert_array_equal(loaded.labels, tiny_dataset.labels)
        assert len(loaded.records) == len(tiny_dataset.records)
        for a, b in zip(loaded.records, tiny_dataset.records):
            assert (a.scene_index, a.tile_index) == (b.scene_index, b.tile_index)
            assert a.cloud_shadow_fraction == pytest.approx(b.cloud_shadow_fraction)

    def test_loaded_dataset_supports_splits(self, tiny_dataset, tmp_path):
        path = save_dataset(tiny_dataset, tmp_path / "archive.npz")
        loaded = load_dataset(path)
        train, test = train_test_split(loaded, test_fraction=0.25, seed=0)
        assert len(train) + len(test) == len(tiny_dataset)

    def test_load_without_suffix(self, tiny_dataset, tmp_path):
        save_dataset(tiny_dataset, tmp_path / "archive")
        loaded = load_dataset(tmp_path / "archive")
        assert len(loaded) == len(tiny_dataset)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "does_not_exist.npz")

    def test_rejects_foreign_archive(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez_compressed(path, something=np.zeros(3))
        with pytest.raises(ValueError):
            load_dataset(path)


@pytest.fixture
def archive(tiny_dataset, tmp_path):
    return save_dataset(tiny_dataset, tmp_path / "archive.npz")


@pytest.fixture
def inflated(monkeypatch):
    """Names of the archive members read in full (header-only reads are not inflations), in order."""
    names = []
    read_member = dataset_io._read_member

    def counting(path, name, header_only=False):
        if not header_only:
            names.append(name)
        return read_member(path, name, header_only)

    monkeypatch.setattr(dataset_io, "_read_member", counting)
    return names


def rewrite_member(path, member, edit):
    """Re-pack the archive with ``edit`` applied to one member's ``.npy`` bytes (CRCs stay valid)."""
    with zipfile.ZipFile(path) as source:
        blobs = {name: source.read(name) for name in source.namelist()}
    blobs[member + ".npy"] = edit(blobs[member + ".npy"])
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as target:
        for name, blob in blobs.items():
            target.writestr(name, blob)


def flip_stored_byte(path, member):
    """Flip one byte in the middle of a member's deflate stream, behind the zip directory's back."""
    with zipfile.ZipFile(path) as source:
        info = source.getinfo(member + ".npy")
    raw = bytearray(Path(path).read_bytes())
    name_len, extra_len = struct.unpack("<HH", raw[info.header_offset + 26 : info.header_offset + 30])
    raw[info.header_offset + 30 + name_len + extra_len + info.compress_size // 2] ^= 0xFF
    Path(path).write_bytes(raw)


ARRAYS = ["images", "clean_images", "labels"]
SMALL = ["format_version", "scene_index", "tile_index", "cloud_shadow_fraction"]


class TestLazyMembers:
    """An array is inflated when it is first read, once; what is never read is never inflated."""

    def test_only_what_is_read_is_inflated(self, tiny_dataset, archive, inflated):
        loaded = load_dataset(archive)
        assert len(loaded) == len(tiny_dataset) and loaded.tile_size == tiny_dataset.tile_size
        assert inflated == SMALL  # lengths and tile size come from the .npy headers
        images = loaded.images
        np.testing.assert_array_equal(images, tiny_dataset.images)
        assert inflated == SMALL + ["images"]
        assert loaded.images is images and images.flags.writeable
        assert inflated == SMALL + ["images"]
        loaded.labels, loaded.clean_images
        assert inflated == SMALL + ["images", "labels", "clean_images"]

    def test_splits_of_a_loaded_dataset_equal_the_in_memory_ones(self, tiny_dataset, archive):
        for got, want in zip(load_dataset(archive).split_by_cloud_coverage(0.05), tiny_dataset.split_by_cloud_coverage(0.05)):
            assert len(got) == len(want)
            for name in ARRAYS:
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    @pytest.mark.parametrize("damage", [
        flip_stored_byte,
        lambda path, member: rewrite_member(path, member, lambda blob: blob[: len(blob) // 2]),
        lambda path, member: rewrite_member(path, member, lambda blob: blob + b"\0"),
    ], ids=["bad-crc-or-stream", "truncated", "overlong"])
    def test_a_damaged_member_raises_at_its_first_read_and_spares_the_others(self, tiny_dataset, archive, damage):
        damage(archive, "clean_images")
        loaded = load_dataset(archive)
        np.testing.assert_array_equal(loaded.images, tiny_dataset.images)
        with pytest.raises(ValueError, match=r"archive\.npz.*'clean_images'"):
            loaded.clean_images
        np.testing.assert_array_equal(loaded.labels, tiny_dataset.labels)

    def test_a_length_that_disagrees_with_the_records_is_rejected_before_any_inflate(self, tiny_dataset, archive, inflated):
        def one_short(blob):
            out = io.BytesIO()
            np.save(out, np.load(io.BytesIO(blob))[:-1])
            return out.getvalue()

        rewrite_member(archive, "labels", one_short)
        with pytest.raises(ValueError, match="equal length"):
            load_dataset(archive)
        assert inflated == SMALL
