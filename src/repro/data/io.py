"""Dataset persistence: save and load tile archives as compressed ``.npz`` files.

Generating (or, in a real deployment, downloading and tiling) a scene archive
is by far the slowest part of the workflow, so the catalog can be written to
disk once and re-loaded by every subsequent experiment.  The format is a
single compressed ``.npz`` holding the observed tiles, the clean tiles, the
ground-truth labels and the per-tile metadata columns.
"""

from __future__ import annotations

import os
import zipfile
import zlib
from functools import partial
from types import SimpleNamespace

import numpy as np
from numpy.lib import format as npformat

from .catalog import TileDataset, TileRecord

__all__ = ["save_dataset", "load_dataset"]

_FORMAT_VERSION = 1
_ARRAYS = ("images", "clean_images", "labels")
_COLUMNS = ("scene_index", "tile_index", "cloud_shadow_fraction")


def save_dataset(dataset: TileDataset, path: "str | os.PathLike") -> str:
    """Write a :class:`TileDataset` to ``path`` (``.npz`` appended if missing).

    Returns the path actually written.
    """
    path = str(path)
    if not path.endswith(".npz"):
        path = path + ".npz"
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    np.savez_compressed(
        path,
        format_version=np.array(_FORMAT_VERSION),
        images=dataset.images,
        clean_images=dataset.clean_images,
        labels=dataset.labels,
        scene_index=np.array([r.scene_index for r in dataset.records], dtype=np.int64),
        tile_index=np.array([r.tile_index for r in dataset.records], dtype=np.int64),
        cloud_shadow_fraction=np.array([r.cloud_shadow_fraction for r in dataset.records], dtype=np.float64),
    )
    return path


def _read_member(path: str, name: str, header_only: bool = False):
    """Array ``name`` of the archive at ``path`` -- or only its shape, which inflates no more than the header's block.

    Damage of any kind (bad CRC, broken deflate stream, data shorter or longer than the header says)
    is a ``ValueError`` naming the archive and the member.
    """
    try:
        with zipfile.ZipFile(path) as archive, archive.open(name + ".npy") as member:
            if header_only:
                version = npformat.read_magic(member)
                read_header = npformat.read_array_header_1_0 if version == (1, 0) else npformat.read_array_header_2_0
                return read_header(member)[0]
            array = npformat.read_array(member)
            if member.read(1):  # also what takes zipfile to the member's end, where it checks the CRC
                raise ValueError("data continues past the length its header gives")
            return array
    except (zipfile.BadZipFile, zlib.error, EOFError, ValueError) as exc:
        raise ValueError(f"{path}: member {name!r} is truncated or corrupt: {exc}") from exc


def load_dataset(path: "str | os.PathLike") -> TileDataset:
    """Load a :class:`TileDataset` previously written by :func:`save_dataset`.

    Member names, the format version and every length are checked here, from the ``.npy`` headers;
    ``images`` / ``clean_images`` / ``labels`` are each inflated when first read, once.
    """
    path = str(path)
    if not os.path.exists(path) and os.path.exists(path + ".npz"):
        path = path + ".npz"
    with zipfile.ZipFile(path) as archive:
        present = {name.removesuffix(".npy") for name in archive.namelist()}
    missing = set(_ARRAYS + _COLUMNS) - present
    if missing:
        raise ValueError(f"{path} is not a tile-dataset archive (missing {sorted(missing)})")
    version = int(_read_member(path, "format_version")) if "format_version" in present else 0
    if version > _FORMAT_VERSION:
        raise ValueError(f"archive format version {version} is newer than supported ({_FORMAT_VERSION})")
    records = [
        TileRecord(scene_index=int(s), tile_index=int(t), cloud_shadow_fraction=float(f))
        for s, t, f in zip(*(_read_member(path, column) for column in _COLUMNS))
    ]
    # What the dataset holds for an array until its first read: the header's shape, and how to inflate the rest.
    arrays = [SimpleNamespace(shape=_read_member(path, name, header_only=True), read=partial(_read_member, path, name)) for name in _ARRAYS]
    return TileDataset(*arrays, records=records)
