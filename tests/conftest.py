"""Shared fixtures for the test suite.

All fixtures are deliberately small (tiny scenes and tiles) so the whole
suite stays fast; the paper-scale paths are exercised by the benchmark
harness instead.
"""

from __future__ import annotations

import multiprocessing
import zipfile

import numpy as np
import pytest

from repro.data import SceneSpec, build_dataset, synthesize_scene, train_test_split

from leaks import shm_segments


@pytest.fixture(scope="session", autouse=True)
def no_leaked_workers_or_segments():
    """Fail the run if it ends with a worker process still alive or a
    ``repro_ms_*`` shared-memory segment it created still in ``/dev/shm``."""
    before = shm_segments()
    yield
    leaked = shm_segments() - before
    assert not leaked, f"shared-memory segments leaked by the suite: {sorted(leaked)}"
    children = multiprocessing.active_children()
    assert not children, f"worker processes left alive by the suite: {children}"


@pytest.fixture(params=["stored", "deflated"])
def archive_writer(request, monkeypatch) -> int:
    """Checkpoints as this code writes them (stored members) and as every commit before
    PR 17 did (deflated): ``repro.nn.serialization`` writes through ``np.savez``.
    Returns the zip ``compress_type`` the members then carry."""
    if request.param == "stored":
        return zipfile.ZIP_STORED
    monkeypatch.setattr(np, "savez", np.savez_compressed)
    return zipfile.ZIP_DEFLATED


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def clear_scene():
    """A small scene without clouds or shadows."""
    return synthesize_scene(SceneSpec(height=96, width=96, cloud_coverage=0.0, seed=7))


@pytest.fixture(scope="session")
def cloudy_scene():
    """A small scene with a substantial thin-cloud bank and shadows."""
    return synthesize_scene(
        SceneSpec(height=96, width=96, cloud_coverage=0.35, cloud_max_opacity=0.55, shadow_max_opacity=0.5, seed=11)
    )


@pytest.fixture(scope="session")
def tiny_dataset():
    """A tile dataset of 2 small scenes cut into 32x32 tiles (8 tiles)."""
    return build_dataset(num_scenes=2, scene_size=64, tile_size=32, base_seed=3)


@pytest.fixture(scope="session")
def tiny_split(tiny_dataset):
    return train_test_split(tiny_dataset, test_fraction=0.25, seed=0)


@pytest.fixture(scope="session")
def rgb_image(rng) -> np.ndarray:
    """A random uint8 RGB image for generic image-op tests."""
    return rng.integers(0, 256, size=(40, 56, 3), dtype=np.uint8)


@pytest.fixture(scope="session")
def gray_image(rng) -> np.ndarray:
    return rng.integers(0, 256, size=(48, 40), dtype=np.uint8)
