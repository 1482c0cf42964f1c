"""Conveniences the tests and benchmarks share that the pipeline itself never calls.

Each wraps public API (or reads the state a module keeps) in the form a test wants:
the backends this platform can run, one tile's labels, a model's size and pinned cache bytes, a scene's probability map,
the accuracy experiment's Figure 13 matrices, and a script run in a fresh interpreter.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.backend.base import _fork_available
from repro.labeling.autolabel import _DEFAULT_LABELERS
from repro.unet.inference import _scene_shape


def available_backends() -> tuple[str, ...]:
    """Backend names usable on this platform."""
    return ("serial", "fork") if _fork_available() else ("serial",)


def run_python(script: str, timeout: float) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports this checkout's ``src/``; stdout and stderr as text."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=timeout)


def autolabel_tile(rgb: np.ndarray, apply_cloud_filter: bool = True) -> np.ndarray:
    """One tile's class map from the process's default labeler (the one ``autolabel_batch`` uses)."""
    return _DEFAULT_LABELERS[bool(apply_cloud_filter)](rgb)


def num_parameters(module) -> int:
    """Total number of trainable scalars of a ``repro.nn`` module."""
    return sum(p.size for p in module.parameters())


def _array_nbytes(obj) -> int:
    """Total bytes of every ndarray reachable through obj (arrays, tuples, lists)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_array_nbytes(item) for item in obj)
    return 0


def cache_nbytes(module, recurse: bool = True) -> int:
    """Bytes a module currently pins in backward caches: every ndarray reachable through its private
    attributes (``_cache``, ``_mask``, ``_split``, ...), the convention all layers use for
    forward-to-backward state, less parameters and child modules (added by ``recurse``)."""
    total = sum(_array_nbytes(value) for name, value in vars(module).items()
                if name.startswith("_") and name not in ("_parameters", "_modules"))
    if recurse:
        total += sum(cache_nbytes(child) for child in module._modules.values())
    return total


def classify_scene_proba(classifier, scene) -> np.ndarray:
    """Per-pixel class probabilities ``(H, W, K)`` of an ``(H, W, 3)`` scene through
    ``SceneClassifier.classify_to`` (float32 on a disjoint grid, float64 on a blended one)."""
    h, w = _scene_shape(scene)
    dtype = np.float64 if classifier.config.overlap else np.float32
    return classifier.classify_to(scene, np.empty((h, w, classifier.model.config.num_classes), dtype))


def confusion_matrices(result) -> dict:
    """Row-normalised confusion matrices (percent) of an ``AccuracyExperimentResult``, for Figure 13."""
    return {f"{model}_{variant}": np.round(result.table4[variant][model].confusion_percent, 2)
            for variant in ("original", "filtered") for model in ("man", "auto")}
