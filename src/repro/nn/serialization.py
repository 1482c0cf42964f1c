"""Model checkpoint I/O: save and load module weights as stored (uncompressed) ``.npz`` archives.

Two levels are provided: ``save_weights`` persists model parameters only,
while ``save_checkpoint`` / ``load_checkpoint`` bundle the model *and* the full
optimiser state (Adam moments, step count and every hyper-parameter) so a
resumed run continues exactly where it stopped instead of silently restarting
the adaptive state.

Both archive kinds can carry a JSON metadata block (``metadata=`` at save
time, :func:`read_metadata` at load time).  The serving model registry uses
it to rebuild the right ``UNetConfig`` and inference settings from the
archive alone, without a side-channel config file.  :func:`load_model_state`
reads the model parameters out of either archive kind, which is what lets
the registry serve directly from a training checkpoint.

Members are stored, not deflated: on the elastic trainer's 1.45 MB of float32
weights and Adam moments ``zlib`` spent 53 of a checkpoint's 60 ms to save 5.7%
of the bytes.  ``np.load`` reads both kinds, so older (deflated) archives still
load, and zip's per-member CRC-32 still catches a flipped byte in a stored member.
"""

from __future__ import annotations

import json
import os
import zipfile
from contextlib import contextmanager

import numpy as np

from ..reliability import FaultInjected, fault_point
from .module import Module
from .optimizers import Optimizer

__all__ = [
    "CheckpointError",
    "save_weights",
    "save_checkpoint",
    "load_checkpoint",
    "read_metadata",
    "load_model_state",
]

_MODEL_PREFIX = "model/"
_OPTIM_PREFIX = "optim/"
_META_KEY = "__meta__/json"
_EXTRA_KEY = "__extra__/json"


class CheckpointError(RuntimeError):
    """A checkpoint archive is unreadable or structurally wrong."""


def _normalize_path(path: str | os.PathLike) -> str:
    path = str(path)
    if not os.path.exists(path) and os.path.exists(path + ".npz"):
        path = path + ".npz"
    return path


@contextmanager
def _open_archive(path: str):
    """The open ``.npz`` archive; an unreadable file *or member* (bad CRC-32, torn tail) is a ``CheckpointError``."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"checkpoint not found: {path!r}")
    try:
        fault_point("corrupt_archive_read")  # FaultInjected is an OSError
        with np.load(path, allow_pickle=False) as archive:
            yield archive
    except (zipfile.BadZipFile, ValueError, EOFError, OSError) as exc:
        raise CheckpointError(f"corrupt or unreadable checkpoint archive {path!r}: {exc}") from exc


def _atomic_savez(path: str | os.PathLike, state: dict[str, np.ndarray]) -> str:
    """Write a stored-member archive to a temp file, then ``os.replace`` it in; returns the path.

    A crash (or a concurrent reader) mid-write therefore sees either the
    previous archive or none — never a half-written ``.npz``.  The archive
    is written through an open file object because ``np.savez`` silently
    appends ``.npz`` to string paths, which would break the temp name.
    """
    path = str(path)
    if not path.endswith(".npz"):
        path = path + ".npz"
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp_path = f"{path}.tmp-{os.getpid():x}"
    try:
        with open(tmp_path, "wb") as stream:
            np.savez(stream, **state)
        try:
            fault_point("ckpt_corrupt_write")
        except FaultInjected:
            # Simulate a torn write that made it to the final name (bitrot,
            # a non-atomic writer): truncate the archive, then publish it
            # anyway so the resume path has to skip past it.
            size = os.path.getsize(tmp_path)
            with open(tmp_path, "r+b") as stream:
                stream.truncate(max(1, size // 2))
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
    return path


def _json_entry(key: str, what: str, payload: dict | None) -> dict[str, np.ndarray]:
    """``{key: payload as UTF-8 JSON bytes}`` — the archive member a metadata / extra-state dict becomes."""
    if payload is None:
        return {}
    try:
        text = json.dumps(payload, sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint {what} must be JSON-serialisable: {exc}") from exc
    return {key: np.frombuffer(text.encode("utf-8"), dtype=np.uint8)}


def _json_block(raw: bytes | None, what: str, path: str) -> dict:
    """The dict a :func:`_json_entry` member decodes to (``{}`` when the archive has none)."""
    if raw is None:
        return {}
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt {what} block in {path!r}: {exc}") from exc


def save_weights(module: Module, path: str | os.PathLike, metadata: dict | None = None) -> str:
    """Write every parameter of ``module`` to an ``.npz`` file.

    ``metadata`` (any JSON-serialisable dict) is embedded in the archive and
    comes back via :func:`read_metadata`.  Returns the path written (with
    ``.npz`` appended if missing).
    """
    return _atomic_savez(path, {**module.state_dict(), **_json_entry(_META_KEY, "metadata", metadata)})


def save_checkpoint(
    module: Module,
    optimizer: Optimizer,
    path: str | os.PathLike,
    metadata: dict | None = None,
    extra_state: dict | None = None,
) -> str:
    """Write model parameters and the complete optimiser state to one ``.npz``.

    ``extra_state`` (any JSON-serialisable dict — e.g. the training cursor and
    data-loader RNG state the elastic trainer needs for bit-exact resume) is
    embedded alongside the tensors and comes back from :func:`load_checkpoint`.
    Returns the path written (with ``.npz`` appended if missing).
    """
    state: dict[str, np.ndarray] = {}
    for key, value in module.state_dict().items():
        state[_MODEL_PREFIX + key] = value
    for key, value in optimizer.state_dict().items():
        state[_OPTIM_PREFIX + key] = np.asarray(value)
    state.update(_json_entry(_META_KEY, "metadata", metadata))
    state.update(_json_entry(_EXTRA_KEY, "extra_state", extra_state))
    return _atomic_savez(path, state)


def load_checkpoint(module: Module, optimizer: Optimizer, path: str | os.PathLike) -> dict:
    """Restore a checkpoint written by :func:`save_checkpoint` (strict match).

    Returns the ``extra_state`` dict the checkpoint was saved with (``{}``
    when absent).  Every structural problem — a key that belongs to neither
    the model nor the optimiser, a weights-only archive, a member that fails
    its CRC-32 — surfaces as :class:`CheckpointError`, matching how the
    serving registry quarantines unreadable archives.
    """
    path = _normalize_path(path)
    model_state: dict[str, np.ndarray] = {}
    optim_state: dict[str, np.ndarray] = {}
    extra_raw: bytes | None = None
    with _open_archive(path) as archive:
        for key in archive.files:
            if key == _META_KEY:
                continue
            if key == _EXTRA_KEY:
                extra_raw = bytes(archive[key])
            elif key.startswith(_MODEL_PREFIX):
                model_state[key[len(_MODEL_PREFIX):]] = archive[key]
            elif key.startswith(_OPTIM_PREFIX):
                optim_state[key[len(_OPTIM_PREFIX):]] = archive[key]
            else:
                raise CheckpointError(f"unexpected checkpoint key {key!r} in {path!r}")
    if not optim_state:
        raise CheckpointError(
            f"checkpoint {path!r} has no optimizer state (was it saved with save_weights?)"
        )
    module.load_state_dict(model_state)
    optimizer.load_state_dict(optim_state)
    return _json_block(extra_raw, "extra-state", path)


def read_metadata(path: str | os.PathLike) -> dict:
    """Return the JSON metadata embedded in an archive (``{}`` when absent)."""
    path = _normalize_path(path)
    with _open_archive(path) as archive:
        raw = bytes(archive[_META_KEY]) if _META_KEY in archive.files else None
    return _json_block(raw, "metadata", path)


def load_model_state(path: str | os.PathLike) -> dict[str, np.ndarray]:
    """Model parameters from either a weights archive or a full checkpoint.

    ``save_weights`` archives return their keys as-is; ``save_checkpoint``
    archives return the ``model/`` entries with the prefix stripped (the
    optimiser state is ignored).  Raises :class:`CheckpointError` when the
    archive holds no model parameters at all.
    """
    path = _normalize_path(path)
    state: dict[str, np.ndarray] = {}
    with _open_archive(path) as archive:
        keys = [key for key in archive.files if key != _META_KEY]
        is_checkpoint = any(key.startswith(_MODEL_PREFIX) for key in keys)
        for key in keys:
            if is_checkpoint:
                if key.startswith(_MODEL_PREFIX):
                    state[key[len(_MODEL_PREFIX):]] = archive[key]
            elif not key.startswith(_OPTIM_PREFIX):
                state[key] = archive[key]
    if not state:
        raise CheckpointError(f"archive {path!r} contains no model parameters")
    return state
