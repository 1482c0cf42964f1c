"""U-Net scene-inference engine (paper §III-C.2, Figure 9).

A trained model classifies new Sentinel-2 scenes by: splitting the big scene
into 256×256 tiles (optionally with overlapping margins), optionally running
the thin-cloud/shadow filter on each tile, predicting per-pixel class
probabilities in batches through an execution backend (:mod:`repro.backend`)
— ``serial`` runs them inline on the in-process entry's compiled plans,
``fork`` workers attach to a shared-memory copy of the weights and compile
their own — and stitching the per-tile probability
maps back into a full-scene classification map.  Overlapping tiles are blend-averaged before
the final argmax, which removes the seam artifacts of hard tile boundaries.

The scene is processed one tile-row band at a time: a band's tiles are cut,
predicted in one backend dispatch and stitched, and its finished rows leave
before the next band is read.  The working set is therefore bounded by the
scene's width, not its area, and the scene may be any row-sliceable array
(``np.memmap`` streams from disk); the class map is the one the whole scene
cut into tiles at once would give, bit for bit.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, fields
from typing import Iterator

import numpy as np

from ..backend.base import Backend, make_backend, resolve_backend_name
from ..reliability import Deadline, fault_point
from ..cloudshadow import CloudShadowFilter
from ..data.loader import image_to_tensor
from ..imops.resize import TileGrid, _blend_tile_row, _pad_bottom_right, assemble_from_tiles, split_into_tiles
from .compiled import CompiledUNet
from .model import UNet

__all__ = [
    "InferenceConfig",
    "SceneClassifier",
    "predict_batch_probabilities",
    "predict_tile_probabilities",
]


@dataclass(frozen=True)
class InferenceConfig:
    """Options of the scene-inference pipeline.

    ``overlap`` is the number of pixels neighbouring tiles share; overlapped
    probability maps are blend-averaged at reassembly.  ``backend`` selects
    the execution backend prediction batches dispatch through —
    ``"serial"``, ``"fork"`` or ``"auto"`` (the default, which
    honours ``REPRO_BACKEND`` and otherwise forks when ``num_workers > 1``
    and the platform supports it).  ``num_workers`` sizes the worker pool
    and turns fan-out on by itself under ``backend="auto"``.

    The model is a :class:`~repro.unet.UNet`, and the backend owns its
    compiled engine: the serial entry compiles one per-shape plan
    cache in this process, fork workers always compile their own.
    ``compile_plans=False`` is the eager reference switch — the in-process
    entry runs the uncompiled layer walk instead, the oracle the benchmark's
    reference check compares against.
    """

    tile_size: int = 256
    overlap: int = 0
    apply_cloud_filter: bool = True
    batch_size: int = 8
    num_workers: int = 1
    compile_plans: bool = True
    backend: str = "auto"

    def __post_init__(self) -> None:
        if self.tile_size < 1:
            raise ValueError("tile_size must be >= 1")
        if not 0 <= self.overlap < self.tile_size:
            raise ValueError("overlap must satisfy 0 <= overlap < tile_size")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.backend != "auto":
            # Validate eagerly (and reject e.g. fork on fork-less platforms)
            # so a bad backend fails at config time, not inside a worker.
            resolve_backend_name(self.backend, self.num_workers)

    def resolved_backend(self) -> str:
        """The concrete backend name this config dispatches through."""
        return resolve_backend_name(self.backend, self.num_workers)

    def to_dict(self) -> dict:
        """JSON-safe dict of every option (inverse of :meth:`from_dict`)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "InferenceConfig":
        """Build a config from a (JSON-loaded) dict, rejecting unknown keys and mistyped values.

        A bool option takes only a JSON boolean, an int option only a JSON
        integer, ``backend`` only a string.  ``plan_cache_size``, a retired
        option that archives written before it went still carry, is skipped.
        """
        if not isinstance(data, dict):
            raise ValueError(f"expected a dict of InferenceConfig options, got {type(data).__name__}")
        known = {f.name: {"bool": bool, "int": int, "str": str}[f.type] for f in fields(cls)}
        options = {key: value for key, value in data.items() if key != "plan_cache_size"}
        unknown = sorted(set(options) - set(known))
        if unknown:
            raise ValueError(
                f"unknown InferenceConfig keys {unknown}; valid keys are {sorted(known)}"
            )
        for key, value in options.items():
            if type(value) is not known[key]:  # exact: a JSON boolean is no integer
                raise ValueError(f"InferenceConfig option {key!r} must be a JSON {known[key].__name__}, got {value!r}")
        return cls(**options)


#: The store key scene-inference backends publish the model under.
_SCENE_MODEL_KEY = "scene-model"


def _validate_stack(tiles: np.ndarray) -> np.ndarray:
    stack = np.asarray(tiles)
    if stack.ndim != 4 or stack.shape[-1] != 3:
        raise ValueError(f"expected (N, H, W, 3) tile stack, got shape {stack.shape}")
    return stack


def _scene_shape(scene) -> tuple[int, int]:
    shape = np.shape(scene)  # reads ``.shape`` without materialising a memmap or dataset
    if len(shape) != 3 or shape[2] != 3:
        raise ValueError(f"expected a row-sliceable (H, W, 3) scene, got shape {shape}")
    return int(shape[0]), int(shape[1])


def _fetch_band(scene, y0: int, tile: int, height: int) -> np.ndarray:
    """Rows ``[y0, y0 + tile)`` of the scene as :func:`split_into_tiles` bottom-pads it,
    read with only the rows of context the reflection needs."""
    pad = max(0, y0 + tile - height)
    top = min(y0, max(0, height - pad - 1))
    return _pad_bottom_right(np.asarray(scene[top : y0 + tile]), pad, 0)[y0 - top :]


def _pad_stack_to_multiple(stack: np.ndarray, multiple: int) -> np.ndarray:
    """Reflect-pad the bottom/right of every tile in an ``(N, H, W, C)`` stack
    so H and W are multiples of ``multiple`` (edge padding per axis when the
    tile is too small to reflect, as :func:`repro.imops.split_into_tiles` pads a scene)."""
    n, h, w = stack.shape[:3]
    pad_h, pad_w = (-h) % multiple, (-w) % multiple
    if pad_h == 0 and pad_w == 0:
        return stack
    out = stack
    if pad_h:
        spec = [(0, 0), (0, pad_h)] + [(0, 0)] * (out.ndim - 2)
        out = np.pad(out, spec, mode="reflect" if pad_h <= h - 1 else "edge")
    if pad_w:
        spec = [(0, 0), (0, 0), (0, pad_w)] + [(0, 0)] * (out.ndim - 3)
        out = np.pad(out, spec, mode="reflect" if pad_w <= w - 1 else "edge")
    return out


def predict_batch_probabilities(
    batch: np.ndarray,
    model: UNet | None = None,
    cloud_filter: CloudShadowFilter | None = None,
    engine: CompiledUNet | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Probability maps ``(N, K, H, W)`` for one ``(N, H, W, 3)`` tile batch.

    This is the single batchable prediction seam every execution backend
    runs (the serial entry as well as fork workers attached to the
    shared-memory model store) — which is what makes the backends
    bit-identical by construction.  Tiles whose spatial size the
    model cannot ingest (not a multiple of ``config.min_input_size()``) are
    reflect-padded bottom/right before the forward pass and the probability
    maps cropped back, so small scenes and 1-pixel remainder bands classify
    cleanly.

    With ``engine`` (a :class:`~repro.unet.compiled.CompiledUNet` wrapping
    the same model) the forward pass runs through the per-shape compiled
    plan instead of the generic layer walk — identical maps, no per-call
    workspace allocations.  ``out`` routes the result into a caller-provided
    ``(N, K, H, W)`` float32 buffer (e.g. a shared-memory output arena);
    when no padding is needed the compiled plan softmaxes directly into it.
    """
    fault_point("slow_predict")  # chaos knob: every consumer funnels through here
    if engine is not None and model is None:
        model = engine.model
    if model is None:
        raise ValueError("predict_batch_probabilities requires a model or an engine")
    if cloud_filter is not None:
        batch = cloud_filter.apply_batch(batch)
    h, w = batch.shape[1:3]
    padded = _pad_stack_to_multiple(batch, model.config.min_input_size())
    tensor = image_to_tensor(padded)
    if engine is not None:
        if out is not None and padded.shape[1] == h and padded.shape[2] == w:
            engine.predict_proba(tensor, out=out)
            return out
        probs = engine.predict_proba(tensor)
    else:
        probs = model.predict_proba(tensor)
    probs = probs.astype(np.float32, copy=False)
    result = probs[:, :, :h, :w]
    if out is not None:
        out[...] = result
        return out
    return result


def predict_tile_probabilities(
    model: UNet,
    tiles: np.ndarray,
    batch_size: int = 8,
    backend: str | Backend | None = None,
) -> np.ndarray:
    """Per-class probability maps ``(N, K, H, W)`` for an ``(N, H, W, 3)`` stack.

    Tiles are predicted in batches of ``batch_size`` through an execution
    backend: a running :class:`~repro.backend.Backend` with the model already
    published (``SceneClassifier.backend``) is used as is; otherwise the
    model is published into a one-worker ephemeral backend — created, used
    and closed within the call — of the name ``backend`` resolves to.  An
    empty stack returns a correctly-shaped empty array instead of raising.
    """
    stack = _validate_stack(tiles)
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if stack.shape[0] == 0:
        return np.zeros((0, model.config.num_classes, *stack.shape[1:3]), dtype=np.float32)
    if isinstance(backend, Backend):
        if backend.has_model(_SCENE_MODEL_KEY):
            return backend.predict_stack(_SCENE_MODEL_KEY, stack, batch_size)
        backend = backend.name
    with make_backend(backend, num_workers=1) as ephemeral:
        ephemeral.publish_model(_SCENE_MODEL_KEY, model)
        return ephemeral.predict_stack(_SCENE_MODEL_KEY, stack, batch_size)


@dataclass
class SceneClassifier:
    """Scene inference engine (tile → filter → batched predict → blend-stitch), one tile-row band at a time.

    The model must be a :class:`~repro.unet.UNet` (anything else raises
    ``TypeError``).  The classifier compiles nothing itself: its backend
    owns the engine.  Under ``serial`` that is the in-process
    entry's :class:`~repro.unet.compiled.CompiledUNet` (:attr:`engine`) —
    every distinct batch shape is compiled once into an arena-backed plan
    and re-run allocation-free afterwards; fork workers always compile their
    own.  ``config.compile_plans=False`` runs the eager layer walk instead,
    as the reference.  Plans snapshot weights: a model trained further
    needs a new classifier.
    """

    model: UNet
    config: InferenceConfig = field(default_factory=InferenceConfig)
    cloud_filter: CloudShadowFilter = field(default_factory=CloudShadowFilter)
    _backend: Backend | None = field(default=None, init=False, repr=False, compare=False)
    _finalizer: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.model, UNet):
            raise TypeError(f"SceneClassifier requires a UNet, got {type(self.model).__name__}")

    # ------------------------------------------------------------------ #
    @property
    def backend(self) -> Backend:
        """The running execution backend every prediction dispatches through.

        Started on first use — ``serial`` unless the config (or
        ``REPRO_BACKEND``) asks for fan-out — with the model and filter
        published into it once.
        """
        return self._backend or self._start_backend()

    @property
    def engine(self) -> CompiledUNet | None:
        """The compiled engine this process runs the classifier's predictions on.

        The backend's in-process entry's — ``None`` under fork, whose workers
        compile their own, and with ``compile_plans`` off.
        """
        return self.backend.engine(_SCENE_MODEL_KEY)

    def _start_backend(self) -> Backend:
        cfg = self.config
        backend = make_backend(cfg.backend, num_workers=cfg.num_workers).start()
        self._finalizer = weakref.finalize(self, backend.close)
        self._publish(backend)
        self._backend = backend
        return backend

    def _publish(self, backend: Backend) -> None:
        filt = self.cloud_filter if self.config.apply_cloud_filter else None
        backend.publish_model(_SCENE_MODEL_KEY, self.model, filt, compile_plans=self.config.compile_plans)

    def close(self) -> None:
        """Shut the backend down (safe to call repeatedly; the next prediction starts a new one)."""
        if self._finalizer is not None:
            self._finalizer()  # runs backend.close at most once, then is dead
            self._finalizer = None
        self._backend = None

    def __enter__(self) -> "SceneClassifier":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def warm_plans(self, batch_sizes: tuple[int, ...] = (1,)) -> None:
        """Pre-compile the engine's plans for the configured tile shape at ``batch_sizes``.

        Uses the shape the prediction seam would actually run: the tile size
        rounded up to the model's input multiple.  Without an in-process
        engine it does nothing: fork workers warm each new stack shape as
        ``predict_stack`` first sees it.
        """
        engine = self.engine
        if engine is None:
            return
        multiple = self.model.config.min_input_size()
        t = -(-self.config.tile_size // multiple) * multiple
        for n in batch_sizes:
            engine.warm((int(n), self.model.config.in_channels, t, t))

    def plan_cache_info(self) -> dict | None:
        """The in-process engine's plan-cache counters (``None`` without one)."""
        engine = self.engine
        return None if engine is None else engine.cache_info()

    # ------------------------------------------------------------------ #
    def iter_row_bands(self, scene) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(row_start, probs)`` down an ``(H, W, 3)`` scene; the bands cover its rows once, in order.

        ``probs`` holds the finished ``(n, W, K)`` class probabilities of rows
        ``row_start … row_start + n``: a whole tile row of a disjoint grid
        (float32), one tile stride of a blended grid (float64 — the overlapped
        rows the next band still adds to wait in a rolling accumulator), the
        remainder at the bottom edge.  Overlapping tile regions are
        blend-averaged (see :func:`repro.imops.resize.blend_window`) in the
        whole-scene tile order, so seams cross-fade and every value equals
        :func:`~repro.imops.resize.assemble_from_tiles` of the whole scene's
        tiles.  Each band's tiles go to the backend as one ``predict_stack``;
        a band is valid until the next one is requested.  ``scene`` needs only
        ``.shape`` and row slicing.
        """
        h, w = _scene_shape(scene)
        if h == 0 or w == 0:
            return
        t, overlap = self.config.tile_size, self.config.overlap
        grid = TileGrid.covering((h, w), t, overlap)
        acc = weights = None  # blended grids: the rolling (t, padded W, K) float64 sums
        for r in range(grid.rows):
            y0 = r * grid.stride
            tiles, band_grid = split_into_tiles(_fetch_band(scene, y0, t, h), t, overlap)
            probs = np.moveaxis(self._predict_stack(tiles), 1, -1)  # (cols, t, t, K)
            n = h - y0 if r == grid.rows - 1 else grid.stride
            if not overlap:
                yield y0, assemble_from_tiles(probs, band_grid)[:n]
                continue
            if acc is None:
                acc = np.zeros((t, grid.padded_shape[1], probs.shape[-1]))
                weights = np.zeros((t, grid.padded_shape[1], 1))
            _blend_tile_row(acc, weights, probs, overlap)
            yield y0, (acc[:n] / weights[:n])[:, :w]
            # Slide down one stride: the top `overlap` rows of the next band are part-summed.
            acc[:overlap], weights[:overlap] = acc[grid.stride :], weights[grid.stride :]
            acc[overlap:], weights[overlap:] = 0.0, 0.0

    def classify_to(self, scene, out: np.ndarray) -> np.ndarray:
        """Stream the scene's classification into a preallocated ``out`` and return it.

        An ``(H, W)`` ``out`` receives the class map, an ``(H, W, K)`` one the
        probabilities.  Pass a ``np.memmap`` to keep the output off-heap too.
        """
        h, w = _scene_shape(scene)
        if out.ndim not in (2, 3) or out.shape[:2] != (h, w):
            raise ValueError(f"output shape {out.shape} does not match scene rows {(h, w)}")
        for y0, probs in self.iter_row_bands(scene):
            out[y0 : y0 + len(probs)] = probs if out.ndim == 3 else probs.argmax(axis=-1)
        return out

    def classify_scene(self, scene) -> np.ndarray:
        """Return the uint8 class map ``(H, W)`` of an ``(H, W, 3)`` scene."""
        return self.classify_to(scene, np.empty(_scene_shape(scene), np.uint8))

    def _predict_stack(self, tiles: np.ndarray) -> np.ndarray:
        stack = _validate_stack(tiles)
        if stack.shape[0] == 0:
            return np.zeros((0, self.model.config.num_classes, *stack.shape[1:3]), dtype=np.float32)
        # copy=False: the stack result is consumed (stitched or argmax-reduced)
        # before the next dispatch, so the fork backend may hand back its
        # shared output arena directly.
        return self.backend.predict_stack(_SCENE_MODEL_KEY, stack, self.config.batch_size, copy=False)

    def predict_batch(self, batch: np.ndarray, deadline: Deadline | None = None) -> np.ndarray:
        """One batched prediction ``(N, H, W, 3) → (N, K, H, W)`` on the
        classifier's backend — the seam the serving micro-batcher binds to.
        ``deadline`` propagates into the backend dispatch, which drops
        expired work before computing."""
        return self.backend.predict(_SCENE_MODEL_KEY, np.asarray(batch), deadline=deadline)
