"""Shared-memory model store for the process backend.

Publishing a model serialises it **once** into a single
:class:`multiprocessing.shared_memory.SharedMemory` segment holding

* every ``state_dict`` parameter array, and
* the pre-packed GEMM weight matrix + bias column of every convolution a
  compiled plan binds, under its ``state_dict`` path — ``(F, k·k·C)``, or an
  up-convolution's ``(F, 9C)`` matrix of its four phase blocks (see
  :func:`repro.unet.compiled.iter_plan_conv_layers` /
  :func:`repro.nn.plan.pack_conv_weights`).

Workers receive only a tiny picklable :class:`SharedModelSpec` (segment name
plus array offsets) and its :meth:`~SharedModelSpec.attach` rebuilds the
model with its parameter values *aliased* to read-only views of the one
shared segment — N workers, one physical copy, no per-worker pickling and no
per-worker re-packing.  Packing is input-shape independent, so the shared
pack serves every plan shape a worker compiles.

A model is one kind of *resident*.  The store keeps any spec with a ``key``
and a worker-side ``attach()`` (the elastic trainer's replica is the other
kind) and owns the segment it names: a respawned worker gets every kept spec
again, and releasing or closing the store unlinks it.

The same segment helpers back the backend's input/output arenas: a tile
batch is written into a shared input segment once and each worker's compiled
plan softmaxes straight into a shared output arena (``plan.run(out=…)``),
so task messages carry only span indices.
"""

from __future__ import annotations

import _posixshmem
import itertools
import mmap
import os
import secrets
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from ..obs.metrics import get_registry
from ..reliability import fault_point
from .base import LocalModelEntry

__all__ = [
    "SEGMENT_PREFIX",
    "SharedArrayField",
    "SharedModelSpec",
    "SharedModelStore",
    "AttachedModel",
    "create_segment",
    "attach_segment",
    "layout_fields",
    "ndarray_view",
]

#: Every segment this store creates carries this prefix, so leak checks can
#: assert ``/dev/shm`` holds no ``repro_ms_*`` entries after a backend closes.
SEGMENT_PREFIX = "repro_ms_"

_ALIGN = 64  # cache-line align every array so BLAS sees friendly operands
_counter = itertools.count()


def _new_segment_name() -> str:
    return f"{SEGMENT_PREFIX}{os.getpid():x}_{next(_counter):x}_{secrets.token_hex(4)}"


def create_segment(nbytes: int) -> shared_memory.SharedMemory:
    """Create (and own) a shared-memory segment of at least ``nbytes``."""
    return shared_memory.SharedMemory(name=_new_segment_name(), create=True, size=max(1, int(nbytes)))


class _Attached:
    """An untracked mapping of an existing segment, with the ``name`` / ``size`` / ``buf`` / ``close`` of ``SharedMemory``."""

    def __init__(self, name: str) -> None:
        with open(_posixshmem.shm_open("/" + name, os.O_RDWR, mode=0o600), "rb", buffering=0) as fd:
            self._mmap = mmap.mmap(fd.fileno(), 0)  # 0: the whole segment, read-write as the fd was opened
        self.name, self.size, self.buf = name, len(self._mmap), memoryview(self._mmap)

    def close(self) -> None:
        self.buf.release()  # BufferError while ndarray views are alive, as ``SharedMemory.close``
        self._mmap.close()


def attach_segment(name: str) -> _Attached:
    """Attach to an existing segment without registering it with multiprocessing's resource tracker.

    (``SharedMemory(name=...)`` registers an attach below Python 3.13.)  Only the creating process registers, and
    its unlink unregisters, so a worker needs no tracker and ``serve`` closes the tracker pipe it inherits.
    """
    fault_point("shm_attach_fail")
    return _Attached(name)


def close_segment(shm: shared_memory.SharedMemory, unlink: bool = False) -> None:
    """Close (and optionally unlink) a segment, tolerating live array views.

    ``SharedMemory.close`` raises ``BufferError`` while ndarray views of the
    buffer are still alive; during teardown the mapping is reclaimed at
    process exit anyway, so a lingering view must not turn shutdown into a
    crash.
    """
    try:
        shm.close()
    except BufferError:
        pass
    if unlink:
        try:
            shm.unlink()
        except FileNotFoundError:
            pass


def ndarray_view(
    shm: shared_memory.SharedMemory,
    shape: tuple[int, ...],
    offset: int = 0,
    dtype=np.float32,
    writeable: bool = True,
) -> np.ndarray:
    """A (optionally read-only) ndarray aliasing ``shm``'s buffer at ``offset``."""
    view = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=offset)
    if not writeable:
        view.flags.writeable = False
    return view


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass(frozen=True)
class SharedArrayField:
    """Location of one float32 array inside a model segment."""

    name: str
    shape: tuple[int, ...]
    offset: int

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * 4 if self.shape else 4


def layout_fields(shapes, offset: int = 0) -> tuple[list[SharedArrayField], int]:
    """Lay ``(name, shape)`` float32 arrays out cache-line aligned from ``offset``.

    Returns the fields and the offset just past the last one.
    """
    fields = []
    for name, shape in shapes:
        fld = SharedArrayField(name, tuple(shape), _aligned(offset))
        fields.append(fld)
        offset = fld.offset + fld.nbytes
    return fields, offset


@dataclass(frozen=True)
class SharedModelSpec:
    """Everything a worker needs to rebuild a published model (picklable, tiny)."""

    key: object
    segment_name: str
    unet_config: object  # UNetConfig (frozen dataclass, pickles by value)
    params: tuple[SharedArrayField, ...]
    packed: tuple[tuple[str, SharedArrayField, SharedArrayField], ...]
    cloud_filter: object | None = None

    def attach(self) -> "AttachedModel":
        """Worker side: the model, attached to the published segment."""
        return AttachedModel(self)


class SharedModelStore:
    """Parent-side registry of published residents: each key's spec and the segment it owns."""

    def __init__(self) -> None:
        self._segments: dict[object, shared_memory.SharedMemory] = {}
        self._specs: dict = {}
        self._m_bytes = get_registry().gauge(
            "repro_store_shm_bytes",
            "Bytes of shared memory held by published model segments",
        )
        self._m_models = get_registry().gauge(
            "repro_store_models",
            "Models currently published in the shared store",
        )

    def _update_gauges(self) -> None:
        self._m_bytes.set(float(sum(shm.size for shm in self._segments.values())))
        self._m_models.set(float(len(self._segments)))

    # ------------------------------------------------------------------ #
    def publish(self, key, model, cloud_filter=None) -> SharedModelSpec:
        """Lay ``model`` out in one shared segment and return its spec.

        Re-publishing an existing key replaces the old segment (hot-swap).
        """
        from ..nn.plan import pack_conv_weights
        from ..unet.compiled import iter_plan_conv_layers
        from ..unet.model import UNet

        if not isinstance(model, UNet):
            raise TypeError(
                f"the shared model store requires a UNet, got {type(model).__name__}"
            )

        state = {name: p.value for name, p in model.named_parameters().items()}
        packs = {name: pack_conv_weights(layer) for name, layer in iter_plan_conv_layers(model)}

        # First pass: compute the aligned layout.
        param_fields, offset = layout_fields(
            (name, value.shape) for name, value in state.items())
        packed_fields: list[tuple[str, SharedArrayField, SharedArrayField]] = []
        for name, (w_mat, bias) in packs.items():
            offset = _aligned(offset)
            w_field = SharedArrayField(name, tuple(w_mat.shape), offset)
            offset = _aligned(offset + w_mat.size * 4)
            b_field = SharedArrayField(name, tuple(bias.shape), offset)
            offset += bias.size * 4
            packed_fields.append((name, w_field, b_field))

        # Second pass: copy everything in.
        shm = create_segment(offset)
        try:
            for fld in param_fields:
                ndarray_view(shm, fld.shape, fld.offset)[...] = state[fld.name]
            for name, w_field, b_field in packed_fields:
                w_mat, bias = packs[name]
                ndarray_view(shm, w_field.shape, w_field.offset)[...] = w_mat
                ndarray_view(shm, b_field.shape, b_field.offset)[...] = bias
        except BaseException:
            close_segment(shm, unlink=True)
            raise

        return self.keep(SharedModelSpec(
            key=key,
            segment_name=shm.name,
            unet_config=model.config,
            params=tuple(param_fields),
            packed=tuple(packed_fields),
            cloud_filter=cloud_filter,
        ), shm)

    def keep(self, spec, shm: shared_memory.SharedMemory):
        """Keep ``spec`` under ``spec.key`` and own its segment ``shm`` from now on (replacing the key's old resident)."""
        self.release(spec.key)
        self._segments[spec.key] = shm
        self._specs[spec.key] = spec
        self._update_gauges()
        return spec

    def specs(self) -> list:
        return list(self._specs.values())

    def __contains__(self, key) -> bool:
        return key in self._specs

    def keys(self) -> list:
        return list(self._specs)

    def release(self, key) -> None:
        """Unlink ``key``'s segment (no-op when absent)."""
        shm = self._segments.pop(key, None)
        self._specs.pop(key, None)
        if shm is not None:
            close_segment(shm, unlink=True)
            self._update_gauges()

    def close(self) -> None:
        for key in list(self._segments):
            self.release(key)


class AttachedModel(LocalModelEntry):
    """Worker-side entry: a model whose weights alias the shared segment.

    The rebuilt model's parameter values are **read-only views** into the
    published segment, and its :class:`~repro.unet.compiled.CompiledUNet`
    binds the shared pre-packed GEMM operands — attaching costs one mmap
    plus module construction, never a weight copy or a re-pack.  Prediction
    is :class:`~repro.backend.base.LocalModelEntry`'s; this class adds the
    attach, the first-touch warm and the detach.
    """

    __slots__ = ("shm",)

    def __init__(self, spec: SharedModelSpec) -> None:
        from ..unet.model import UNet

        self.shm = attach_segment(spec.segment_name)
        model = UNet(spec.unet_config)
        params = model.named_parameters()
        for fld in spec.params:
            param = params[fld.name]
            if tuple(param.value.shape) != fld.shape:  # pragma: no cover - defensive
                raise ValueError(f"shared layout mismatch for parameter {fld.name!r}")
            param.value = ndarray_view(self.shm, fld.shape, fld.offset, writeable=False)
        model.eval()
        packed = {
            name: (
                ndarray_view(self.shm, w.shape, w.offset, writeable=False),
                ndarray_view(self.shm, b.shape, b.offset, writeable=False),
            )
            for name, w, b in spec.packed
        }
        super().__init__(spec.key, model, spec.cloud_filter, packed_weights=packed)

    def warm(self, batch_shape: tuple[int, ...]) -> None:
        """Run one throwaway ``(N, H, W, C)`` batch to bring a plan fully hot.

        Compiling a plan is cheap; its *first execution* is not — it
        first-touches the workspace arena (page faults on tens of MB).  The
        parent broadcasts a warm for each new stack shape so no real request
        ever lands on a cold plan.
        """
        self.predict(np.zeros(tuple(batch_shape), dtype=np.uint8))

    def close(self) -> None:
        """Detach from the segment (drops the weight views first)."""
        self.engine = None
        self.model = None
        close_segment(self.shm)
