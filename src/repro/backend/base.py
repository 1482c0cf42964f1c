"""The execution-backend seam: one abstraction every fan-out layer dispatches through.

The auto-label job (``mapreduce/autolabel_job.py``, which Table I,
Table II and the auto-label workflow all run), scene inference
(``unet/inference.py``) and the serving micro-batchers
(``serving/batching.py`` / ``serving/service.py``) hold no parallelism of
their own: each asks :func:`make_backend` for a backend by name and calls it, or
borrows a started one from :func:`session_backend` (the auto-label job).  Model
weights are published once per backend and plans compiled once per worker, never per task.

A :class:`Backend` (in the shape of Ludwig's ``Backend`` abstraction) owns:

* **worker lifecycle** — ``start`` / ``close``, crash detection and respawn
  (the fork backend's workers are :class:`repro.backend.worker.WorkerProcess`
  children; the elastic trainer runs its ranks on them as residents its store
  publishes, see :meth:`repro.backend.process.ProcessBackend.publish_resident`);
* **generic task dispatch** — :meth:`Backend.map`, the ordered chunked map
  the auto-label job calls directly;
* **a model store** — :meth:`Backend.publish_model` installs a ``UNet``
  (anything else raises ``TypeError``) once per backend, after which
  :meth:`Backend.predict` / :meth:`Backend.predict_stack` run batches
  against the warm copy.  The backend owns the compiled engine: an
  in-process :class:`LocalModelEntry` is the one place a parent process
  builds a ``CompiledUNet``, and fork workers always compile their own.
  ``compile_plans=False`` is the eager reference switch (the in-process
  entry runs the uncompiled layer walk; fork workers ignore it).  The fork
  backend's store lives in ``multiprocessing.shared_memory`` (see
  :mod:`repro.backend.store`), so N worker processes attach to one physical
  copy of the weights and pre-packed plan GEMM operands instead of each
  re-pickling and re-packing them.

Backends are *behaviour-preserving*: a batch predicted under ``serial``
and ``fork`` produces bit-identical probability maps, because
every backend ultimately executes the same
:func:`repro.unet.inference.predict_batch_probabilities` seam.
"""

from __future__ import annotations

import atexit
import os
import threading
from abc import ABC, abstractmethod
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from ..obs.metrics import Histogram, get_registry
from ..obs.trace import record as _trace_record
from ..reliability import Deadline

__all__ = [
    "Backend",
    "BackendError",
    "ModelHandle",
    "available_cpu_count",
    "record_compute",
    "resolve_backend_name",
    "make_backend",
    "session_backend",
    "close_session_backends",
]

#: Environment variable overriding how ``"auto"`` resolves (CI matrixes the
#: tier-1 suite over it: ``REPRO_BACKEND=serial|fork``).
BACKEND_ENV_VAR = "REPRO_BACKEND"


class BackendError(RuntimeError):
    """A backend worker failed (crashed, closed, or rejected a task)."""


_compute_hist: Histogram | None = None


def record_compute(backend_name: str, compute_ms: float) -> None:
    """Report one predict's model-execution time.

    Feeds both sinks at once: the thread-local trace collector (so a traced
    request's span breakdown separates compute from dispatch overhead) and
    the per-backend compute histogram.  Each backend calls this with the
    time measured *where the model actually ran* — inline (serial) or inside
    the worker process (fork, echoed back in reply metadata).
    """
    global _compute_hist
    _trace_record("compute_ms", compute_ms)
    if _compute_hist is None:
        _compute_hist = get_registry().histogram(
            "repro_backend_compute_ms",
            "Model compute time per predict dispatch",
            ("backend",),
        )
    _compute_hist.observe(compute_ms, backend=backend_name)


@dataclass(frozen=True)
class ModelHandle:
    """Parent-side description of one published model."""

    key: object
    num_classes: int
    in_channels: int


#: Chunks ``Backend.map`` cuts per worker by default: a few sizable ones balance load against overhead.
_CHUNKS_PER_WORKER = 4


def _default_chunk_size(num_items: int, num_workers: int) -> int:
    """Chunk size giving each worker :data:`_CHUNKS_PER_WORKER` chunks."""
    if num_items <= 0:
        return 1
    return max(1, -(-num_items // (num_workers * _CHUNKS_PER_WORKER)))


def available_cpu_count() -> int:
    """Number of usable CPUs (respects CPU affinity when available)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class Backend(ABC):
    """Common lifecycle + dispatch + model-store interface of all backends."""

    #: registry name ("serial" / "fork")
    name: str = "?"

    def __init__(self, num_workers: int = 1) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = int(num_workers)
        self._started = False
        self._closed = False
        self._tasks_dispatched = 0
        self._lock = threading.Lock()
        self._m_tasks = get_registry().counter(
            "repro_backend_tasks_total",
            "Tasks dispatched through the execution-backend seam",
            ("backend",),
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "Backend":
        """Bring workers up (idempotent; every dispatch path calls it lazily)."""
        with self._lock:
            if self._closed:
                raise BackendError(f"{self.name} backend is closed")
            if not self._started:
                self._start()
                self._started = True
        return self

    def close(self) -> None:
        """Tear workers down and release every published model (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            started = self._started
        if started:
            self._close()

    def _start(self) -> None:  # pragma: no cover - trivial default
        """Backend-specific startup (workers, pools); called once under lock."""

    def _close(self) -> None:  # pragma: no cover - trivial default
        """Backend-specific teardown; called at most once."""

    @property
    def running(self) -> bool:
        return self._started and not self._closed

    def __enter__(self) -> "Backend":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise BackendError(f"{self.name} backend is closed")
        self.start()

    def _count_task(self, n: int = 1) -> None:
        with self._lock:
            self._tasks_dispatched += n
        self._m_tasks.inc(n, backend=self.name)

    # ------------------------------------------------------------------ #
    # Generic dispatch
    # ------------------------------------------------------------------ #
    def map(self, fn: Callable, items: Sequence, chunk_size: int | None = None) -> list:
        """Apply ``fn`` to every item, preserving order.

        ``chunk_size`` groups items per task message (default: a few chunks
        per worker).  ``fn`` must be picklable for process backends.
        """
        self._ensure_open()
        items = list(items)
        if not items:
            return []
        if chunk_size is None:
            chunk_size = _default_chunk_size(len(items), self.num_workers)
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        chunks = [items[i : i + chunk_size] for i in range(0, len(items), chunk_size)]
        self._count_task(len(chunks))
        return [result for chunk in self._run_chunks(fn, chunks) for result in chunk]

    @abstractmethod
    def _run_chunks(self, fn: Callable, chunks: list[list]) -> list[list]:
        """``[[fn(item) for item in chunk] for chunk in chunks]``, run this backend's way."""

    # ------------------------------------------------------------------ #
    # Model store
    # ------------------------------------------------------------------ #
    @abstractmethod
    def publish_model(self, key, model, cloud_filter=None, *, compile_plans: bool = True) -> ModelHandle:
        """Install the :class:`~repro.unet.UNet` ``model`` under ``key`` so workers can serve predictions.

        A model that is not a ``UNet`` raises ``TypeError``.  ``cloud_filter``
        is applied to every batch before prediction (pass ``None`` to skip
        filtering).  The backend owns the compiled engine: an in-process
        entry builds a fresh :class:`~repro.unet.compiled.CompiledUNet` per
        publish, and fork workers always compile their own.
        ``compile_plans=False`` is the eager reference switch — the
        in-process entry runs the uncompiled layer walk instead; fork
        workers ignore it.
        """

    @abstractmethod
    def release_model(self, key) -> None:
        """Forget ``key`` and free its store resources (no-op when absent)."""

    @abstractmethod
    def has_model(self, key) -> bool:
        """Whether ``key`` is currently published."""

    def engine(self, key):
        """The compiled engine this process runs ``key``'s predictions on (``None`` unless in-process)."""
        return None

    @abstractmethod
    def predict(self, key, batch: np.ndarray, deadline: Deadline | None = None) -> np.ndarray:
        """Probability maps ``(N, K, H, W)`` for one ``(N, H, W, 3)`` batch.

        ``deadline`` bounds the wait: every backend checks it *before*
        computing (expired work raises
        :class:`~repro.reliability.DeadlineExceeded` instead of burning a
        worker on a result nobody is waiting for).
        """

    def predict_stack(self, key, stack: np.ndarray, batch_size: int, copy: bool = True) -> np.ndarray:
        """Predict a whole ``(N, H, W, 3)`` stack in ``batch_size`` batches.

        Returns the concatenated ``(N, K, H, W)`` probability maps.  With
        ``copy=False`` a backend may return a reusable internal buffer that
        is only valid until the next ``predict_stack`` call for the same key
        and shape — callers must consume (or copy) it before dispatching
        again.
        """
        self._ensure_open()
        outputs = []
        for start in range(0, stack.shape[0], batch_size):
            outputs.append(self.predict(key, stack[start : start + batch_size]))
        return np.concatenate(outputs, axis=0)

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def occupancy(self) -> dict:
        """Live occupancy counters for ``/stats`` (workers, models, tasks)."""
        return {
            "backend": self.name,
            "workers": self.num_workers,
            "busy_workers": self._busy_workers(),
            "running": self.running,
            "models": [str(key) for key in self._model_keys()],
            "tasks_dispatched": self._tasks_dispatched,
        }

    def _busy_workers(self) -> int:
        return 0

    def _model_keys(self) -> list:
        return []


# ---------------------------------------------------------------------- #
# In-process model entry (the serial backend's store, a fork worker's model)
# ---------------------------------------------------------------------- #
#: The generic (uncompiled) forward pass runs its conv GEMMs through the
#: process-wide scratch workspace in ``repro.nn.convgemm``, which assumes one
#: engine call at a time per process.  Serving runs one ``MicroBatcher``
#: thread per model version, each predicting through its own classifier's
#: entry, and a hot swap keeps two versions live at once — so two entries can
#: predict concurrently in one process.  Compiled plans carry their own
#: in-arena scratch (and a per-plan lock); only the uncompiled walk
#: (``compile_plans=False``) needs this process-wide lock.
_UNCOMPILED_PREDICT_LOCK = threading.Lock()


class LocalModelEntry:
    """One published model held in-process: model + filter + compiled engine.

    The one place a parent process builds a ``CompiledUNet`` (none with
    ``compile_plans`` off); a fork worker's ``AttachedModel`` is one too.
    """

    __slots__ = ("model", "cloud_filter", "engine", "handle")

    def __init__(self, key, model, cloud_filter=None, compile_plans: bool = True,
                 packed_weights: dict | None = None) -> None:
        from ..unet.compiled import CompiledUNet
        from ..unet.model import UNet

        if not isinstance(model, UNet):
            raise TypeError(f"a published model must be a UNet, got {type(model).__name__}")
        self.model = model
        self.cloud_filter = cloud_filter
        self.engine = CompiledUNet(model, packed_weights=packed_weights) if compile_plans else None
        config = model.config
        self.handle = ModelHandle(key=key, num_classes=config.num_classes, in_channels=config.in_channels)

    def predict(self, batch: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        from ..unet.inference import predict_batch_probabilities

        with _UNCOMPILED_PREDICT_LOCK if self.engine is None else nullcontext():
            return predict_batch_probabilities(
                batch, self.model, self.cloud_filter, engine=self.engine, out=out
            )


# ---------------------------------------------------------------------- #
# Registry / resolution
# ---------------------------------------------------------------------- #
def _fork_available() -> bool:
    return hasattr(os, "fork")


def resolve_backend_name(name: str | None, num_workers: int = 1) -> str:
    """Resolve a backend spec (possibly ``"auto"``/``None``) to a concrete name.

    ``auto`` honours the ``REPRO_BACKEND`` environment variable first (the CI
    matrix knob), then picks ``fork`` when more than one worker was requested
    and the platform supports it, and falls back to ``serial`` otherwise.
    An explicit name is validated against the platform (``fork`` on a
    fork-less platform fails here, at config time, not deep inside a worker).
    """
    if name in (None, "", "auto"):
        env = os.environ.get(BACKEND_ENV_VAR, "").strip().lower()
        if env:
            name = env
        else:
            return "fork" if num_workers > 1 and _fork_available() else "serial"
    name = str(name).lower()
    valid = ("serial", "fork")
    if name not in valid:
        raise ValueError(f"unknown backend {name!r}; expected one of {valid} or 'auto'")
    if name == "fork" and not _fork_available():
        raise ValueError("backend 'fork' is not available on this platform "
                         "(no os.fork); use 'serial'")
    return name


def make_backend(name: str | None = "auto", num_workers: int | None = None, **kwargs) -> Backend:
    """Build a backend by name (``"auto"`` resolves via :func:`resolve_backend_name`)."""
    from .process import ProcessBackend
    from .serial import SerialBackend

    if num_workers is None:
        num_workers = available_cpu_count()
    resolved = resolve_backend_name(name, num_workers)
    if resolved == "serial":
        return SerialBackend()
    return ProcessBackend(num_workers=num_workers, **kwargs)


#: The started backends jobs borrow, by ``(name, num_workers)``; they outlive every job (closed at exit).
_SESSION: dict[tuple[str, int], Backend] = {}
_SESSION_LOCK = threading.Lock()


def session_backend(name: str, num_workers: int) -> Backend:
    """The started backend every job of this process borrows: started on first use, replaced once it stops running."""
    with _SESSION_LOCK:
        backend = _SESSION.get((name, num_workers))
        if backend is None or not backend.running:
            backend = _SESSION[(name, num_workers)] = make_backend(name, num_workers).start()
    return backend


@contextmanager
def scoped_session_backend(name: str, num_workers: int) -> Iterator[Backend]:
    """:func:`session_backend` for one block: a backend the block starts is closed when it ends, one that was
    already running before it stays for the jobs that borrow it."""
    with _SESSION_LOCK:
        kept = _SESSION.get((name, num_workers))
    backend = session_backend(name, num_workers)
    try:
        yield backend
    finally:
        if backend is not kept:
            with _SESSION_LOCK:
                if _SESSION.get((name, num_workers)) is backend:
                    del _SESSION[(name, num_workers)]
            backend.close()


def close_session_backends() -> None:
    """Close every backend :func:`session_backend` started (runs at interpreter exit)."""
    with _SESSION_LOCK:
        while _SESSION:
            _SESSION.popitem()[1].close()


atexit.register(close_session_backends)
