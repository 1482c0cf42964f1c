"""The fork backend: persistent worker processes + shared-memory everything.

What made the old per-call fork pool *slower* than a single process was
per-call overhead that scaled with model and output size: every call forked
a fresh pool, every worker re-compiled plans from scratch, and every
result batch (~16 MB of probability maps per scene) was pickled back
through a pipe.  This backend removes all three costs structurally:

* **Workers are persistent.**  Forked once, they keep their attached models
  and compiled plans across calls; steady-state prediction re-runs warm
  arena plans.
* **Weights live in one shared segment** (:mod:`repro.backend.store`).
  Publishing pickles nothing to workers but a tiny spec; workers alias the
  parent's weight copy read-only and bind the pre-packed GEMM operands
  directly, so plan compilation in a worker never re-packs a kernel.
* **Batches travel by shared arena, not pipe.**  ``predict_stack`` writes
  the tile stack into a shared input segment once, task messages carry only
  ``(start, stop)`` span indices, and each worker's plan softmaxes straight
  into the shared output arena (``plan.run(out=…)``).  The I/O segment pair
  is cached per ``(key, stack shape)`` and reused across scenes, so the
  steady state allocates nothing and concatenates nothing.

* **Residents are published, not inherited.**  A worker holds whatever the
  store keeps — attached models, and the elastic trainer's replicas
  (:mod:`repro.distributed.elastic`) — built by ``spec.attach()`` on the
  worker's side of a ``publish``; a respawned worker gets every one again.

Workers that fail are handled, not propagated: a dead pipe or a dispatch
that blows its per-op timeout (``dispatch_timeout_s``, env
``REPRO_DISPATCH_TIMEOUT_S``) kills the worker, which is respawned with
every resident republished before the call that lost it returns, and the
idempotent ops :meth:`ProcessBackend.submit` runs — a prediction span
writes only its own slice of the shared output arena, a trainer step only
its own gradient slot — are retried on another worker with capped
exponential backoff.  A background watchdog heartbeats idle workers
(every ``REPRO_HEARTBEAT_S`` seconds) and respawns hung or
dead ones before the next dispatch ever lands on them.  Only after retries
exhaust does the caller see a :class:`BackendError`.
"""

from __future__ import annotations

import math
import os
import queue
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable

import numpy as np

from ..obs.metrics import get_registry
from ..obs.trace import current_trace_id
from ..reliability import MAX_RETRIES, Deadline, backoff, fault_point
from .base import Backend, BackendError, ModelHandle, available_cpu_count
from .store import (
    SharedModelStore,
    attach_segment,
    close_segment,
    create_segment,
    ndarray_view,
)
from .worker import Reply, WorkerLost, WorkerProcess, serve

__all__ = ["ProcessBackend"]

#: Environment overrides for the reliability knobs (CI's chaos arm tightens
#: them; ``<= 0`` disables the mechanism).
DISPATCH_TIMEOUT_ENV_VAR = "REPRO_DISPATCH_TIMEOUT_S"
HEARTBEAT_ENV_VAR = "REPRO_HEARTBEAT_S"

_DEFAULT_DISPATCH_TIMEOUT_S = 30.0
_DEFAULT_HEARTBEAT_S = 2.0
_PING_TIMEOUT_S = 5.0


def _env_float(var: str, default: float) -> float:
    """Seconds from ``var``: unset or empty means ``default``; a value that is not a number raises."""
    raw = os.environ.get(var, "").strip()
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if math.isnan(value):  # ``nan > 0`` is false: it would read as "disabled"
        raise ValueError(f"{var}={raw!r} is not a number of seconds (<= 0 disables)")
    return value


# ---------------------------------------------------------------------- #
# Worker process
# ---------------------------------------------------------------------- #
def _worker_main(conn, inherited) -> None:
    """One backend worker: its residents, its arena views, its op handlers."""
    residents: dict = {}  # key -> what its spec's attach() built (AttachedModel, trainer replica)
    segments: dict = {}  # segment name -> (SharedMemory, ndarray view)
    hist_compute = get_registry().histogram(
        "repro_backend_compute_ms",
        "Model compute time per predict dispatch",
        ("backend",),
    )

    def view(name, shape, dtype, writeable):
        cached = segments.get(name)
        if cached is None:
            shm = attach_segment(name)
            cached = (shm, ndarray_view(shm, tuple(shape), dtype=dtype, writeable=writeable))
            segments[name] = cached
        return cached[1]

    def release(key):
        old = residents.pop(key, None)
        if old is not None:
            old.close()

    def publish(spec):
        release(spec.key)
        residents[spec.key] = spec.attach()

    def timed_predict(key, src, out, trace_id):
        # The trace id crossed the pipe with the request and goes back in the
        # reply meta, next to the compute time measured where the model ran.
        entry = residents[key]
        fault_point("worker_crash")
        fault_point("worker_hang")
        t0 = time.perf_counter()
        result = entry.predict(src, out=out)
        compute_ms = (time.perf_counter() - t0) * 1e3
        hist_compute.observe(compute_ms, backend="fork")
        return Reply(None if out is not None else result,
                     compute_ms=compute_ms, trace_id=trace_id)

    def predict_span(key, in_name, in_shape, in_dtype, out_name, out_shape,
                     start, stop, trace_id):
        src = view(in_name, in_shape, np.dtype(in_dtype), writeable=False)
        dst = view(out_name, out_shape, np.float32, writeable=True)
        return timed_predict(key, src[start:stop], dst[start:stop], trace_id)

    def predict_batch(key, batch, trace_id):
        return timed_predict(key, batch, None, trace_id)

    def drop_segments(names):
        for name in names:
            cached = segments.pop(name, None)
            if cached is not None:
                close_segment(cached[0])

    def cleanup():
        for resident in residents.values():
            resident.close()
        for shm, _view in segments.values():
            close_segment(shm)

    serve(conn, inherited, {
        "publish": publish,
        "release": release,
        "predict_span": predict_span,
        "predict_batch": predict_batch,
        "warm": lambda key, shape: residents[key].warm(shape),
        "train_step": lambda key, *args: residents[key].step(*args),
        "map_chunk": lambda fn, chunk: [fn(item) for item in chunk],
        "drop_segments": drop_segments,
    }, cleanup)


class _IOSegments:
    """A reusable shared input/output arena pair for one (key, stack shape)."""

    def __init__(self, stack_shape, stack_dtype, out_shape) -> None:
        dtype = np.dtype(stack_dtype)
        self.in_shm = create_segment(int(np.prod(stack_shape, dtype=np.int64)) * dtype.itemsize)
        self.out_shm = create_segment(int(np.prod(out_shape, dtype=np.int64)) * 4)
        self.in_view = ndarray_view(self.in_shm, tuple(stack_shape), dtype=dtype)
        self.out_view = ndarray_view(self.out_shm, tuple(out_shape), dtype=np.float32)
        self.in_dtype = dtype.str

    @property
    def names(self) -> tuple[str, str]:
        return (self.in_shm.name, self.out_shm.name)

    def destroy(self) -> None:
        self.in_view = None
        self.out_view = None
        close_segment(self.in_shm, unlink=True)
        close_segment(self.out_shm, unlink=True)


# ---------------------------------------------------------------------- #
# Parent-side backend
# ---------------------------------------------------------------------- #
class ProcessBackend(Backend):
    """Persistent fork workers attached to the shared-memory model store."""

    name = "fork"

    def __init__(self, num_workers: int = 2, *, dispatch_timeout_s: float | None = None) -> None:
        super().__init__(num_workers=num_workers)
        if dispatch_timeout_s is None:
            dispatch_timeout_s = _env_float(DISPATCH_TIMEOUT_ENV_VAR,
                                            _DEFAULT_DISPATCH_TIMEOUT_S)
        heartbeat_interval_s = _env_float(HEARTBEAT_ENV_VAR, _DEFAULT_HEARTBEAT_S)
        #: reply deadline of every predict dispatch and broadcast; <= 0 disables
        self.dispatch_timeout_s = dispatch_timeout_s if dispatch_timeout_s > 0 else None
        #: idle-worker heartbeat period; <= 0 disables the watchdog
        self.heartbeat_interval_s = heartbeat_interval_s if heartbeat_interval_s > 0 else None
        self._store = SharedModelStore()
        self._handles: dict[object, ModelHandle] = {}
        self._workers: list[WorkerProcess] = []
        # LIFO free-list: sequential spans stick to the most recently used
        # (cache-hot) worker instead of round-robining every span onto a
        # worker whose arena has gone cold; concurrent dispatch still fans
        # out because busy workers are simply absent from the stack.
        self._free: queue.LifoQueue[int] = queue.LifoQueue()
        self._dispatcher: ThreadPoolExecutor | None = None
        self._io: dict[tuple, _IOSegments] = {}
        self._io_lock = threading.Lock()
        self._busy = 0
        self._busy_lock = threading.Lock()
        self._respawns = 0
        self._retries = 0
        self._watchdog: threading.Thread | None = None
        self._watchdog_stop = threading.Event()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def _start(self) -> None:
        self._workers = []
        for index in range(self.num_workers):
            self._workers.append(WorkerProcess(_worker_main, siblings=self._workers))
            self._free.put(index)
        # In-flight dispatch is capped at the cores actually available:
        # running more concurrent workers than cores buys no throughput and
        # costs real time — the interleaved forwards evict each other's
        # caches (each plan's working set is tens of MB).  All workers stay
        # up and warm either way; the cap only bounds concurrency.
        inflight = max(1, min(self.num_workers, available_cpu_count()))
        self._dispatcher = ThreadPoolExecutor(
            max_workers=inflight, thread_name_prefix="repro-backend-dispatch"
        )
        if self.heartbeat_interval_s is not None:
            self._watchdog_stop.clear()
            self._watchdog = threading.Thread(
                target=self._watchdog_loop, name="repro-backend-watchdog", daemon=True
            )
            self._watchdog.start()

    def _close(self) -> None:
        # Watchdog first, or it would respawn the workers being stopped.
        self._watchdog_stop.set()
        if self._watchdog is not None:
            self._watchdog.join(timeout=2 * _PING_TIMEOUT_S)
            self._watchdog = None
        if self._dispatcher is not None:
            self._dispatcher.shutdown(wait=True)
            self._dispatcher = None
        for worker in self._workers:
            worker.stop()
        self._workers = []
        with self._io_lock:
            segments = list(self._io.values())
            self._io.clear()
        for seg in segments:
            seg.destroy()
        self._store.close()
        self._handles.clear()

    # ------------------------------------------------------------------ #
    # Worker checkout / dispatch
    # ------------------------------------------------------------------ #
    def _checkout(self) -> int:
        index = self._free.get()
        if not self._workers[index].alive:
            try:
                self._respawn(index)
            except BaseException:
                self._free.put(index)  # still dead: the next checkout tries again
                raise
        return index

    def _respawn(self, index: int) -> None:
        """Replace a dead worker and republish every stored resident into it."""
        self._workers[index].stop(timeout=0.5)
        worker = WorkerProcess(
            _worker_main,
            siblings=[w for i, w in enumerate(self._workers) if i != index],
        )
        self._workers[index] = worker
        with self._busy_lock:  # dispatcher threads respawn concurrently
            self._respawns += 1
        try:
            for spec in self._store.specs():
                worker.call("publish", spec, timeout=self.dispatch_timeout_s)
        except BackendError:
            worker.kill()  # a worker missing a stored model must not serve
            raise

    def _watchdog_loop(self) -> None:
        """Heartbeat idle workers; kill and respawn any that fail to answer.

        Only *free* workers are pinged — a busy worker is covered by its
        dispatch timeout, and checking out through the free-list means the
        watchdog can never race a dispatcher for the same worker.
        """
        while not self._watchdog_stop.wait(self.heartbeat_interval_s):
            indices = []
            while True:
                try:
                    indices.append(self._free.get_nowait())
                except queue.Empty:
                    break
            for index in indices:
                if self._watchdog_stop.is_set():
                    self._free.put(index)
                    continue
                worker = self._workers[index]
                try:
                    if worker.alive:
                        worker.call("ping", timeout=_PING_TIMEOUT_S)
                    else:
                        self._respawn(index)
                except BackendError:
                    pass  # left dead: the next checkout (or beat) respawns it
                finally:
                    self._free.put(index)

    def _call(self, *msg, timeout: float | None = None):
        """Run one request on any free worker (blocks while all are busy)."""
        self._ensure_open()
        index = self._checkout()
        with self._busy_lock:
            self._busy += 1
        try:
            return self._workers[index].call(*msg, timeout=timeout)
        except WorkerLost:
            # Back at full strength before the caller hears of the loss; a
            # failed respawn leaves it dead for the next checkout to retry.
            try:
                self._respawn(index)
            except BackendError:
                pass
            raise
        finally:
            with self._busy_lock:
                self._busy -= 1
            self._free.put(index)

    def _retried_call(self, *msg, deadline: Deadline | None = None):
        """A `_call` that survives worker loss: kill, respawn, retry, backoff.

        Only idempotent ops come here (a span writes only its own output
        slice, a trainer step only its own gradient slot), so a lost worker
        just means the op runs again elsewhere.  Worker-side *errors*
        (``("err", …)`` replies) are not retried — the worker is healthy and
        the failure is deterministic.  The deadline is checked before every
        attempt so expired work never dispatches.
        """
        attempt = 0
        while True:
            if deadline is not None:
                deadline.check("backend dispatch")
            try:
                return self._call(*msg, timeout=self.dispatch_timeout_s)
            except WorkerLost:
                if attempt >= MAX_RETRIES:
                    raise
                with self._busy_lock:
                    self._retries += 1
                backoff(attempt, deadline)
                attempt += 1

    def _broadcast(self, *msg) -> None:
        """Run one request on every worker.

        All sends go out before any reply is collected, so broadcast work
        (attaching a published model, warming a plan) runs concurrently
        across the worker processes instead of one worker at a time.  A
        worker that errs or misses the reply deadline is killed: it is out
        of step with the store, and the next checkout respawns it with
        every stored model republished.
        """
        indices: list[int] = []
        try:
            for _ in self._workers:
                indices.append(self._checkout())
            sent = []
            for index in indices:
                worker = self._workers[index]
                try:
                    worker.send(*msg)
                    sent.append(worker)
                except WorkerLost:
                    pass
            for worker in sent:
                try:
                    worker.recv(self.dispatch_timeout_s)
                except WorkerLost:
                    pass
                except BackendError:
                    worker.kill()
        finally:
            for index in indices:
                self._free.put(index)

    # ------------------------------------------------------------------ #
    # Generic dispatch
    # ------------------------------------------------------------------ #
    def submit(self, *msg) -> Future:
        """Run the idempotent op ``msg`` on any worker from a dispatcher thread, retried on worker loss."""
        self._ensure_open()
        return self._dispatcher.submit(self._retried_call, *msg)

    def _run_chunks(self, fn: Callable, chunks: list[list]) -> list[list]:
        futures = [self._dispatcher.submit(self._call, "map_chunk", fn, chunk)
                   for chunk in chunks]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------ #
    # Model store
    # ------------------------------------------------------------------ #
    def publish_model(self, key, model, cloud_filter=None, *, compile_plans: bool = True) -> ModelHandle:
        # ``compile_plans`` is ignored: workers always compile.
        self._ensure_open()
        spec = self._store.publish(key, model, cloud_filter)
        self._drop_io(key)
        self._broadcast("publish", spec)
        config = model.config
        handle = ModelHandle(key=key, num_classes=int(config.num_classes),
                             in_channels=int(config.in_channels))
        self._handles[key] = handle
        return handle

    def publish_resident(self, spec, shm) -> None:
        """Install ``spec.attach()`` in every worker, respawned ones too; the store owns segment ``shm`` from now on."""
        self._ensure_open()
        self._broadcast("publish", self._store.keep(spec, shm))

    def release_model(self, key) -> None:
        if key not in self._store:
            return
        self._drop_io(key)
        self._broadcast("release", key)
        self._store.release(key)
        self._handles.pop(key, None)

    def has_model(self, key) -> bool:
        return key in self._store

    def _drop_io(self, key) -> None:
        with self._io_lock:
            dropped = [k for k in self._io if k[0] == key]
            segments = [self._io.pop(k) for k in dropped]
        if segments:
            names = [name for seg in segments for name in seg.names]
            self._broadcast("drop_segments", names)
            for seg in segments:
                seg.destroy()

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #
    def predict(self, key, batch: np.ndarray, deadline: Deadline | None = None) -> np.ndarray:
        self._ensure_open()
        if key not in self._store:
            raise KeyError(key)
        self._count_task()
        # The trace id crosses the pipe with the batch and comes back echoed
        # in reply meta: the worker's compute time is attributed to *this*
        # request's collector, and the round trip itself is testable.
        return self._retried_call("predict_batch", key, np.ascontiguousarray(batch),
                                  current_trace_id(), deadline=deadline)

    def _io_for(self, key, stack: np.ndarray) -> tuple[_IOSegments, bool]:
        handle = self._handles[key]
        h, w = stack.shape[1:3]
        out_shape = (stack.shape[0], handle.num_classes, h, w)
        cache_key = (key, stack.shape, stack.dtype.str)
        created = False
        with self._io_lock:
            seg = self._io.get(cache_key)
            if seg is None:
                seg = _IOSegments(stack.shape, stack.dtype, out_shape)
                self._io[cache_key] = seg
                created = True
        return seg, created

    def predict_stack(self, key, stack: np.ndarray, batch_size: int, copy: bool = True) -> np.ndarray:
        """Zero-pickle stack prediction through the shared I/O arenas.

        With ``copy=False`` the returned array is the shared output arena
        itself — valid until the next call for the same key and stack shape.
        """
        self._ensure_open()
        if key not in self._store:
            raise KeyError(key)
        stack = np.asarray(stack)
        if stack.shape[0] == 0:
            handle = self._handles[key]
            return np.zeros((0, handle.num_classes) + stack.shape[1:3], dtype=np.float32)
        seg, created = self._io_for(key, stack)
        seg.in_view[...] = stack
        spans = [(start, min(start + batch_size, stack.shape[0]))
                 for start in range(0, stack.shape[0], batch_size)]
        if created:
            # First sight of this stack shape: bring every worker's plan(s)
            # fully hot (compiled *and* first-touched) before real spans are
            # dispatched, so no span — this call's or a later one's — lands
            # on a cold plan.
            for shape in sorted({(stop - start,) + stack.shape[1:] for start, stop in spans},
                                reverse=True):
                self._broadcast("warm", key, shape)
        self._count_task(len(spans))
        in_name, out_name = seg.names
        # Capture the trace id here, in the caller's thread — the dispatcher
        # threads running the spans have no collector of their own.
        trace_id = current_trace_id()
        futures = [
            self.submit("predict_span", key, in_name, seg.in_view.shape, seg.in_dtype,
                        out_name, seg.out_view.shape, start, stop, trace_id)
            for start, stop in spans
        ]
        # Drain every span before raising, so no in-flight worker is still
        # writing into the shared arena when the caller sees the failure.
        errors = []
        for future in futures:
            try:
                future.result()
            except Exception as exc:
                errors.append(exc)
        if errors:
            raise errors[0]
        return np.array(seg.out_view) if copy else seg.out_view

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def _busy_workers(self) -> int:
        with self._busy_lock:
            return self._busy

    def _model_keys(self) -> list:
        return self._store.keys()

    def occupancy(self) -> dict:
        info = super().occupancy()
        info["worker_pids"] = [w.process.pid for w in self._workers if w.alive]
        info["alive_workers"] = len(info["worker_pids"])
        with self._busy_lock:
            info["respawns"] = self._respawns
            info["dispatch_retries"] = self._retries
        info["dispatch_timeout_s"] = self.dispatch_timeout_s
        info["heartbeat_interval_s"] = self.heartbeat_interval_s
        with self._io_lock:
            info["io_segments"] = 2 * len(self._io)
        return info
