"""Request queue + micro-batcher: coalesce concurrent tile predictions.

Serving traffic arrives as many independent single-tile requests, but the
NumPy engine is far more efficient predicting one ``(N, H, W, 3)`` batch
than ``N`` separate ``(1, H, W, 3)`` calls — the offset-GEMM forward
amortises its per-call setup (tensor conversion, layer dispatch, softmax)
across the whole batch and runs bigger, better-shaped GEMMs.

The :class:`MicroBatcher` owns a single worker thread and a deque under one
condition.  Callers :meth:`submit` a tile (or :meth:`submit_many` a request's
tiles, atomically) and get :class:`PendingPrediction` futures.  The flush rule
is work-conserving, the one Nagle's algorithm uses: an idle worker flushes
what is queued *now* — a lone request never waits for company — and while a
flush is in flight the queue accumulates, so under load the next flush takes
up to ``max_batch`` tiles by itself.  Each flush groups its tiles by shape
and runs one batched call per group through the shared prediction seam
(:func:`repro.unet.predict_batch_probabilities`).
"""

from __future__ import annotations

import inspect
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Iterable

import numpy as np

from ..obs.metrics import get_registry
from ..obs.trace import collector_context
from ..reliability import Deadline, DeadlineExceeded, OverloadedError

__all__ = ["BatcherStats", "MicroBatcher", "PendingPrediction"]

#: Flush-size buckets: powers of two up to the largest ``max_batch`` anyone
#: reasonably configures, so the batcher's padding targets land exactly on
#: bucket boundaries.
FLUSH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: ``predict_fn`` contract: ``(N, H, W, 3) uint8 -> (N, K, H, W) float32``.
PredictFn = Callable[[np.ndarray], np.ndarray]


class PendingPrediction:
    """Future-like handle for one submitted tile."""

    __slots__ = ("tile", "deadline", "trace_id", "submitted_at", "timings",
                 "_event", "_result", "_error", "_cancelled")

    def __init__(self, tile: np.ndarray, deadline: Deadline | None = None,
                 trace_id: str | None = None) -> None:
        self.tile = tile
        self.deadline = deadline
        self.trace_id = trace_id
        #: ``time.perf_counter()`` at submit; queue wait = flush start − this.
        self.submitted_at = time.perf_counter()
        #: Per-stage breakdown filled in by the flush that served this tile:
        #: ``queue_wait_ms`` / ``batch_assembly_ms`` / ``dispatch_ms`` /
        #: ``compute_ms`` plus ``batch_size``.  Empty until resolved.
        self.timings: dict = {}
        self._event = threading.Event()
        self._result: np.ndarray | None = None
        self._error: BaseException | None = None
        self._cancelled = False

    def _resolve(self, result: np.ndarray | None, error: BaseException | None = None) -> None:
        self._result = result
        self._error = error
        self._event.set()

    def cancel(self) -> bool:
        """Abandon the prediction: the flush drops it instead of computing it.

        Returns whether the cancellation landed before a result did.  Without
        this, a caller that times out leaves its tile queued — the batcher
        still spends a full prediction on a result nobody will read.
        """
        if self._event.is_set():
            return False
        self._cancelled = True
        return True

    def result(self, timeout: float | None = None) -> np.ndarray:
        """Block until the prediction is available; re-raises worker errors.

        A timed-out wait cancels the pending work on the way out, so the
        batcher never computes for a caller that already gave up.
        """
        if not self._event.wait(timeout):
            self.cancel()
            raise TimeoutError(f"prediction not ready within {timeout}s")
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result


@dataclass
class BatcherStats:
    """Counters for observing how well coalescing (and shedding) works."""

    requests: int = 0
    batches: int = 0
    max_batch_size: int = 0
    cancelled: int = 0
    expired: int = 0
    shed: int = 0
    queue_depth: int = 0
    max_queue: int | None = None

    @property
    def mean_batch_size(self) -> float:
        return self.requests / self.batches if self.batches else 0.0

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "batches": self.batches,
            "max_batch_size": self.max_batch_size,
            "mean_batch_size": round(self.mean_batch_size, 3),
            "cancelled": self.cancelled,
            "expired": self.expired,
            "shed": self.shed,
            "queue_depth": self.queue_depth,
            "max_queue": self.max_queue,
        }


class MicroBatcher:
    """Coalesce concurrent single-tile requests into batched predictions.

    Parameters
    ----------
    predict_fn:
        Batched prediction callable ``(N, H, W, 3) -> (N, K, H, W)``; the
        service binds a warm model's ``SceneClassifier.predict_batch``.
    max_batch:
        Most tiles one flush takes.  Requests are taken whole, in arrival
        order, while they fit; only a request larger than ``max_batch`` is
        split (into ``max_batch``-tile flushes).  Every flushed shape group is
        padded up to the next power of two (capped at ``max_batch``) by
        repeating its last tile, and the padded predictions are cropped away
        afterwards.  This pins the set of batch shapes the predictor ever sees
        to ``{1, 2, 4, …, max_batch}`` per tile shape, so a compiled-plan
        engine behind ``predict_fn`` stays inside a handful of warm plans
        instead of recompiling (or thrashing its LRU cache) for every distinct
        queue depth.
    max_queue:
        Bound the request queue: a request whose tiles would take it past
        this many waiting tiles is shed whole, immediately, with
        :class:`~repro.reliability.OverloadedError` instead of queueing work
        that cannot finish in time.  ``None`` keeps the queue unbounded.
    """

    def __init__(self, predict_fn: PredictFn, max_batch: int = 8, max_queue: int | None = None,
                 name: str = "default") -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be >= 1 (or None for unbounded)")
        self._predict_fn = predict_fn
        self.name = str(name)
        registry = get_registry()
        self._m_flush_size = registry.histogram(
            "repro_batcher_flush_size",
            "Live requests per flushed micro-batch",
            ("batcher",), buckets=FLUSH_SIZE_BUCKETS,
        )
        self._m_queue_wait = registry.histogram(
            "repro_batcher_queue_wait_ms",
            "Milliseconds a tile waited in the batch queue before its flush",
            ("batcher",),
        )
        self._m_requests = registry.counter(
            "repro_batcher_requests_total",
            "Tiles handled by the batcher, by outcome (served/cancelled/expired/shed)",
            ("batcher", "outcome"),
        )
        # The flush loop's labels never change, so bind them once: hot-path
        # updates skip per-call label validation.
        self._m_flush_size_cell = self._m_flush_size.labels(batcher=self.name)
        self._m_queue_wait_cell = self._m_queue_wait.labels(batcher=self.name)
        self._m_served_cell = self._m_requests.labels(batcher=self.name, outcome="served")
        # Forward per-batch deadlines only to predictors that understand them
        # (the SceneClassifier seam does; a bare lambda in a test need not).
        try:
            self._fn_takes_deadline = "deadline" in inspect.signature(predict_fn).parameters
        except (TypeError, ValueError):  # pragma: no cover - builtins etc.
            self._fn_takes_deadline = False
        self.max_batch = int(max_batch)
        self.max_queue = None if max_queue is None else int(max_queue)
        # One condition guards the queue, its tile count, the closed flag and
        # the counters.  Entries are whole requests (tuples of tiles).
        self._cond = threading.Condition()
        self._queue: deque[tuple[PendingPrediction, ...]] = deque()
        self._depth = 0
        self._closed = False
        self._stats = BatcherStats()
        self._worker = threading.Thread(target=self._run, name="micro-batcher", daemon=True)
        self._worker.start()

    # ------------------------------------------------------------------ #
    # Client side
    # ------------------------------------------------------------------ #
    def submit_many(self, tiles: Iterable[np.ndarray], deadline: Deadline | None = None,
                    trace_id: str | None = None) -> list[PendingPrediction]:
        """Enqueue one request's ``(H, W, 3)`` tiles atomically; one future per tile.

        All tiles enter the queue in one step (or none do), so the worker
        sees the request whole and flushes it as one batch per ``max_batch``
        tiles.  ``deadline`` rides along with every tile: entries that expire
        while queued are dropped at flush time (the caller's ``result()``
        raises :class:`~repro.reliability.DeadlineExceeded`) instead of
        computed.  ``trace_id`` (if any) rides along too and is forwarded to
        the backend dispatch for its served group.  Raises
        :class:`~repro.reliability.OverloadedError` when the tiles do not fit
        under ``max_queue``.
        """
        request = []
        for tile in tiles:
            arr = np.asarray(tile)
            if arr.ndim != 3 or arr.shape[-1] != 3:
                raise ValueError(f"expected one (H, W, 3) tile, got shape {arr.shape}")
            request.append(PendingPrediction(arr, deadline=deadline, trace_id=trace_id))
        if not request:
            return request
        with self._cond:
            if self._closed:
                raise RuntimeError("MicroBatcher is closed")
            if self.max_queue is not None and self._depth + len(request) > self.max_queue:
                self._stats.shed += len(request)
                self._m_requests.inc(len(request), batcher=self.name, outcome="shed")
                raise OverloadedError(
                    f"batcher queue full ({self.max_queue} tiles max, {len(request)} more "
                    "do not fit); request shed"
                )
            self._queue.append(tuple(request))
            self._depth += len(request)
            self._cond.notify()
        return request

    def submit(self, tile: np.ndarray, deadline: Deadline | None = None,
               trace_id: str | None = None) -> PendingPrediction:
        """Enqueue one ``(H, W, 3)`` tile: the one-tile case of :meth:`submit_many`."""
        return self.submit_many([tile], deadline=deadline, trace_id=trace_id)[0]

    def predict(self, tile: np.ndarray, timeout: float | None = 60.0) -> np.ndarray:
        """Synchronous convenience: submit one tile and wait for its ``(K, H, W)`` map."""
        deadline = Deadline(timeout) if timeout is not None else None
        return self.submit(tile, deadline=deadline).result(timeout)

    def stats(self) -> BatcherStats:
        with self._cond:
            return replace(self._stats, queue_depth=self._depth, max_queue=self.max_queue)

    def flush_size_histogram(self) -> dict:
        """Bucketed snapshot of live-requests-per-flush for this batcher (``/stats``)."""
        return self._m_flush_size.snapshot(batcher=self.name)

    def close(self, timeout: float | None = 5.0) -> None:
        """Stop accepting work, drain what is queued, and join the worker.

        Idempotent and thread-safe: concurrent retirement paths (a registry
        hot-swap racing an LRU eviction) may both close the same batcher.
        Everything admitted before the flag was set is served — ``submit``
        checks the flag under the same condition — so no caller is stranded.
        """
        with self._cond:
            self._closed = True
            self._cond.notify()
        self._worker.join(timeout)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Worker side
    # ------------------------------------------------------------------ #
    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._queue:
                    if self._closed:
                        return
                    self._cond.wait()
                # Whole requests while they fit; a head request larger than
                # max_batch is served in max_batch-tile slices.
                batch: list[PendingPrediction] = []
                while self._queue and len(batch) + len(self._queue[0]) <= self.max_batch:
                    batch += self._queue.popleft()
                if not batch:
                    head = self._queue[0]
                    batch, self._queue[0] = list(head[:self.max_batch]), head[self.max_batch:]
                self._depth -= len(batch)
            self._flush(batch)

    def _flush(self, batch: list[PendingPrediction]) -> None:
        flush_start = time.perf_counter()
        # Shed dead weight before compute: entries whose caller cancelled
        # (timed out and left) or whose deadline expired while queued would
        # burn a full prediction on a result nobody reads.
        live: list[PendingPrediction] = []
        cancelled = 0
        expired = 0
        for pending in batch:
            if pending._cancelled:
                cancelled += 1
                pending._resolve(None, RuntimeError("prediction cancelled by caller"))
            elif pending.deadline is not None and pending.deadline.expired:
                expired += 1
                try:
                    pending.deadline.check("batch queue")
                except DeadlineExceeded as exc:
                    pending._resolve(None, exc)
            else:
                live.append(pending)
        with self._cond:
            self._stats.cancelled += cancelled
            self._stats.expired += expired
            if live:
                self._stats.requests += len(live)
                self._stats.batches += 1
                self._stats.max_batch_size = max(self._stats.max_batch_size, len(live))
        if cancelled:
            self._m_requests.inc(cancelled, batcher=self.name, outcome="cancelled")
        if expired:
            self._m_requests.inc(expired, batcher=self.name, outcome="expired")
        if not live:
            return
        self._m_flush_size_cell.observe(len(live))
        groups: dict[tuple[int, ...], list[PendingPrediction]] = {}
        for pending in live:
            groups.setdefault(pending.tile.shape, []).append(pending)
        for group in groups.values():
            # The stage collector rides this thread into the prediction seam:
            # whichever backend serves the group records its ``compute_ms``
            # here (the fork backend forwards the group's trace id to the
            # worker and records the worker-measured time from reply meta).
            collector: dict = {}
            group_trace = next((p.trace_id for p in group if p.trace_id is not None), None)
            predict_start = flush_start
            try:
                tiles = [p.tile for p in group]
                target = min(1 << (len(tiles) - 1).bit_length(), self.max_batch)
                tiles = tiles + [tiles[-1]] * (target - len(tiles))
                stack = np.stack(tiles)
                predict_start = time.perf_counter()
                with collector_context(collector, group_trace):
                    if self._fn_takes_deadline:
                        # The batch must finish for its longest-lived entry, so
                        # the *latest* expiry governs; any unbounded entry makes
                        # the whole batch unbounded.
                        deadlines = [p.deadline for p in group]
                        batch_deadline = None
                        if all(d is not None for d in deadlines):
                            batch_deadline = max(
                                deadlines,
                                key=lambda d: (d.expires_at is None, d.expires_at or 0.0),
                            )
                        probs = self._predict_fn(stack, deadline=batch_deadline)
                    else:
                        probs = self._predict_fn(stack)
                dispatch_total_ms = (time.perf_counter() - predict_start) * 1e3
                if probs.shape[0] != target:
                    raise RuntimeError(
                        f"predict_fn returned {probs.shape[0]} maps for {target} tiles"
                    )
            except BaseException as exc:  # noqa: BLE001 - delivered to the caller
                for pending in group:
                    pending._resolve(None, exc)
                continue
            # Decompose the predict call: ``compute_ms`` is what the backend
            # measured where the model ran (inline, pool thread or worker
            # process) — 0 for a ``predict_fn`` that is not a backend dispatch;
            # the rest of the call is dispatch overhead (message framing,
            # pickling, pool hops).  Assembly is the pre-call flush work.
            assembly_ms = (predict_start - flush_start) * 1e3
            compute_ms = float(collector.get("compute_ms", 0.0))
            dispatch_ms = max(0.0, dispatch_total_ms - compute_ms)
            self._m_served_cell.inc(len(group))
            for pending, prob in zip(group, probs):
                queue_wait_ms = (flush_start - pending.submitted_at) * 1e3
                self._m_queue_wait_cell.observe(queue_wait_ms)
                pending.timings = {
                    "queue_wait_ms": queue_wait_ms,
                    "batch_assembly_ms": assembly_ms,
                    "dispatch_ms": dispatch_ms,
                    "compute_ms": compute_ms,
                    "batch_size": len(group),
                }
                # Copy, not a view: a slice of the batch output would pin the
                # whole (N, K, H, W) array alive for as long as any single
                # caller keeps its map.
                pending._resolve(np.array(prob))
