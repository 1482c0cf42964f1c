"""Ring all-reduce (Patarasuk & Yuan 2009) — the algorithm behind Horovod.

Synchronous data-parallel training averages the gradient tensors of all
workers after every batch.  Horovod does this with a bandwidth-optimal ring
all-reduce: each of the ``p`` workers splits its buffer into ``p`` chunks;
during ``p - 1`` *reduce-scatter* steps every worker sends one chunk to its
right neighbour and accumulates the chunk arriving from its left neighbour,
after which each worker holds one fully reduced chunk; ``p - 1`` *all-gather*
steps then circulate the reduced chunks until every worker has the full
result.  Total traffic per worker is ``2 (p-1)/p`` of the buffer size,
independent of ``p`` — the property that makes it bandwidth optimal.

Two implementations are provided:

* :func:`ring_allreduce` — the pure in-process reference: it takes the
  per-worker buffers as a list of arrays and performs exactly the chunked
  ring schedule, additionally reporting the communication volume so the
  performance model can be fed with the real algorithmic cost;
* :class:`PipeRingAllReducer` — a real multi-process version in which worker
  processes connected by a ring of ``multiprocessing.Pipe`` s exchange raw
  NumPy buffers, demonstrating the same schedule across OS processes.
"""

from __future__ import annotations

import multiprocessing as mp
from dataclasses import dataclass

import numpy as np

from ..backend.worker import WorkerLost, WorkerProcess, serve
from ..reliability import fault_point

__all__ = [
    "AllReduceStats",
    "RingBroken",
    "ring_allreduce",
    "naive_allreduce",
    "PipeRingAllReducer",
]


class RingBroken(RuntimeError):
    """A ring neighbour died or stalled past its deadline during all-reduce.

    ``rank`` identifies the worker that stopped responding — the caller can
    evict exactly that rank and rebuild the ring with the survivors.
    """

    def __init__(self, rank: int, message: str | None = None) -> None:
        super().__init__(message or f"ring all-reduce broken at rank {rank}")
        self.rank = int(rank)


@dataclass
class AllReduceStats:
    """Accounting of one all-reduce invocation (used by the performance model)."""

    num_workers: int
    elements_per_worker: int
    communication_steps: int
    elements_sent_per_worker: int

    @property
    def traffic_fraction(self) -> float:
        """Per-worker traffic divided by buffer size (→ ``2 (p-1)/p`` for the ring)."""
        if self.elements_per_worker == 0:
            return 0.0
        return self.elements_sent_per_worker / self.elements_per_worker


def _check_buffers(buffers: list[np.ndarray]) -> list[np.ndarray]:
    if not buffers:
        raise ValueError("need at least one worker buffer")
    arrays = [np.asarray(b, dtype=np.float64) for b in buffers]
    shape = arrays[0].shape
    for a in arrays:
        if a.shape != shape:
            raise ValueError("all worker buffers must have the same shape")
    return arrays


def _chunk_slices(size: int, p: int) -> list[slice]:
    """``p`` contiguous slices covering ``range(size)`` (``np.array_split`` boundaries)."""
    slices, start = [], 0
    for chunk in np.array_split(np.arange(size), p):
        slices.append(slice(start, start + len(chunk)))
        start += len(chunk)
    return slices


def naive_allreduce(buffers: list[np.ndarray], average: bool = True) -> tuple[list[np.ndarray], AllReduceStats]:
    """Parameter-server-style all-reduce: gather everything to rank 0, then broadcast.

    Used as the correctness reference and as the baseline of the ablation
    bench (its per-worker traffic grows linearly with the worker count seen
    by the root, which is why Horovod avoids it).
    """
    arrays = _check_buffers(buffers)
    p = len(arrays)
    total = np.sum(arrays, axis=0)
    if average:
        total = total / p
    results = [total.copy() for _ in range(p)]
    stats = AllReduceStats(
        num_workers=p,
        elements_per_worker=int(arrays[0].size),
        communication_steps=2 * (p - 1),
        # Root receives (p-1) buffers and sends (p-1) buffers.
        elements_sent_per_worker=int(arrays[0].size) * (p - 1),
    )
    return results, stats


def ring_allreduce(buffers: list[np.ndarray], average: bool = True) -> tuple[list[np.ndarray], AllReduceStats]:
    """Bandwidth-optimal ring all-reduce over a list of equal-shaped arrays.

    Returns ``(reduced_buffers, stats)`` where every entry of
    ``reduced_buffers`` equals the element-wise sum (or mean) of the inputs.
    """
    arrays = _check_buffers(buffers)
    p = len(arrays)
    shape = arrays[0].shape
    size = arrays[0].size

    if p == 1:
        out = arrays[0].copy()
        return [out], AllReduceStats(1, int(size), 0, 0)

    # Work on flat copies; chunk boundaries follow np.array_split semantics.
    flats = [a.ravel().copy() for a in arrays]
    chunk_slices = _chunk_slices(size, p)

    elements_sent = 0

    # Phase 1: reduce-scatter.  At step s, worker r sends chunk (r - s) mod p
    # to worker (r + 1) mod p, which accumulates it.
    for step in range(p - 1):
        sends = []
        for rank in range(p):
            chunk_idx = (rank - step) % p
            sends.append((rank, chunk_idx, flats[rank][chunk_slices[chunk_idx]].copy()))
        for rank, chunk_idx, payload in sends:
            dest = (rank + 1) % p
            flats[dest][chunk_slices[chunk_idx]] += payload
            elements_sent += payload.size

    # Phase 2: all-gather.  Worker (r + 1) now owns the fully reduced chunk r;
    # circulate the reduced chunks around the ring.
    for step in range(p - 1):
        sends = []
        for rank in range(p):
            chunk_idx = (rank + 1 - step) % p
            sends.append((rank, chunk_idx, flats[rank][chunk_slices[chunk_idx]].copy()))
        for rank, chunk_idx, payload in sends:
            dest = (rank + 1) % p
            flats[dest][chunk_slices[chunk_idx]] = payload
            elements_sent += payload.size

    if average:
        for flat in flats:
            flat /= p

    results = [flat.reshape(shape) for flat in flats]
    stats = AllReduceStats(
        num_workers=p,
        elements_per_worker=int(size),
        communication_steps=2 * (p - 1),
        elements_sent_per_worker=int(round(elements_sent / p)),
    )
    return results, stats


# --------------------------------------------------------------------------- #
# Multi-process ring
# --------------------------------------------------------------------------- #
def _ring_member(conn, inherited, rank: int, size: int, recv_conn, send_conn,
                 data: np.ndarray, timeout_s: float) -> None:
    """One ring member: answers ``reduce`` with its reduced buffer, or with
    ``("broken", left)`` when its left neighbour stayed silent past ``timeout_s``."""
    left = (rank - 1) % size

    def recv_left():
        # A dead or hung neighbour must not park this member on a blocking
        # recv: the poll deadline (or the EOF of a closed pipe) ends the wait.
        try:
            if recv_conn.poll(timeout_s):
                return recv_conn.recv()
        except (EOFError, OSError):
            pass
        raise RingBroken(left)

    def exchange(flat, chunk):
        # Everyone sending before receiving deadlocks as soon as a chunk
        # exceeds the OS pipe capacity (~64 KB): the whole ring blocks in
        # send() with nobody draining.  Rank 0 receives first, which breaks
        # the cyclic wait — its neighbour's send completes, and the
        # unblocking propagates around the ring.  The sent and received
        # chunks of one step are never the same slice (indices differ by 1
        # mod p), so the reorder is trajectory-safe.
        if rank == 0:
            incoming = recv_left()
            send_conn.send(flat[chunk])
            return incoming
        send_conn.send(flat[chunk])
        return recv_left()

    def reduce():
        fault_point("allreduce_stall")
        flat = np.asarray(data, dtype=np.float64).ravel().copy()
        slices = _chunk_slices(flat.size, size)
        try:
            for step in range(size - 1):
                flat[slices[(rank - 1 - step) % size]] += exchange(
                    flat, slices[(rank - step) % size])
            for step in range(size - 1):
                flat[slices[(rank - step) % size]] = exchange(
                    flat, slices[(rank + 1 - step) % size])
        except RingBroken as exc:
            return ("broken", exc.rank)
        return ("ok", flat / size)

    serve(conn, inherited, {"reduce": reduce})


class PipeRingAllReducer:
    """Ring all-reduce across real OS processes connected by pipes.

    Demonstrates and tests the schedule with genuine inter-process
    communication; each call forks ``num_workers`` short-lived members on
    the shared worker runtime (:mod:`repro.backend.worker`).
    """

    def __init__(self, num_workers: int, timeout_s: float = 60.0) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers
        self.timeout_s = float(timeout_s)

    def allreduce(self, buffers: list[np.ndarray]) -> list[np.ndarray]:
        """Average the per-worker buffers; entry ``i`` is worker ``i``'s input.

        Raises :class:`RingBroken` (carrying the failing rank) instead of
        hanging when a worker dies or stalls past ``timeout_s``.
        """
        arrays = _check_buffers(buffers)
        if len(arrays) != self.num_workers:
            raise ValueError(f"expected {self.num_workers} buffers, got {len(arrays)}")
        p = self.num_workers
        if p == 1:
            return [arrays[0].copy()]

        # Pipe i connects sender i -> receiver (i+1) % p.
        pipes = [mp.Pipe(duplex=False) for _ in range(p)]
        members: list[WorkerProcess] = []
        gathered: dict[int, np.ndarray] = {}
        silent: list[int] = []  # ranks that never answered (killed by the runtime)
        blamed: list[int] = []  # left neighbours the answering ranks gave up on
        try:
            for rank in range(p):
                members.append(WorkerProcess(
                    _ring_member,
                    (rank, p, pipes[(rank - 1) % p][0], pipes[rank][1], arrays[rank],
                     self.timeout_s),
                    siblings=members,
                ))
            for member in members:
                member.send("reduce")
            # A member gives up on its neighbour after timeout_s; allow the
            # first reply twice that, and once the ring is known broken take
            # only what has already arrived.
            wait = 2 * self.timeout_s
            for rank, member in enumerate(members):
                try:
                    status, payload = member.recv(wait)
                except WorkerLost:
                    silent.append(rank)
                    wait = 0.0
                    continue
                if status == "broken":
                    blamed.append(payload)
                    wait = 0.0
                else:
                    gathered[rank] = payload
        finally:
            for member in members:
                member.stop()
            for ends in pipes:
                for end in ends:
                    end.close()
        if silent or blamed:
            # The culprit is the rank that went silent; its neighbours only
            # report the wait they gave up on.
            culprit = next((r for r in blamed if r in silent), (silent + blamed)[0])
            raise RingBroken(
                culprit, f"ring all-reduce broken at rank {culprit} "
                         f"(silent ranks: {silent}, reported: {blamed})")
        shape = arrays[0].shape
        return [gathered[rank].reshape(shape) for rank in range(p)]
