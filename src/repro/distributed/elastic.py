"""The trainer: synchronous data-parallel U-Net training on zero or more forked ranks.

:class:`ElasticTrainer` is the one training loop of the repo.  A *rank*
(:class:`_Rank`) answers two operations: ``step`` (forward / loss / backward
of its micro-shards, each flat gradient into that shard's slot) and ``fold``
(add slots, in index order, into a float64 accumulator).  With
``num_workers=0`` the trainer is its own rank — both run in-process on
:attr:`ElasticTrainer.master` over plain ndarrays.  With ``N`` workers they
run in persistent forked processes on the fork serving backend's worker
runtime (:mod:`repro.backend.worker`): weights published through one
shared-memory segment (the :mod:`repro.backend.store` idiom), slots and
accumulator in a second, every cross-process wait bounded by a deadline so a
dead or hung worker can never wedge a step.  What this module adds is policy
— which rank owns which micro-shards, what happens when one is lost.

Two properties drive the design:

**Elastic bit-identity.**  A p-dependent reduction order would make the
update depend on how many workers happen to be alive, so losing a worker
would fork the training trajectory.  Instead the global batch is split
into a *fixed* number ``M`` of micro-shards (independent of the live
worker count) and the reduction is a deterministic left-fold over slots
``0..M-1``: live workers own contiguous runs of slots, and the parent
walks them in rank order, each folding its run — in slot order — into the
float64 accumulator.  The fold therefore performs the exact same float
operations for *any* worker count, zero included, which is what lets the
ring shrink (or grow back) mid-epoch while producing bit-identical weights
— and the paper's "without affecting the accuracy" is an identity here.
Dropout masks are reseeded per ``(seed, step, micro-shard)`` so they too
are assignment-independent.

**Crash-safe exact resume.**  Periodic checkpoints are written atomically
(temp file + ``os.replace``) and capture — besides model and optimiser —
the epoch/step cursor and the :class:`~repro.data.loader.BatchLoader` RNG
state at the *start* of the current epoch.  Resume restores that state and
replays (draws and discards) the first ``step_in_epoch`` batches, which
re-consumes the shuffle permutation and every augmentation draw exactly,
so a run SIGKILLed at an arbitrary step and resumed with ``--resume``
reproduces the uninterrupted run bit-for-bit.  Corrupt archives (torn
writes, ``ckpt_corrupt_write`` injections) surface as
:class:`~repro.nn.serialization.CheckpointError` and resume falls back to
the next-newest checkpoint, mirroring the serving registry's quarantine.

Failure handling in a forked step: every reply and every fold hop has a
deadline; a worker that misses it (or EOFs) is killed by the runtime, the
ring is rebuilt with the survivors (``RingBroken`` carries the rank), the
batch is re-sharded over them and the *same* step re-runs — nothing is
lost, and determinism makes the re-computation identical.  Below-target
fleets are topped back up at step boundaries (elastic grow).
"""

from __future__ import annotations

import hashlib
import os
import re
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ..backend.store import (
    SharedArrayField,
    attach_segment,
    close_segment,
    create_segment,
    layout_fields,
    ndarray_view,
)
from ..backend.worker import WorkerLost, WorkerProcess, serve
from ..data.loader import BatchLoader
from ..metrics.classification import ClassificationReport, classification_report
from ..nn import Adam, CategoricalCrossEntropy, Optimizer, load_checkpoint, read_metadata, save_checkpoint
from ..nn.convgemm import NUMERICS
from ..nn.layers import Dropout
from ..nn.serialization import CheckpointError
from ..obs.metrics import get_registry
from ..obs.profile import LayerTimer
from ..reliability import fault_point
from ..unet.model import UNet, UNetConfig

__all__ = ["ElasticTrainer", "ElasticTrainingError", "EpochStats", "RingBroken", "TrainingHistory",
           "latest_checkpoints"]

_CKPT_RE = re.compile(r"^ckpt-(\d{8})\.npz$")

#: The phases a profiled epoch books, in step order (``optimizer`` is the gradient fold plus the update).
_PHASES = ("forward_ms", "loss_ms", "backward_ms", "optimizer_ms")


class ElasticTrainingError(RuntimeError):
    """Elastic training cannot make progress (e.g. every worker died)."""


class RingBroken(RuntimeError):
    """A worker died or missed its deadline during a step or a fold hop.

    ``rank`` identifies the worker that stopped responding — the trainer
    evicts exactly that rank and re-runs the step on the survivors.
    """

    def __init__(self, rank: int, message: str | None = None) -> None:
        super().__init__(message or f"ring all-reduce broken at rank {rank}")
        self.rank = int(rank)


def latest_checkpoints(directory: str | os.PathLike) -> list[str]:
    """``ckpt-*.npz`` paths in ``directory``, newest (highest step) first."""
    directory = str(directory)
    if not os.path.isdir(directory):
        return []
    found = []
    for name in os.listdir(directory):
        match = _CKPT_RE.match(name)
        if match:
            found.append((int(match.group(1)), os.path.join(directory, name)))
    return [path for _, path in sorted(found, reverse=True)]


@dataclass
class EpochStats:
    """Bookkeeping of one training epoch."""

    epoch: int
    loss: float
    #: Wall time and throughput; both 0.0 for an epoch restored from a checkpoint (not timed here).
    time_s: float
    images_per_s: float
    #: Per-phase / per-block timings (only while the trainer's profiling is on):
    #: ``{"phases_ms": {forward, loss, backward, optimizer}, "layers": {...}}``.  ``layers`` has one
    #: cell per top-level block (``enc{i}``, ``bottleneck``, ``dec{i}``, ``head``) summing its ops' layers,
    #: so ``calls`` counts layer calls (a ``bottleneck`` without dropout makes 4 per step).
    profile: dict | None = None


@dataclass
class TrainingHistory:
    """Loss / timing history of a full training run."""

    epochs: list[EpochStats] = field(default_factory=list)

    def append(self, stats: EpochStats) -> None:
        self.epochs.append(stats)

    @property
    def losses(self) -> list[float]:
        return [e.loss for e in self.epochs]

    @property
    def total_time(self) -> float:
        return float(sum(e.time_s for e in self.epochs))

    def _timed(self) -> list[EpochStats]:
        """Epochs this process ran; a resume restores the earlier ones as losses only."""
        return [e for e in self.epochs if e.time_s > 0]

    @property
    def mean_epoch_time(self) -> float:
        return self.total_time / max(len(self._timed()), 1)

    @property
    def mean_throughput(self) -> float:
        """Mean images/second across timed epochs (the "Data/s" column of Table III)."""
        timed = self._timed()
        return float(np.mean([e.images_per_s for e in timed])) if timed else 0.0


# ---------------------------------------------------------------------- #
# The rank: in-process on the master, or the body of a forked worker
# ---------------------------------------------------------------------- #
def _reseed_dropouts(dropouts: list[Dropout], seed: int, step: int, slot: int) -> None:
    """Make dropout a pure function of (seed, step, micro-shard).

    Reseeding per micro-shard — never per worker — keeps the masks
    identical no matter which rank a shard lands on, which is required
    for re-dispatching shards after an eviction to be bit-exact.
    """
    for index, drop in enumerate(dropouts):
        drop._rng = np.random.default_rng([seed, step, slot, index])


class _Rank:
    """The two operations of a rank over a gradient arena (float64 accumulator, float32 slots).

    ``model`` is the trainer's master and the arena plain ndarrays when the
    trainer is its own rank; a replica over shared-memory views in a worker.
    """

    def __init__(self, model: UNet, seed: int, acc: np.ndarray, slots: list[np.ndarray]) -> None:
        self.model, self.seed, self.acc, self.slots = model, seed, acc, slots
        self.loss_fn = CategoricalCrossEntropy()
        self.dropouts = [m for m in model.modules() if isinstance(m, Dropout)]
        self.params = model.parameters()
        self._hist_compute = get_registry().histogram(
            "repro_train_shard_compute_ms", "Forward+backward time per micro-shard in a rank")

    def step(self, step_idx: int, shards, phases_ms: dict[str, float] | None = None) -> dict[int, float]:
        """Gradient of every ``(slot, x, y)`` shard into its slot; ``{slot: loss}`` (timed into ``phases_ms``)."""
        clock = time.perf_counter
        self.model.train()
        losses = {}
        for slot, x, y in shards:
            t0 = clock()
            _reseed_dropouts(self.dropouts, self.seed, step_idx, slot)
            self.model.zero_grad()
            logits = self.model.forward(x)
            t1 = clock()
            losses[slot] = float(self.loss_fn.forward(logits, y))
            t2 = clock()
            self.model.backward(self.loss_fn.backward(), need_input_grad=False)
            flat = self.slots[slot]
            offset = 0
            for param in self.params:
                size = param.grad.size
                flat[offset:offset + size] = param.grad.ravel()
                offset += size
            t3 = clock()
            self._hist_compute.observe((t3 - t0) * 1e3)
            if phases_ms is not None:
                for key, seconds in zip(_PHASES, (t1 - t0, t2 - t1, t3 - t2)):
                    phases_ms[key] += seconds * 1e3
        return losses

    def fold(self, slots, init: bool) -> None:
        """Add ``slots``, in the order given, into the accumulator (zeroed first when ``init``)."""
        if init:
            self.acc[...] = 0.0
        for slot in slots:
            np.add(self.acc, self.slots[slot], out=self.acc)


def _elastic_worker_main(conn, inherited, config, seed, weight_segment, weight_fields,
                         grad_segment, num_shards, flat_size) -> None:
    """A forked rank: a replica over the shared weights, answering step/fold.

    The two process-boundary fault points live here, not in :class:`_Rank`:
    an armed crash or stall must not take an in-process run down with it.
    """
    model = UNet(config)
    params = model.named_parameters()
    weight_shm = attach_segment(weight_segment)
    grad_shm = attach_segment(grad_segment)
    weight_views = [
        (params[fld.name], ndarray_view(weight_shm, fld.shape, fld.offset, writeable=False))
        for fld in weight_fields
    ]
    rank = _Rank(model, seed, *_grad_views(grad_shm, num_shards, flat_size))

    def step(step_idx, shards):
        fault_point("trainer_worker_crash")
        for param, view in weight_views:
            param.value[...] = view
        return rank.step(step_idx, shards)

    def fold(slots, init):
        fault_point("allreduce_stall")
        rank.fold(slots, init)

    def cleanup():
        # Views first: closing a segment under a live ndarray raises BufferError.
        rank.acc = None
        rank.slots.clear()
        weight_views.clear()
        close_segment(weight_shm)
        close_segment(grad_shm)

    serve(conn, inherited, {"step": step, "fold": fold}, cleanup)


def _grad_views(grad_shm, num_shards: int, flat_size: int):
    """``(float64 accumulator, [float32 slot per micro-shard])`` over the gradient arena.

    The accumulator comes first so it is 8-byte aligned whatever ``flat_size`` is.
    """
    acc = ndarray_view(grad_shm, (flat_size,), dtype=np.float64)
    slots = [
        ndarray_view(grad_shm, (flat_size,), offset=flat_size * (8 + 4 * m))
        for m in range(num_shards)
    ]
    return acc, slots


# ---------------------------------------------------------------------- #
# Parent-side trainer
# ---------------------------------------------------------------------- #
class ElasticTrainer:
    """Trains a U-Net on (image, label) tiles: in-process, or data-parallel over forked workers.

    Parameters
    ----------
    num_workers:
        Forked ranks; ``0`` (the default) trains in-process on :attr:`master`.
        A fleet may shrink below its target when workers die mid-step and
        grows back at step boundaries (``auto_respawn``).
    micro_shards:
        Fixed micro-shard count ``M`` (defaults to ``max(num_workers, 1)``).
        The update trajectory depends on ``M`` and the data — never on the
        worker count — so runs with equal ``M`` are bit-identical for 0, 1
        or any number of workers.  Each step trains ``M`` equal shards of
        ``batch // M`` samples and drops the remainder for that step (equal
        shards are what make the fold assignment-independent); ``M = 1`` is
        plain full-batch training.
    step_timeout_s:
        Per-reply / per-fold-hop deadline; a worker silent past it is
        evicted and the step re-runs on the survivors.
    checkpoint_dir / checkpoint_every:
        When set, write an atomic ``ckpt-{step:08d}.npz`` every
        ``checkpoint_every`` global steps and at every epoch end (once, in
        the epoch-end form, when the two coincide).
    keep_checkpoints:
        Retain at most this many newest checkpoints.
    auto_respawn:
        Top the fleet back up to ``num_workers`` at step boundaries.
    """

    def __init__(
        self,
        num_workers: int = 0,
        config: UNetConfig | None = None,
        learning_rate: float = 1e-3,
        micro_shards: int | None = None,
        seed: int = 0,
        step_timeout_s: float = 60.0,
        checkpoint_dir: str | os.PathLike | None = None,
        checkpoint_every: int = 0,
        keep_checkpoints: int = 3,
        auto_respawn: bool = True,
    ) -> None:
        if num_workers < 0:
            raise ValueError("num_workers must be >= 0")
        if micro_shards is not None and micro_shards < 1:
            raise ValueError("micro_shards must be >= 1")
        self.num_workers = int(num_workers)
        self.micro_shards = int(micro_shards) if micro_shards is not None else max(self.num_workers, 1)
        self.config = config if config is not None else UNetConfig()
        self.seed = int(seed)
        self.step_timeout_s = float(step_timeout_s)
        self.checkpoint_dir = None if checkpoint_dir is None else str(checkpoint_dir)
        self.checkpoint_every = int(checkpoint_every)
        self.keep_checkpoints = int(keep_checkpoints)
        self.auto_respawn = bool(auto_respawn)

        self.master = UNet(self.config)
        self.optimizer: Optimizer = Adam(self.master.parameters(), lr=learning_rate)
        self.history = TrainingHistory()
        self.global_step = 0
        self.ring_rebuilds = 0
        self.worker_respawns = 0
        self.resumes = 0

        self._params = list(self.master.named_parameters().items())
        self._flat_size = int(sum(p.value.size for _name, p in self._params))
        self._weight_shm = None
        self._grad_shm = None
        self._weight_fields: list[SharedArrayField] = []
        self._workers: dict[int, WorkerProcess] = {}
        self._next_rank = 0
        self._local: _Rank | None = None  # the in-process rank (num_workers == 0)
        self._acc: np.ndarray | None = None  # the float64 accumulator every fold ends in
        self._profile_enabled = False
        self._phases_ms: dict[str, float] | None = None  # set for the length of a profiled epoch
        self._started = False

        registry = get_registry()
        self._m_step_ms = registry.histogram(
            "repro_train_step_ms", "Wall time of one elastic training step")
        self._m_allreduce_ms = registry.histogram(
            "repro_train_allreduce_ms", "Wall time of the gradient fold (all-reduce) per step")
        self._m_allreduce_bytes = registry.counter(
            "repro_train_allreduce_bytes_total", "Gradient bytes folded across workers")
        self._m_rebuilds = registry.counter(
            "repro_train_ring_rebuilds_total", "Ring rebuilds after worker eviction")
        self._m_respawns = registry.counter(
            "repro_train_worker_respawns_total", "Elastic workers respawned (grow)")
        self._m_resumes = registry.counter(
            "repro_train_resumes_total", "Training runs resumed from a checkpoint")
        self._m_checkpoints = registry.counter(
            "repro_train_checkpoints_total", "Checkpoints written")
        self._m_checkpoint_ms = registry.histogram(
            "repro_train_checkpoint_ms", "Wall time of one checkpoint write (archive + retention sweep)")
        self._m_workers = registry.gauge(
            "repro_train_workers", "Live elastic training workers")

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "ElasticTrainer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def start(self) -> None:
        """Allocate the gradient arena; with workers, in shared segments, and fork the fleet."""
        if self._started:
            return
        if self.num_workers == 0:
            self._acc = np.zeros(self._flat_size, dtype=np.float64)
            slots = [np.empty(self._flat_size, dtype=np.float32) for _ in range(self.micro_shards)]
            self._local = _Rank(self.master, self.seed, self._acc, slots)
        else:
            self._weight_fields, nbytes = layout_fields(
                (name, param.value.shape) for name, param in self._params)
            self._weight_shm = create_segment(nbytes)
            self._grad_shm = create_segment(self._flat_size * (8 + 4 * self.micro_shards))
            self._acc, _slots = _grad_views(self._grad_shm, 0, self._flat_size)
            self._publish_weights()
            for _ in range(self.num_workers):
                self._spawn_worker()
        self._started = True
        self._m_workers.set(float(len(self._workers)))

    def close(self) -> None:
        """Stop the fleet and unlink the shared segments."""
        for worker in self._workers.values():
            worker.stop()
        self._workers = {}
        self._local = self._acc = None  # the view goes before its segment
        if self._weight_shm is not None:
            close_segment(self._weight_shm, unlink=True)
            self._weight_shm = None
        if self._grad_shm is not None:
            close_segment(self._grad_shm, unlink=True)
            self._grad_shm = None
        self._started = False
        self._m_workers.set(0.0)

    def _spawn_worker(self) -> None:
        args = (self.config, self.seed, self._weight_shm.name, tuple(self._weight_fields),
                self._grad_shm.name, self.micro_shards, self._flat_size)
        self._workers[self._next_rank] = WorkerProcess(
            _elastic_worker_main, args, siblings=list(self._workers.values()))
        self._next_rank += 1

    @contextmanager
    def _member(self, rank: int):
        """The worker at ``rank``; losing it inside the block breaks the ring there."""
        try:
            yield self._workers[rank]
        except WorkerLost as exc:
            raise RingBroken(rank, f"worker rank {rank}: {exc}") from exc

    @property
    def live_workers(self) -> int:
        return sum(1 for w in self._workers.values() if w.alive)

    def ping(self) -> dict[int, int]:
        """Heartbeat every live worker; evict the silent (watchdog probe)."""
        pids = {}
        for rank in list(self._workers):
            try:
                with self._member(rank) as worker:
                    pids[rank] = worker.call("ping", timeout=self.step_timeout_s)
            except RingBroken:
                self._evict(rank)
        return pids

    # ------------------------------------------------------------------ #
    # Ring membership
    # ------------------------------------------------------------------ #
    def _evict(self, rank: int) -> None:
        worker = self._workers.pop(rank, None)
        if worker is not None:
            worker.kill()
        self._m_workers.set(float(len(self._workers)))

    def _ensure_fleet(self) -> None:
        """Step-boundary grow: evict the silently dead, top back up to target."""
        for rank in list(self._workers):
            if not self._workers[rank].alive:
                self._evict(rank)
        if not self.auto_respawn:
            return
        while len(self._workers) < self.num_workers:
            self._spawn_worker()
            self.worker_respawns += 1
            self._m_respawns.inc()
        self._m_workers.set(float(len(self._workers)))

    def _publish_weights(self) -> None:
        """Copy the master's weights to where forked ranks read them (nothing in-process)."""
        for fld, (_name, param) in zip(self._weight_fields, self._params):
            ndarray_view(self._weight_shm, fld.shape, fld.offset)[...] = param.value

    # ------------------------------------------------------------------ #
    # One step
    # ------------------------------------------------------------------ #
    def _shard_batch(self, x: np.ndarray, y: np.ndarray):
        per = x.shape[0] // self.micro_shards
        if per == 0:
            return None
        return [
            (m, x[m * per:(m + 1) * per], y[m * per:(m + 1) * per])
            for m in range(self.micro_shards)
        ]

    def train_step(self, x: np.ndarray, y: np.ndarray, meanwhile=None) -> float | None:
        """One synchronous step over a global batch (``None`` if too small).

        ``meanwhile`` is called exactly once, where a master with forked ranks
        is idle: after the shards are sent, before the replies are awaited
        (re-sends after an eviction do not repeat it).  It must leave the
        weights alone — they change only in the update, after the replies.
        The in-process rank calls it at the same point of the step.
        """
        if not self._started:
            self.start()
        shards = self._shard_batch(x, y)
        if meanwhile is not None and (shards is None or self._local is not None):
            meanwhile()  # nobody to wait for: first thing in the step, as on a fleet
        if shards is None:
            return None
        clock = time.perf_counter
        t_step = clock()
        if self._local is not None:
            losses = self._local.step(self.global_step, shards, self._phases_ms)
            fold_t0 = clock()
            self._local.fold(range(self.micro_shards), True)
        else:
            losses, fold_t0 = self._step_on_fleet(shards, meanwhile)
        self._m_allreduce_ms.observe((clock() - fold_t0) * 1e3)
        self._m_allreduce_bytes.inc(float(self.micro_shards * self._flat_size * 4))
        self._apply_update()
        self.global_step += 1
        self._m_step_ms.observe((clock() - t_step) * 1e3)
        if self._phases_ms is not None:
            self._phases_ms["optimizer_ms"] += (clock() - fold_t0) * 1e3
        return float(np.mean([losses[m] for m in range(self.micro_shards)]))

    def _step_on_fleet(self, shards, meanwhile) -> tuple[dict[int, float], float]:
        """Compute and fold on the forked ranks; ``(losses, when the fold began)``.

        Survives any number of mid-step worker deaths: each eviction
        rebuilds the ring, re-shards onto the survivors and re-runs the
        step — determinism makes the retry bit-identical, so no batch is
        ever lost or double-counted.
        """
        self._ensure_fleet()
        while True:
            ranks = sorted(
                rank for rank, w in self._workers.items() if not w.dead
            )
            if not ranks:
                raise ElasticTrainingError(
                    f"no live workers left at step {self.global_step}"
                )
            assignment = self._assign(ranks)
            try:
                losses = self._compute_phase(shards, assignment, meanwhile)
                fold_t0 = time.perf_counter()
                self._fold_phase(assignment)
                return losses, fold_t0
            except RingBroken as exc:
                self._evict(exc.rank)
                self.ring_rebuilds += 1
                self._m_rebuilds.inc()
                meanwhile = None  # it ran: _compute_phase calls it before the first reply can fail

    def _assign(self, ranks: list[int]) -> list[tuple[int, list[int]]]:
        """Contiguous micro-shard runs per live rank (rank order = slot order)."""
        splits = np.array_split(np.arange(self.micro_shards), len(ranks))
        return [(rank, [int(s) for s in split])
                for rank, split in zip(ranks, splits)]

    def _compute_phase(self, shards, assignment, meanwhile) -> dict[int, float]:
        # Send everything first so the shard computations overlap, do the
        # master's own work while they run, then collect with per-reply
        # deadlines.  A failure still drains every reply that was solicited
        # before raising, so a retry never reads a stale reply from the
        # previous attempt.
        sent: list[int] = []
        failure: RingBroken | None = None
        for rank, slots in assignment:
            try:
                with self._member(rank) as worker:
                    worker.send("step", self.global_step, [shards[m] for m in slots])
                sent.append(rank)
            except RingBroken as exc:
                failure = failure or exc
        if meanwhile is not None:
            meanwhile()
        losses: dict[int, float] = {}
        for rank in sent:
            if self._workers[rank].dead:
                continue
            try:
                with self._member(rank) as worker:
                    losses.update(worker.recv(self.step_timeout_s))
            except RingBroken as exc:
                failure = failure or exc
        if failure is not None:
            raise failure
        return losses

    def _fold_phase(self, assignment) -> None:
        """Chain-fold the micro-shard slots into the shared accumulator.

        The token walks the live ranks in order; each worker folds its
        contiguous slot run in index order, so the accumulation order is
        always slots ``0..M-1`` — independent of the fleet that runs it.
        """
        first = True
        for rank, slots in assignment:
            if not slots:
                continue
            with self._member(rank) as worker:
                worker.call("fold", slots, first, timeout=self.step_timeout_s)
            first = False

    def _apply_update(self) -> None:
        acc = self._acc
        offset = 0
        inv = 1.0 / self.micro_shards
        for _name, param in self._params:
            size = param.value.size
            param.grad[...] = (acc[offset:offset + size] * inv).astype(
                np.float32
            ).reshape(param.value.shape)
            offset += size
        self.optimizer.step()
        self._publish_weights()

    # ------------------------------------------------------------------ #
    # Checkpointing / resume
    # ------------------------------------------------------------------ #
    def _save_checkpoint(self, epoch: int, step_in_epoch: int,
                         epoch_rng_state: dict, epoch_losses: list[float],
                         epoch_images: int) -> str:
        start = time.perf_counter()
        extra = {
            "epoch": epoch,
            "step_in_epoch": step_in_epoch,
            "global_step": self.global_step,
            "epoch_rng_state": epoch_rng_state,
            "epoch_losses": [float(v) for v in epoch_losses],
            "epoch_images": int(epoch_images),
            "completed_losses": [float(v) for v in self.history.losses],
            "micro_shards": self.micro_shards,
            "seed": self.seed,
        }
        path = save_checkpoint(
            self.master, self.optimizer, os.path.join(self.checkpoint_dir, f"ckpt-{self.global_step:08d}.npz"),
            metadata={"kind": "elastic-trainer", "numerics": NUMERICS}, extra_state=extra,
        )
        self._m_checkpoints.inc()
        for old in latest_checkpoints(self.checkpoint_dir)[self.keep_checkpoints:]:
            try:
                os.unlink(old)
            except OSError:  # pragma: no cover - already gone
                pass
        self._m_checkpoint_ms.observe((time.perf_counter() - start) * 1e3)
        return path

    def _load_latest(self) -> dict | None:
        """Newest loadable checkpoint's extra state; skips corrupt archives.

        An archive another numerics generation wrote loads like any other, with a warning: bit-exact
        resume holds within a generation, across one the run continues from slightly different arithmetic.
        """
        for path in latest_checkpoints(self.checkpoint_dir):
            try:
                extra = load_checkpoint(self.master, self.optimizer, path)
                written_by = read_metadata(path).get("numerics", 1)
            except CheckpointError:
                continue
            if written_by != NUMERICS:
                warnings.warn(
                    f"resuming from {path!r}, written by numerics generation {written_by}, under generation "
                    f"{NUMERICS}: the weights will differ in their last bits from a run trained under either alone",
                    stacklevel=3)
            return extra
        return None

    # ------------------------------------------------------------------ #
    # Epoch / fit loops
    # ------------------------------------------------------------------ #
    def enable_profiling(self, enabled: bool = True) -> None:
        """Time the in-process rank per phase and per block: later epochs' :attr:`EpochStats.profile`."""
        if enabled and self.num_workers:
            raise ValueError("profiling times the in-process rank: it needs num_workers=0")
        self._profile_enabled = bool(enabled)

    def fit(self, loader: BatchLoader, epochs: int = 1, resume: bool = False) -> TrainingHistory:
        """Train for ``epochs`` passes; the loader's batch size is the global batch.

        With ``resume=True`` (and a ``checkpoint_dir``), pick up from the
        newest readable checkpoint: restore model/optimiser, rewind the
        loader RNG to the interrupted epoch's start and replay the already
        -trained batches so the data trajectory continues bit-exactly.  A
        checkpoint written under another ``micro_shards`` or ``seed`` raises
        :class:`ElasticTrainingError`.
        """
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not self._started:
            self.start()
        start_epoch = 0
        skip_steps = 0
        initial_losses: list[float] = []
        initial_images = 0
        if resume and self.checkpoint_dir:
            extra = self._load_latest()
            if extra:
                # The trajectory is a function of M and the seed: under others a resume would silently fork it.
                for key, ours in (("micro_shards", self.micro_shards), ("seed", self.seed)):
                    if extra[key] != ours:
                        raise ElasticTrainingError(
                            f"the checkpoint in {self.checkpoint_dir!r} was written with {key}={extra[key]}, but this "
                            f"run has {key}={ours}: resume with the layout it was written under (--micro-shards "
                            f"{extra['micro_shards']} with the same --seed), or start without --resume")
                self.global_step = int(extra["global_step"])
                start_epoch = int(extra["epoch"])
                skip_steps = int(extra["step_in_epoch"])
                initial_losses = [float(v) for v in extra["epoch_losses"]]
                initial_images = int(extra["epoch_images"])
                loader.set_rng_state(extra["epoch_rng_state"])
                self.history = TrainingHistory()
                for e, loss in enumerate(extra["completed_losses"]):
                    self.history.append(EpochStats(
                        epoch=e, loss=float(loss), time_s=0.0, images_per_s=0.0))
                self.resumes += 1
                self._m_resumes.inc()
                self._publish_weights()
        for epoch in range(start_epoch, epochs):
            replay = skip_steps if epoch == start_epoch else 0
            losses = list(initial_losses) if epoch == start_epoch else []
            images = initial_images if epoch == start_epoch else 0
            if self._profile_enabled:
                self._phases_ms = dict.fromkeys(_PHASES, 0.0)
                with LayerTimer((op.name.split(".")[0], op.layer) for op in self.master.ops) as timer:
                    stats = self._run_epoch(loader, epoch, replay, losses, images)
                stats.profile = {
                    "phases_ms": {k: round(v, 3) for k, v in self._phases_ms.items()},
                    "layers": timer.to_dict(),
                }
                self._phases_ms = None
            else:
                stats = self._run_epoch(loader, epoch, replay, losses, images)
            self.history.append(stats)
            if self.checkpoint_dir:
                # Epoch-boundary checkpoint: cursor at the *next* epoch's start.
                self._save_checkpoint(epoch + 1, 0, loader.rng_state(), [], 0)
        return self.history

    def _run_epoch(self, loader: BatchLoader, epoch: int, replay: int,
                   losses: list[float], images: int) -> EpochStats:
        # The loader RNG state *before* the permutation draw is what a
        # mid-epoch checkpoint must carry: restoring it and replaying the
        # first N batches re-consumes permutation + augmentation draws
        # exactly, which is the whole bit-exact-resume trick.
        epoch_rng_state = loader.rng_state()
        # Epoch-boundary heartbeat: busy workers are covered by per-reply
        # deadlines; this catches ones that wedged while idle.
        self.ping()
        start = time.perf_counter()
        step_in_epoch = 0
        batches = iter(loader)
        batch = next(batches, None)
        due = False

        def meanwhile():
            # What the master does while the ranks compute: the periodic checkpoint
            # that fell due with the last step (the weights move only after the
            # replies), then the loader's next batch.  A checkpoint due when the
            # epoch ends is not written here: ``fit``'s epoch-boundary write to the
            # same path is the one.
            nonlocal batch
            if due:
                self._save_checkpoint(epoch, step_in_epoch - 1, epoch_rng_state, losses, images)
            batch = next(batches, None)

        while batch is not None:
            x, y = batch
            step_in_epoch += 1
            if step_in_epoch <= replay:
                batch = next(batches, None)
                continue
            loss = self.train_step(x, y, meanwhile)
            due = False
            if loss is None:
                continue
            losses.append(loss)
            images += x.shape[0] // self.micro_shards * self.micro_shards  # what _shard_batch trained
            due = bool(self.checkpoint_dir and self.checkpoint_every > 0
                       and self.global_step % self.checkpoint_every == 0)
        elapsed = time.perf_counter() - start
        return EpochStats(
            epoch=epoch,
            loss=float(np.mean(losses)) if losses else float("nan"),
            time_s=elapsed,
            images_per_s=images / elapsed if elapsed > 0 else 0.0,
        )

    def evaluate(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        batch_size: int = 8,
        class_names: list[str] | None = None,
    ) -> ClassificationReport:
        """Evaluate the master on a validation tile set (accuracy / P / R / F1 / confusion)."""
        loader = BatchLoader(images, labels, batch_size=batch_size, shuffle=False, augment=False)
        predictions, targets = [], []
        for x, y in loader:
            predictions.append(self.master.predict(x))
            targets.append(y)
        y_pred = np.concatenate(predictions, axis=0)
        y_true = np.concatenate(targets, axis=0)
        return classification_report(y_true, y_pred, num_classes=self.config.num_classes,
                                     class_names=class_names)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def weights_digest(self) -> str:
        """SHA-256 over every parameter, in name order (bit-parity probe)."""
        digest = hashlib.sha256()
        for name, param in self._params:
            digest.update(name.encode("utf-8"))
            digest.update(np.ascontiguousarray(param.value).tobytes())
        return digest.hexdigest()

    def stats(self) -> dict:
        """Counters the CLI reports and the CI smoke asserts on."""
        return {
            "global_step": self.global_step,
            "live_workers": self.live_workers,
            "target_workers": self.num_workers,
            "micro_shards": self.micro_shards,
            "ring_rebuilds": self.ring_rebuilds,
            "worker_respawns": self.worker_respawns,
            "resumes": self.resumes,
            "weights_digest": self.weights_digest(),
        }

