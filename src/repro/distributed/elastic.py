"""The trainer: synchronous data-parallel U-Net training, in-process or on the fork backend's workers.

:class:`ElasticTrainer` is the one training loop of the repo.  A step trains
``M`` micro-shards — forward / loss / backward of each, its flat gradient
into that shard's float32 slot (:class:`_Rank`) — then the master folds the
slots and applies the update.  With ``num_workers=0`` the trainer is its own
rank on :attr:`ElasticTrainer.master` over plain ndarrays.  With ``N``
workers every micro-shard is one call to a *resident* of a
:class:`~repro.backend.process.ProcessBackend`: a trainer replica published
to its persistent workers the way a model is (:class:`_ReplicaSpec`), whose
weights and slots live in one shared-memory segment the backend's store
owns.  Checkout, the dispatch deadline, kill, respawn with republish and
retry are the backend's; this module adds the step, the fold and the
checkpoints.

Three properties drive the design:

**Elastic bit-identity.**  The global batch is split into a *fixed* number
``M`` of micro-shards, independent of the worker count, and dropout masks
are reseeded per ``(seed, step, micro-shard)``, so a slot's gradient does
not depend on which worker — or whether any — computed it.  The reduction
is one deterministic left-fold, ``np.add`` over slots ``0..M-1`` in slot
order into a float64 accumulator, so the update performs the exact same
float operations for any worker count, zero included, and a run that loses
a worker mid-epoch reaches the weights of one that did not — the paper's
"without affecting the accuracy" is an identity here.

**Steps move, the fold does not.**  A shard's step writes only its own slot,
so, like a prediction span, it is idempotent and the backend may re-run it
on another worker when one is lost.  A fold does ``acc += slot`` in place,
which a half-done retry would double-add, so it runs on the master over the
shared slots once every shard has returned: one fold path for 0 and N
workers, and no pipe round trip for it.

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

A worker that dies or misses the dispatch deadline (``step_timeout_s``) on
a shard is killed and respawned with its residents republished before the
step that lost it returns, and the shard re-runs; determinism makes the
re-run identical.  A shard lost more often than the backend's
:class:`~repro.reliability.RetryPolicy` allows raises
:class:`ElasticTrainingError` naming the step and the slot.
"""

from __future__ import annotations

import hashlib
import os
import re
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from ..backend.base import BackendError
from ..backend.process import ProcessBackend
from ..backend.store import SharedArrayField, attach_segment, close_segment, create_segment, layout_fields, ndarray_view
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

__all__ = ["ElasticTrainer", "ElasticTrainingError", "EpochStats", "TrainingHistory", "latest_checkpoints"]

_CKPT_RE = re.compile(r"^ckpt-(\d{8})\.npz$")

#: The phases a profiled epoch books, in step order (``optimizer`` is the gradient fold plus the update).
_PHASES = ("forward_ms", "loss_ms", "backward_ms", "optimizer_ms")


class ElasticTrainingError(RuntimeError):
    """Elastic training cannot make progress (e.g. a micro-shard's worker keeps dying)."""


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
    def mean_throughput(self) -> float:
        """Mean images/second across timed epochs (the "Data/s" column of Table III)."""
        timed = self._timed()
        return float(np.mean([e.images_per_s for e in timed])) if timed else 0.0


# ---------------------------------------------------------------------- #
# The rank: in-process on the master, or a replica resident in a worker
# ---------------------------------------------------------------------- #
def _reseed_dropouts(dropouts: list[Dropout], seed: int, step: int, slot: int) -> None:
    """Make dropout a pure function of (seed, step, micro-shard).

    Reseeding per micro-shard — never per worker — keeps the masks
    identical no matter which worker a shard lands on, which is required
    for re-running a shard on another worker to be bit-exact.
    """
    for index, drop in enumerate(dropouts):
        drop._rng = np.random.default_rng([seed, step, slot, index])


class _Rank:
    """Micro-shard gradients into their float32 slots.

    ``model`` is the trainer's master and the slots plain ndarrays when the
    trainer is its own rank; a replica over shared-memory views in a worker.
    """

    def __init__(self, model: UNet, seed: int, slots: list[np.ndarray]) -> None:
        self.model, self.seed, self.slots = model, seed, slots
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


#: The trainer replica's key in its backend's store (one trainer per backend).
_REPLICA = "elastic-trainer"


@dataclass(frozen=True)
class _ReplicaSpec:
    """What a worker needs to hold a trainer replica (picklable, tiny); :meth:`attach` builds it there."""

    config: UNetConfig
    seed: int
    segment_name: str
    weights: tuple[SharedArrayField, ...]  # the master's parameters, in name order
    slots: tuple[SharedArrayField, ...]  # one flat float32 gradient per micro-shard
    key: str = _REPLICA

    def attach(self) -> "_Replica":
        return _Replica(self)


class _Replica:
    """Worker side: a :class:`_Rank` over a model whose weights alias the shared segment read-only.

    The master writes the weights only in the update, after every shard of the
    step has returned, so a replica reads the current ones without copying them.
    The two process-boundary fault points live here, not in :class:`_Rank`: an
    armed crash or hang must not take an in-process run down with it.
    """

    def __init__(self, spec: _ReplicaSpec) -> None:
        self.shm = attach_segment(spec.segment_name)
        model = UNet(spec.config)
        params = model.named_parameters()
        for fld in spec.weights:
            params[fld.name].value = ndarray_view(self.shm, fld.shape, fld.offset, writeable=False)
        self.rank = _Rank(model, spec.seed, [ndarray_view(self.shm, fld.shape, fld.offset) for fld in spec.slots])

    def step(self, step_idx: int, slot: int, x: np.ndarray, y: np.ndarray) -> float:
        fault_point("trainer_worker_crash")
        fault_point("trainer_worker_hang")
        return self.rank.step(step_idx, [(slot, x, y)])[slot]

    def close(self) -> None:
        self.rank = None  # the views go before their segment
        close_segment(self.shm)


# ---------------------------------------------------------------------- #
# Parent-side trainer
# ---------------------------------------------------------------------- #
class ElasticTrainer:
    """Trains a U-Net on (image, label) tiles: in-process, or data-parallel over forked workers.

    Parameters
    ----------
    num_workers:
        Worker processes of the trainer's fork backend; ``0`` (the default)
        trains in-process on :attr:`master`.  A lost worker is respawned
        before the step that lost it returns, so the fleet stays at target.
    micro_shards:
        Fixed micro-shard count ``M`` (defaults to ``max(num_workers, 1)``).
        The update trajectory depends on ``M`` and the data — never on the
        worker count — so runs with equal ``M`` are bit-identical for 0, 1
        or any number of workers.  Each step trains ``M`` equal shards of
        ``batch // M`` samples and drops the remainder for that step (equal
        shards are what make the fold assignment-independent); ``M = 1`` is
        plain full-batch training.
    step_timeout_s:
        The backend's dispatch deadline: a worker silent past it on a shard
        is killed and respawned, and the shard re-runs.
    checkpoint_dir / checkpoint_every:
        When set, write an atomic ``ckpt-{step:08d}.npz`` every
        ``checkpoint_every`` global steps (``0``: none mid-epoch) and at every
        epoch end (once, in the epoch-end form, when the two coincide).
    keep_checkpoints:
        Retain at most this many newest checkpoints (at least 1: the newest is what a resume reads).
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
    ) -> None:
        if num_workers < 0:
            raise ValueError("num_workers must be >= 0")
        if micro_shards is not None and micro_shards < 1:
            raise ValueError("micro_shards must be >= 1")
        if checkpoint_every < 0:
            raise ValueError(f"checkpoint_every must be >= 0 (0 checkpoints at epoch ends only), got {checkpoint_every}")
        if keep_checkpoints < 1:
            raise ValueError(f"keep_checkpoints must be >= 1, got {keep_checkpoints}: "
                             "fewer would delete every checkpoint as it is written")
        self.num_workers = int(num_workers)
        self.micro_shards = int(micro_shards) if micro_shards is not None else max(self.num_workers, 1)
        self.config = config if config is not None else UNetConfig()
        self.seed = int(seed)
        self.step_timeout_s = float(step_timeout_s)
        self.checkpoint_dir = None if checkpoint_dir is None else str(checkpoint_dir)
        self.checkpoint_every = int(checkpoint_every)
        self.keep_checkpoints = int(keep_checkpoints)

        self.master = UNet(self.config)
        self.optimizer: Optimizer = Adam(self.master.parameters(), lr=learning_rate)
        self.history = TrainingHistory()
        self.global_step = 0
        #: the backend's shard retries and worker respawns (0 in-process)
        self.ring_rebuilds = 0
        self.worker_respawns = 0
        self.resumes = 0

        self._params = list(self.master.named_parameters().items())
        self._flat_size = int(sum(p.value.size for _name, p in self._params))
        self._backend: ProcessBackend | None = None
        self._local: _Rank | None = None  # the in-process rank (num_workers == 0)
        self._slots: list[np.ndarray] = []  # one float32 gradient per micro-shard
        self._weights: list[np.ndarray] = []  # shared views the replicas read the weights from
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
            "repro_train_ring_rebuilds_total", "Micro-shard steps retried after losing their worker")
        self._m_respawns = registry.counter(
            "repro_train_worker_respawns_total", "Training workers respawned")
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
        """Allocate the slots; with workers, in a segment published to a started fork backend."""
        if self._started:
            return
        self._acc = np.zeros(self._flat_size, dtype=np.float64)
        if self.num_workers == 0:
            self._slots = [np.empty(self._flat_size, dtype=np.float32) for _ in range(self.micro_shards)]
            self._local = _Rank(self.master, self.seed, self._slots)
        else:
            self._backend = ProcessBackend(self.num_workers, dispatch_timeout_s=self.step_timeout_s).start()
            weights, end = layout_fields((name, param.value.shape) for name, param in self._params)
            slots, nbytes = layout_fields(((f"slot{m}", (self._flat_size,)) for m in range(self.micro_shards)), end)
            shm = create_segment(nbytes)
            spec = _ReplicaSpec(self.config, self.seed, shm.name, tuple(weights), tuple(slots))
            self._backend.publish_resident(spec, shm)  # the store owns and unlinks the segment
            self._weights = [ndarray_view(shm, fld.shape, fld.offset) for fld in weights]
            self._slots = [ndarray_view(shm, fld.shape, fld.offset) for fld in slots]
            self._publish_weights()
        self._started = True
        self._m_workers.set(float(self.live_workers))

    def close(self) -> None:
        """Stop the workers and unlink the shared segment."""
        self._local = self._acc = None
        self._slots, self._weights = [], []  # the views go before their segment
        if self._backend is not None:
            self._backend.close()
            self._backend = None
        self._started = False
        self._m_workers.set(0.0)

    @property
    def live_workers(self) -> int:
        return 0 if self._backend is None else self._backend.occupancy()["alive_workers"]

    def _publish_weights(self) -> None:
        """Copy the master's weights to where the replicas read them (nothing in-process)."""
        for view, (_name, param) in zip(self._weights, self._params):
            view[...] = param.value

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

        ``meanwhile`` is called exactly once, where a master with workers is
        idle: after the shards are submitted, before their results are
        awaited (a shard the backend retries does not repeat it).  It must
        leave the weights alone — they change only in the update, after the
        results.  The in-process rank calls it first thing in the step.
        """
        if not self._started:
            self.start()
        shards = self._shard_batch(x, y)
        if meanwhile is not None and (shards is None or self._backend is None):
            meanwhile()  # nobody to wait for: first thing in the step, as on a fleet
        if shards is None:
            return None
        clock = time.perf_counter
        t_step = clock()
        if self._backend is None:
            losses = self._local.step(self.global_step, shards, self._phases_ms)
        else:
            losses = self._step_on_fleet(shards, meanwhile)
        fold_t0 = clock()
        self._fold()
        self._m_allreduce_ms.observe((clock() - fold_t0) * 1e3)
        self._m_allreduce_bytes.inc(float(self.micro_shards * self._flat_size * 4))
        self._apply_update()
        self.global_step += 1
        self._m_step_ms.observe((clock() - t_step) * 1e3)
        if self._phases_ms is not None:
            self._phases_ms["optimizer_ms"] += (clock() - fold_t0) * 1e3
        return float(np.mean([losses[m] for m in range(self.micro_shards)]))

    def _step_on_fleet(self, shards, meanwhile) -> dict[int, float]:
        """One backend call per micro-shard, ``meanwhile`` on the master while they run; ``{slot: loss}``.

        Every call is awaited before a failure is raised, so no worker is
        still writing a slot when the caller sees it.
        """
        futures = [self._backend.submit("train_step", _REPLICA, self.global_step, slot, x, y)
                   for slot, x, y in shards]
        if meanwhile is not None:
            meanwhile()
        losses, failed = {}, None
        for (slot, _x, _y), future in zip(shards, futures):
            try:
                losses[slot] = future.result()
            except BackendError as exc:
                failed = failed or (slot, exc)
        info = self._backend.occupancy()
        self._m_rebuilds.inc(info["dispatch_retries"] - self.ring_rebuilds)
        self._m_respawns.inc(info["respawns"] - self.worker_respawns)
        self.ring_rebuilds, self.worker_respawns = info["dispatch_retries"], info["respawns"]
        self._m_workers.set(float(info["alive_workers"]))
        if failed is not None:
            slot, exc = failed
            raise ElasticTrainingError(
                f"step {self.global_step}, micro-shard slot {slot}: {exc} (a lost worker is retried "
                f"{self._backend.retry.max_retries} times)") from exc
        return losses

    def _fold(self) -> None:
        """The gradient all-reduce: ``np.add`` over the slots in slot order, whoever computed them, into the accumulator."""
        self._acc[...] = 0.0
        for slot in self._slots:
            np.add(self._acc, slot, out=self._acc)

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
        start = time.perf_counter()
        step_in_epoch = largest = 0
        batches = iter(loader)
        batch = next(batches, None)
        due = False

        def meanwhile():
            # What the master does while the workers compute: the periodic checkpoint
            # that fell due with the last step (the weights move only after the
            # results), then the loader's next batch.  A checkpoint due when the
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
            largest = max(largest, x.shape[0])
            loss = self.train_step(x, y, meanwhile)
            due = False
            if loss is None:
                continue
            losses.append(loss)
            images += x.shape[0] // self.micro_shards * self.micro_shards  # what _shard_batch trained
            due = bool(self.checkpoint_dir and self.checkpoint_every > 0
                       and self.global_step % self.checkpoint_every == 0)
        if largest and not losses:
            raise ValueError(
                f"epoch {epoch} trained nothing: its batches hold at most {largest} samples, fewer than "
                f"micro_shards={self.micro_shards} (a step trains {self.micro_shards} equal shards); "
                "raise the batch size or lower micro_shards")
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

