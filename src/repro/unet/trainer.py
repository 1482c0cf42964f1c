"""Single-process U-Net training loop (the paper's 1-GPU baseline).

Training follows the paper's recipe: Adam optimiser, categorical
cross-entropy over the three sea-ice classes, batch size 32, dropout
regularisation, 50 epochs for the reported results.  The trainer also
records per-epoch wall time and throughput so the distributed-training
benchmarks can compare against the single-worker baseline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..data.loader import BatchLoader
from ..metrics.classification import ClassificationReport, classification_report
from ..nn import Adam, CategoricalCrossEntropy, Optimizer, load_checkpoint, save_checkpoint
from ..obs.profile import LayerTimer, _named_top_blocks
from .model import UNet, UNetConfig

__all__ = ["EpochStats", "TrainingHistory", "UNetTrainer"]


@dataclass
class EpochStats:
    """Bookkeeping of one training epoch."""

    epoch: int
    loss: float
    time_s: float
    images_per_s: float
    #: Per-phase / per-layer timings (only when the trainer's profiling is on):
    #: ``{"phases_ms": {forward, loss, backward, optimizer}, "layers": {...}}``.
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

    @property
    def mean_epoch_time(self) -> float:
        return self.total_time / max(len(self.epochs), 1)

    @property
    def mean_throughput(self) -> float:
        """Mean images/second across epochs (the "Data/s" column of Table III)."""
        if not self.epochs:
            return 0.0
        return float(np.mean([e.images_per_s for e in self.epochs]))


class UNetTrainer:
    """Trains a U-Net on (image, label) tiles.

    Parameters
    ----------
    model:
        The :class:`~repro.unet.model.UNet` to train (a fresh one is created
        from ``config`` when omitted).
    config:
        Model configuration used when ``model`` is not supplied.
    optimizer:
        Optimiser instance; defaults to Adam with the paper's settings.
    learning_rate:
        Learning rate of the default Adam optimiser.
    class_weights:
        Optional per-class loss weights (useful when open water is rare).
    """

    def __init__(
        self,
        model: UNet | None = None,
        config: UNetConfig | None = None,
        optimizer: Optimizer | None = None,
        learning_rate: float = 1e-3,
        class_weights: np.ndarray | None = None,
    ) -> None:
        self.model = model if model is not None else UNet(config)
        self.loss_fn = CategoricalCrossEntropy(class_weights=class_weights)
        self.optimizer = optimizer if optimizer is not None else Adam(self.model.parameters(), lr=learning_rate)
        self.history = TrainingHistory()
        self._profile_enabled = False
        self._phase_acc: dict[str, float] | None = None

    # ------------------------------------------------------------------ #
    def enable_profiling(self, enabled: bool = True) -> None:
        """Record per-phase and per-layer wall time for subsequent epochs.

        Each :class:`EpochStats` produced while enabled carries a ``profile`` dict.
        """
        self._profile_enabled = bool(enabled)

    def train_step(self, x: np.ndarray, y: np.ndarray) -> float:
        """One optimisation step on a single batch; returns the batch loss."""
        clock = time.perf_counter  # four reads a step, booked per phase only while profiling
        self.model.train()
        t0 = clock()
        logits = self.model.forward(x)
        t1 = clock()
        loss = self.loss_fn.forward(logits, y)
        t2 = clock()
        self.optimizer.zero_grad()
        self.model.backward(self.loss_fn.backward(), need_input_grad=False)
        t3 = clock()
        self.optimizer.step()
        if self._phase_acc is not None:
            for key, seconds in zip(self._phase_acc, (t1 - t0, t2 - t1, t3 - t2, clock() - t3)):
                self._phase_acc[key] += seconds * 1e3
        return loss

    def train_epoch(self, loader: BatchLoader, epoch: int = 0) -> EpochStats:
        """One pass over the loader."""
        profile = None
        if self._profile_enabled:
            self._phase_acc = {
                "forward_ms": 0.0, "loss_ms": 0.0, "backward_ms": 0.0, "optimizer_ms": 0.0,
            }
            with LayerTimer(_named_top_blocks(self.model)) as timer:
                stats = self._run_epoch(loader, epoch)
            profile = {
                "phases_ms": {k: round(v, 3) for k, v in self._phase_acc.items()},
                "layers": timer.to_dict(),
            }
            self._phase_acc = None
            stats.profile = profile
        else:
            stats = self._run_epoch(loader, epoch)
        self.history.append(stats)
        return stats

    def _run_epoch(self, loader: BatchLoader, epoch: int) -> EpochStats:
        start = time.perf_counter()
        losses = []
        num_images = 0
        for x, y in loader:
            losses.append(self.train_step(x, y))
            num_images += x.shape[0]
        elapsed = time.perf_counter() - start
        return EpochStats(
            epoch=epoch,
            loss=float(np.mean(losses)) if losses else float("nan"),
            time_s=elapsed,
            images_per_s=num_images / elapsed if elapsed > 0 else 0.0,
        )

    def fit(self, loader: BatchLoader, epochs: int = 10, verbose: bool = False) -> TrainingHistory:
        """Train for ``epochs`` passes over the loader (paper default: 50)."""
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        for epoch in range(epochs):
            stats = self.train_epoch(loader, epoch=epoch)
            if verbose:  # pragma: no cover - console output
                print(
                    f"epoch {epoch + 1:3d}/{epochs}  loss={stats.loss:.4f}  "
                    f"time={stats.time_s:.2f}s  throughput={stats.images_per_s:.1f} img/s"
                )
        return self.history

    # ------------------------------------------------------------------ #
    def save_checkpoint(self, path, metadata: dict | None = None,
                        extra_state: dict | None = None) -> str:
        """Persist model weights plus the full optimiser state for exact resume.

        ``extra_state`` (JSON-serialisable) rides along in the archive — the
        elastic trainer uses it for the epoch/step cursor and loader RNG
        state — and comes back from :meth:`load_checkpoint`.
        """
        return save_checkpoint(self.model, self.optimizer, path,
                               metadata=metadata, extra_state=extra_state)

    def load_checkpoint(self, path) -> dict:
        """Restore a checkpoint saved by :meth:`save_checkpoint`.

        Both the model parameters and the optimiser's adaptive state (Adam
        moments / step count, SGD velocity) come back, so training continues
        exactly where the saved run stopped.  Returns the ``extra_state``
        the checkpoint carries (``{}`` when absent).
        """
        return load_checkpoint(self.model, self.optimizer, path)

    # ------------------------------------------------------------------ #
    def evaluate(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        batch_size: int = 8,
        class_names: list[str] | None = None,
    ) -> ClassificationReport:
        """Evaluate the model on a validation tile set (accuracy / P / R / F1 / confusion)."""
        loader = BatchLoader(images, labels, batch_size=batch_size, shuffle=False, augment=False)
        predictions, targets = [], []
        for x, y in loader:
            predictions.append(self.model.predict(x))
            targets.append(y)
        y_pred = np.concatenate(predictions, axis=0)
        y_true = np.concatenate(targets, axis=0)
        return classification_report(y_true, y_pred, num_classes=self.model.config.num_classes,
                                     class_names=class_names)
