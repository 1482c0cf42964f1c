"""Profiling hooks: per-layer timers, latency percentiles, profile runners.

Two opt-in instrumentation seams live elsewhere and report here:

* :class:`~repro.nn.plan.CompiledPlan` records per-step wall time when
  ``enable_profiling()`` is on (one branch on the hot path when off);
* :class:`~repro.distributed.elastic.ElasticTrainer` records its in-process
  rank's per-phase (forward/loss/backward/optimizer) and per-block timings per epoch.

:class:`LayerTimer` is the shared per-layer mechanism: it patches the
``forward``/``backward`` of named modules with accumulating wrappers and
restores the originals on removal — no permanent cost in the layer code.

:func:`profile_inference` and :func:`profile_training` are the runners the
``repro-seaice profile`` CLI command drives; their payloads are JSON-safe so
they drop straight into ``BENCH_*.json`` files.
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "LayerTimer",
    "latency_percentiles",
    "profile_inference",
    "profile_training",
]


class LayerTimer:
    """Accumulate per-layer forward/backward wall time by patching modules.

    ``install()`` replaces each named module's ``forward`` (and ``backward``
    when present) with a timing wrapper writing into this timer;
    ``remove()`` restores the original bound methods.  Use as a context
    manager for exception safety.  Times are *self* times — a call's wall
    time minus the timed calls nested inside it — so timing a block and its
    children books every millisecond once; modules sharing a name share a cell.
    """

    def __init__(self, named_modules: Iterable[tuple[str, object]]) -> None:
        self._modules = list(named_modules)
        self._originals: list[tuple[object, str, object]] = []
        self._nested: list[float] = []  # per open timed call: ms spent in timed calls below it
        self.stats: dict[str, dict[str, float]] = {}

    def _cell(self, name: str) -> dict[str, float]:
        cell = self.stats.get(name)
        if cell is None:
            cell = self.stats[name] = {"forward_ms": 0.0, "backward_ms": 0.0, "calls": 0}
        return cell

    def _wrap(self, module: object, attr: str, name: str, key: str):
        original = getattr(module, attr)
        # Was the attribute instance-level before us?  Usually not (methods
        # live on the class), in which case removal must *delete* our shadow
        # rather than pin a bound method onto the instance.
        had_instance_attr = attr in vars(module)

        def timed(*args, **kwargs):
            start = time.perf_counter()
            self._nested.append(0.0)
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = (time.perf_counter() - start) * 1e3
                cell = self._cell(name)
                cell[key] += elapsed - self._nested.pop()
                if self._nested:
                    self._nested[-1] += elapsed
                if key == "forward_ms":
                    cell["calls"] += 1

        self._originals.append((module, attr, original if had_instance_attr else None))
        setattr(module, attr, timed)

    def install(self) -> "LayerTimer":
        if self._originals:
            raise RuntimeError("LayerTimer is already installed")
        for name, module in self._modules:
            self._wrap(module, "forward", name, "forward_ms")
            if hasattr(module, "backward"):
                self._wrap(module, "backward", name, "backward_ms")
        return self

    def remove(self) -> None:
        for module, attr, original in reversed(self._originals):
            if original is None:
                delattr(module, attr)
            else:
                setattr(module, attr, original)
        self._originals = []

    def __enter__(self) -> "LayerTimer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.remove()

    def to_dict(self) -> dict:
        return {
            name: {key: (round(value, 3) if isinstance(value, float) else value)
                   for key, value in cell.items()}
            for name, cell in self.stats.items()
        }


#: The quantiles :func:`latency_percentiles` reports.
PERCENTILES = (0.5, 0.95, 0.99)


def latency_percentiles(samples_ms: Sequence[float]) -> dict:
    """Exact percentiles of a latency sample list: ``{"p50_ms": ..., "p95_ms": ..., "p99_ms": ...}``."""
    if not len(samples_ms):
        return {f"p{int(q * 100)}_ms": None for q in PERCENTILES}
    arr = np.asarray(samples_ms, dtype=np.float64)
    return {f"p{int(q * 100)}_ms": round(float(np.quantile(arr, q)), 3) for q in PERCENTILES}


#: plan step class -> the budget line it belongs to; ``pad`` is the copy of the
#: external input, ``border`` the re-zeroing of border rings that share bytes,
#: ``upconv`` the up-convolutions (gather + phase GEMMs), kept apart from ``conv``
_STEP_KINDS = {"PadCopyStep": "pad", "BorderStep": "border", "ConvStep": "conv", "MaxPoolStep": "pool",
               "UpConvStep": "upconv", "SoftmaxStep": "softmax"}


def _by_kind(steps: list[dict]) -> dict:
    """Fold per-step timings into ``{kind: {"calls", "total_ms", "share"}}`` budget lines."""
    kinds: dict[str, dict] = {}
    for step in steps:
        cell = kinds.setdefault(_STEP_KINDS[step["step"]], {"calls": 0, "total_ms": 0.0})
        cell["calls"] += step["calls"]
        cell["total_ms"] += step["total_ms"]
    total = sum(cell["total_ms"] for cell in kinds.values())
    for cell in kinds.values():
        cell["share"] = round(cell["total_ms"] / total, 4) if total else 0.0
        cell["total_ms"] = round(cell["total_ms"], 3)
    return kinds


def profile_inference(model, batch_shape: tuple[int, int, int] = (1, 32, 32),
                      iterations: int = 50, warmup: int = 5, seed: int = 0) -> dict:
    """Per-step compiled-plan timings, their per-kind budget + end-to-end latency percentiles.

    ``batch_shape`` is ``(N, H, W)``; the input channel count comes from the
    model.  The plan is compiled and first-touched during warmup, so the
    measured iterations are the serving steady state.
    """
    from ..unet.compiled import CompiledUNet

    n, h, w = (int(d) for d in batch_shape)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, model.config.in_channels, h, w)).astype(np.float32)

    engine = CompiledUNet(model)
    plan = engine.warm(x.shape)
    for _ in range(max(1, warmup)):
        plan.run(x)
    plan.enable_profiling()
    samples = []
    for _ in range(iterations):
        start = time.perf_counter()
        plan.run(x)
        samples.append((time.perf_counter() - start) * 1e3)
    steps = plan.profile_info()
    plan.enable_profiling(False)
    return {
        "input_shape": list(x.shape),
        "iterations": iterations,
        "latency": latency_percentiles(samples),
        "mean_ms": round(float(np.mean(samples)), 3),
        "steps": steps,
        "by_kind": _by_kind(steps),
        "plan_arena_bytes": plan.arena_nbytes,
    }


def profile_training(config=None, epochs: int = 2, batches: int = 4, batch_size: int = 4,
                     tile: int = 16, seed: int = 0) -> dict:
    """Per-epoch per-phase / per-block timings, a per-layer-class ``by_kind`` budget, ``checkpoint_ms``, ``scratch_bytes``.

    The step profiled is the trainer's in-process rank on one micro-shard — what
    a forked rank runs per shard — for a model built from ``config`` (a ``UNetConfig``).
    ``by_kind`` times the layers of the model's op list by class.  ``scratch_bytes`` is the
    conv kernels' shared workspace as the profiled epochs left it: one forward band or one
    pitched output gradient, whichever is larger.
    """
    from ..data.loader import BatchLoader
    from ..distributed.elastic import ElasticTrainer
    from ..nn import release_workspace, save_checkpoint, workspace_nbytes
    from ..unet.model import UNetConfig

    if config is None:
        config = UNetConfig(depth=2, base_channels=8, dropout=0.0, seed=seed)
    trainer = ElasticTrainer(num_workers=0, micro_shards=1, config=config, seed=seed)
    model = trainer.master
    rng = np.random.default_rng(seed)
    count = batches * batch_size
    images = rng.integers(0, 255, size=(count, tile, tile, 3), dtype=np.uint8)
    labels = rng.integers(0, model.config.num_classes, size=(count, tile, tile), dtype=np.uint8)
    loader = BatchLoader(images, labels, batch_size=batch_size, shuffle=False, augment=False)

    trainer.enable_profiling()
    release_workspace()
    with LayerTimer((type(op.layer).__name__, op.layer) for op in model.ops) as timer:
        trainer.fit(loader, epochs=epochs)
    scratch_bytes = workspace_nbytes()
    kinds = timer.to_dict()
    total = sum(cell["forward_ms"] + cell["backward_ms"] for cell in kinds.values())
    for cell in kinds.values():
        cell["share"] = round((cell["forward_ms"] + cell["backward_ms"]) / total, 4) if total else 0.0
    checkpoints = []
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(5):
            start = time.perf_counter()
            save_checkpoint(model, trainer.optimizer, os.path.join(tmp, "probe.npz"))
            checkpoints.append((time.perf_counter() - start) * 1e3)
    return {
        "epochs": epochs,
        "batches_per_epoch": batches,
        "batch_size": batch_size,
        "tile": tile,
        "per_epoch": [
            {
                "epoch": stats.epoch,
                "time_s": round(stats.time_s, 4),
                "images_per_s": round(stats.images_per_s, 2),
                "phases_ms": stats.profile.get("phases_ms") if stats.profile else None,
                "layers": stats.profile.get("layers") if stats.profile else None,
            }
            for stats in trainer.history.epochs
        ],
        "by_kind": kinds,
        "checkpoint_ms": round(float(np.median(checkpoints)), 3),
        "scratch_bytes": scratch_bytes,
    }
