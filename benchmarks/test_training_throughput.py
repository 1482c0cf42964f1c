"""Training-step throughput — cache-lean offset-GEMM engine vs the seed path.

The seed repo trained through an im2col convolution that pinned the full
``(N*out_h*out_w, C*k*k)`` unrolled matrix per layer, a max-pool that cached
a full-resolution boolean mask plus a tie-count tensor, a loss that upcast
every logit batch to float64, float64 dropout draws, and an Adam step that
allocated fresh temporaries per parameter.  This benchmark reconstructs that
exact path (the im2col/mask reference layers plus faithful replicas of the seed loss,
dropout, ReLU and Adam below, stepped by ``reference_train_step``) and races it
against the trainer's in-process step on a depth-3 U-Net, reporting img/s and
the bytes each layer type pins between forward and backward.  Results land in
``BENCH_training_throughput.json``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from helpers import cache_nbytes
from repro.distributed import ElasticTrainer
from repro.metrics.scaling import ScalingModel
from repro.nn import Adam, CategoricalCrossEntropy, Conv2D, MaxPool2D, workspace_nbytes
from repro.nn.layers import Dropout, ReLU, UpConv2D
from repro.nn.optimizers import BETA1, BETA2, EPS
from repro.unet import UNet, UNetConfig

from conftest import BENCH_SMOKE, fold_per_step, print_rows, update_bench_json, write_bench_json
from reference_kernels import ReferenceConv2D, ReferenceMaxPool2D, ReferenceUpConv2D, reference_train_step

DEPTH = 3
BASE_CHANNELS = 16
TILE = 32 if BENCH_SMOKE else 64
BATCH = 4 if BENCH_SMOKE else 8
ROUNDS = 2 if BENCH_SMOKE else 8
MIN_CACHE_RATIO = 4.0


# --------------------------------------------------------------------------- #
# Faithful replicas of the seed training path (v0 git tree), swapped into the
# reference model so the race measures the seed step, not a hybrid.
# --------------------------------------------------------------------------- #
def seed_softmax(logits: np.ndarray, axis: int = 1) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=axis, keepdims=True)
    exp = np.exp(z)
    return (exp / exp.sum(axis=axis, keepdims=True)).astype(np.float32)


class SeedCategoricalCrossEntropy(CategoricalCrossEntropy):
    """Seed loss: float64 softmax, open-mesh fancy indexing, dense onehot."""

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> float:
        logits = np.asarray(logits, dtype=np.float32)
        n, _, h, w = logits.shape
        target_idx = np.asarray(targets).astype(np.intp)
        probs = seed_softmax(logits, axis=1)
        n_idx = np.arange(n)[:, None, None]
        h_idx = np.arange(h)[None, :, None]
        w_idx = np.arange(w)[None, None, :]
        picked = np.clip(probs[n_idx, target_idx, h_idx, w_idx], 1e-12, 1.0)
        weights = np.ones_like(picked, dtype=np.float32)
        self._cache = (probs, target_idx, weights)
        return float(-(weights * np.log(picked)).sum() / weights.sum())

    def backward(self) -> np.ndarray:
        probs, target_idx, weights = self._cache
        n, _, h, w = probs.shape
        onehot = np.zeros_like(probs)
        n_idx = np.arange(n)[:, None, None]
        h_idx = np.arange(h)[None, :, None]
        w_idx = np.arange(w)[None, None, :]
        onehot[n_idx, target_idx, h_idx, w_idx] = 1.0
        grad = (probs - onehot) * weights[:, None, :, :]
        return (grad / weights.sum()).astype(np.float32)


class SeedReLU(ReLU):
    """Seed ReLU: extra float32 cast copy on the backward pass."""

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return np.where(self._mask, grad_output, 0.0).astype(np.float32)


class SeedDropout(Dropout):
    """Seed dropout: float64 uniforms, bool compare, cast, divide."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        if not self.training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.uniform(size=x.shape) < keep).astype(np.float32) / keep
        return x * self._mask


class SeedUpConv2D(ReferenceUpConv2D):
    """Seed up-convolution: two chained ``repeat`` materialisations, the edge pad, the 2×2 conv over the 4× map."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        up = np.asarray(x, dtype=np.float32).repeat(2, axis=2).repeat(2, axis=3)
        return self.conv(np.pad(up, ((0, 0), (0, 0), (0, 1), (0, 1)), mode="edge"))


class SeedAdam(Adam):
    """Seed Adam: fresh temporaries for every moment update and step."""

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - BETA1**self._t
        bias2 = 1.0 - BETA2**self._t
        for param, m, v in zip(self.parameters, self._m, self._v):
            grad = param.grad
            m *= BETA1
            m += (1.0 - BETA1) * grad
            v *= BETA2
            v += (1.0 - BETA2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            param.value -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)


class SeedTrainer:
    """The seed model, loss and Adam behind ``reference_train_step``; it always back-propagates
    all the way to the input tensor (the seed had no way to skip the unused first-layer input gradient)."""

    def __init__(self, config: UNetConfig) -> None:
        self.master = UNet(config)
        seed_classes = {Conv2D: ReferenceConv2D, MaxPool2D: ReferenceMaxPool2D, ReLU: SeedReLU,
                        Dropout: SeedDropout, UpConv2D: SeedUpConv2D}
        for module in self.master.modules():
            module.__class__ = seed_classes.get(type(module), type(module))
        self.loss_fn = SeedCategoricalCrossEntropy()
        self.optimizer = SeedAdam(self.master.parameters(), lr=1e-3)

    def train_step(self, x: np.ndarray, y: np.ndarray) -> float:
        return reference_train_step(self.master, self.loss_fn, self.optimizer, x, y, need_input_grad=True)


def build_trainer(seed_path: bool, dropout: float = 0.1) -> SeedTrainer | ElasticTrainer:
    """The seed step, or the trainer's own: its in-process rank on the whole batch as one micro-shard."""
    config = UNetConfig(depth=DEPTH, base_channels=BASE_CHANNELS, dropout=dropout, seed=3)
    return SeedTrainer(config) if seed_path else ElasticTrainer(num_workers=0, micro_shards=1, config=config)


def layer_cache_bytes(model: UNet) -> dict[str, int]:
    """Bytes pinned per layer type after a forward/backward pair."""
    totals: dict[str, int] = {}
    for module in model.modules():
        name = type(module).__name__.removeprefix("Seed").removeprefix("Reference")
        totals[name] = totals.get(name, 0) + cache_nbytes(module, recurse=False)
    return {name: size for name, size in totals.items() if size}


@pytest.mark.benchmark(group="training")
def test_training_throughput_fast_vs_seed_path():
    """The offset-GEMM training step must beat the seed im2col step >= 2x in
    img/s while pinning >= 4x fewer bytes in Conv2D and MaxPool2D caches."""
    rng = np.random.default_rng(42)
    x = rng.random((BATCH, 3, TILE, TILE), dtype=np.float32)
    y = rng.integers(0, 3, size=(BATCH, TILE, TILE))

    trainers = {"seed": build_trainer(seed_path=True), "fast": build_trainer(seed_path=False)}
    losses = {name: trainer.train_step(x, y) for name, trainer in trainers.items()}  # warmup
    caches = {name: layer_cache_bytes(trainer.master) for name, trainer in trainers.items()}

    # Interleave the timed rounds so machine noise hits both paths equally,
    # and score each path by its best round.
    best = {name: float("inf") for name in trainers}
    for _ in range(ROUNDS):
        for name, trainer in trainers.items():
            start = time.perf_counter()
            losses[name] = trainer.train_step(x, y)
            best[name] = min(best[name], time.perf_counter() - start)

    img_s = {name: BATCH / elapsed for name, elapsed in best.items()}
    speedup = img_s["fast"] / img_s["seed"]
    conv_ratio = caches["seed"]["Conv2D"] / caches["fast"]["Conv2D"]
    pool_ratio = caches["seed"]["MaxPool2D"] / caches["fast"]["MaxPool2D"]

    rows = [
        {"path": name, "step_ms": round(best[name] * 1000, 1), "img_per_s": round(img_s[name], 2),
         "conv_cache_mb": round(caches[name]["Conv2D"] / 1e6, 2),
         "pool_cache_mb": round(caches[name]["MaxPool2D"] / 1e6, 3),
         "total_cache_mb": round(sum(caches[name].values()) / 1e6, 2)}
        for name in ("seed", "fast")
    ]
    print_rows(
        f"U-Net train step (depth {DEPTH}, {BASE_CHANNELS} base ch, batch {BATCH} of {TILE}x{TILE}): "
        f"speedup {speedup:.2f}x, conv cache /{conv_ratio:.1f}, pool cache /{pool_ratio:.1f}",
        rows,
    )
    write_bench_json("training_throughput", {
        "config": {"depth": DEPTH, "base_channels": BASE_CHANNELS, "tile": TILE,
                   "batch": BATCH, "rounds": ROUNDS, "smoke": BENCH_SMOKE},
        "img_per_s": {name: round(value, 3) for name, value in img_s.items()},
        "step_seconds": {name: round(value, 5) for name, value in best.items()},
        "speedup": round(speedup, 3),
        "cached_bytes_per_layer": caches,
        "cache_reduction": {"Conv2D": round(conv_ratio, 2), "MaxPool2D": round(pool_ratio, 2)},
        "shared_workspace_bytes": workspace_nbytes(),
        "loss": {name: round(value, 5) for name, value in losses.items()},
    })

    assert conv_ratio >= MIN_CACHE_RATIO, f"Conv2D cache only dropped {conv_ratio:.2f}x"
    assert pool_ratio >= MIN_CACHE_RATIO, f"MaxPool2D cache only dropped {pool_ratio:.2f}x"
    # Shared CI runners are too noisy to gate on a timing ratio — the smoke
    # run only records the numbers; the full-scale run enforces the 2x gate.
    if not BENCH_SMOKE:
        assert speedup >= 2.0, (
            f"fast path reached {img_s['fast']:.2f} img/s vs seed {img_s['seed']:.2f} img/s "
            f"({speedup:.2f}x < 2.0x)"
        )


@pytest.mark.benchmark(group="training")
def test_training_step_equivalence_fast_vs_seed_path():
    """With dropout disabled both paths are the same function: per-step losses
    must track to float32 GEMM-order noise across several optimisation steps."""
    rng = np.random.default_rng(7)
    x = rng.random((2, 3, TILE, TILE), dtype=np.float32)
    y = rng.integers(0, 3, size=(2, TILE, TILE))
    seed_tr = build_trainer(seed_path=True, dropout=0.0)
    fast_tr = build_trainer(seed_path=False, dropout=0.0)
    for step in range(3):
        loss_seed = seed_tr.train_step(x, y)
        loss_fast = fast_tr.train_step(x, y)
        assert loss_fast == pytest.approx(loss_seed, abs=1e-4), f"diverged at step {step}"


# --------------------------------------------------------------------------- #
# The trainer's gradient fold vs the DGX performance model
# --------------------------------------------------------------------------- #
ALLREDUCE_STEPS = 2 if BENCH_SMOKE else 4
ALLREDUCE_SMALL = UNetConfig(depth=2, base_channels=8, dropout=0.0, seed=0)
ALLREDUCE_LARGE = UNetConfig(depth=3, base_channels=16, dropout=0.0, seed=0)


def _measure_fold(workers: int, config: UNetConfig) -> tuple[float, int]:
    """``(seconds, gradient bytes)`` of one fold over ``workers`` forked ranks, one micro-shard each."""
    rng = np.random.default_rng(workers)
    x = rng.random((2 * workers, 3, 16, 16), dtype=np.float32)
    y = rng.integers(0, 3, size=(2 * workers, 16, 16))
    with ElasticTrainer(num_workers=workers, config=config, step_timeout_s=60.0) as trainer:
        trainer.train_step(x, y)  # warm-up: the first step also faults the arena in
        fold = fold_per_step(lambda: [trainer.train_step(x, y) for _ in range(ALLREDUCE_STEPS)])
        flat_bytes = trainer._flat_size * 4
    assert fold["fold_bytes"] == workers * flat_bytes
    return fold["fold_ms"] / 1e3, flat_bytes


@pytest.mark.benchmark(group="training")
def test_allreduce_cost_matches_perfmodel():
    """Calibrate the cost model's communication term from the trainer's own 2-worker gradient fold
    (two model sizes isolate bandwidth from fixed overhead), predict the 4-worker fold, and record
    measured/predicted in BENCH_training_throughput.json without asserting it.  The fold is a chain
    over shared memory — each rank adds its slots into one accumulator in turn — not the ring the
    model prices, so the ratio describes this repository's fold, not Horovod's."""
    t_small, small_bytes = _measure_fold(2, ALLREDUCE_SMALL)
    t_large, large_bytes = _measure_fold(2, ALLREDUCE_LARGE)

    # At p=2 the ring model is t = S/BW + 2L (S = gradient bytes): two sizes
    # give effective bandwidth and fixed latency.
    bandwidth = (large_bytes - small_bytes) / max(t_large - t_small, 1e-9)
    latency = max((t_small - small_bytes / bandwidth) / 2.0, 1e-6)

    one_step = ScalingModel(serial_s=0.0, parallel_s=0.0, per_node_s=0.0, items=1, batch=1, exchange_bytes=large_bytes,
                            bandwidth_bytes_per_s=bandwidth, latency_s=latency, repeats=1)  # one exchange, nothing else
    predicted = one_step.seconds(4, 1)
    measured, _ = _measure_fold(4, ALLREDUCE_LARGE)
    ratio = measured / predicted

    print_rows(
        f"gradient fold vs cost model ({large_bytes} gradient bytes, "
        f"bw {bandwidth / 1e6:.0f} MB/s, latency {latency * 1e3:.2f} ms)",
        [{"workers": 2, "measured_ms": round(t_large * 1e3, 3)},
         {"workers": 4, "measured_ms": round(measured * 1e3, 3),
          "predicted_ms": round(predicted * 1e3, 3),
          "measured_over_predicted": round(ratio, 3)}],
    )
    update_bench_json("training_throughput", "allreduce_perfmodel", {
        "gradient_bytes": {"small": small_bytes, "large": large_bytes},
        "steps": ALLREDUCE_STEPS,
        "smoke": BENCH_SMOKE,
        "calibration": {
            "p2_small_s": round(t_small, 6),
            "p2_large_s": round(t_large, 6),
            "effective_bandwidth_gb_per_s": round(bandwidth / 1e9, 4),
            "fixed_latency_s": round(latency, 6),
        },
        "p4_measured_s": round(measured, 6),
        "p4_predicted_s": round(predicted, 6),
        "measured_over_predicted": round(ratio, 3),
    })
