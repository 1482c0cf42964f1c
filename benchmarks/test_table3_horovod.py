"""Table III and Figure 12 — Horovod distributed U-Net training speedup.

Paper result: synchronous data-parallel training with Horovod on a DGX A100
scales from 280.72 s (1 GPU) to 38.91 s (8 GPUs) for 50 epochs — a 7.21×
speedup with throughput rising from 586 to 4249 images/s.  Without GPUs the
sweep is regenerated two ways:

* the *algorithmic* path — a real synchronous data-parallel step of the
  elastic trainer over two forked workers, and its gradient all-reduce (the
  slot-order fold over shared memory), read from the trainer's registry;
* the *hardware* path — the calibrated cost model's DGX A100 parameters
  (``repro.metrics.scaling.TABLE3``), whose 1-GPU row matches the paper and
  whose scaling terms (compute / ring all-reduce / input pipeline)
  regenerate the full table.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from helpers import num_parameters
from repro.data import BatchLoader
from repro.distributed import ElasticTrainer
from repro.metrics.scaling import PAPER_TABLE3_ROWS, TABLE3, relative_error, table3_rows
from repro.unet import UNetConfig

from conftest import fold_per_step, print_paper_vs_measured, print_rows

_CONFIG = UNetConfig(depth=2, base_channels=8, dropout=0.0, seed=3)


def _global_batch(bench_dataset, size: int = 8):
    loader = BatchLoader(bench_dataset.images[:size], bench_dataset.labels[:size], batch_size=size,
                         shuffle=False, drop_last=True)
    return next(iter(loader))


@pytest.mark.benchmark(group="table3")
def test_table3_ring_allreduce_cost(benchmark, bench_dataset):
    """Cost of the gradient all-reduce per step (the per-step Horovod overhead): the 2-worker fold."""
    x, y = _global_batch(bench_dataset)
    with ElasticTrainer(num_workers=2, config=_CONFIG, learning_rate=1e-3) as trainer:
        fold = benchmark.pedantic(
            lambda: fold_per_step(lambda: [trainer.train_step(x, y) for _ in range(3)]), rounds=1, iterations=1)
        flat_bytes = trainer._flat_size * 4
    print_rows("Table III: gradient all-reduce per step (2 forked workers, slot-order fold)",
               [{"fold_ms": round(fold["fold_ms"], 3), "bytes": int(fold["fold_bytes"]),
                 "gradient_bytes": flat_bytes}])
    assert fold["steps"] == 3 and fold["fold_ms"] > 0
    assert fold["fold_bytes"] == 2 * flat_bytes  # every micro-shard slot folded once


@pytest.mark.benchmark(group="table3")
def test_table3_single_worker_epoch(benchmark, bench_dataset):
    """Single-worker training epoch (the 1-GPU baseline row of Table III)."""
    tiles = bench_dataset.images[:24]
    labels = bench_dataset.labels[:24]
    loader = BatchLoader(tiles, labels, batch_size=8, shuffle=False)
    trainer = ElasticTrainer(num_workers=0, config=_CONFIG, learning_rate=1e-3)

    stats = benchmark.pedantic(lambda: trainer.fit(loader, epochs=1).epochs[-1], rounds=1, iterations=1)
    assert stats.images_per_s > 0
    print_rows(
        "Table III baseline: single-worker epoch on this machine",
        [{"epoch_time_s": round(stats.time_s, 3), "images_per_s": round(stats.images_per_s, 1)}],
    )


@pytest.mark.benchmark(group="table3")
def test_table3_data_parallel_training_step(benchmark, bench_dataset):
    """Real synchronous data-parallel step (2 forked workers + gradient fold)."""
    tiles = bench_dataset.images[:16]
    labels = bench_dataset.labels[:16]
    loader = BatchLoader(tiles, labels, batch_size=8, shuffle=False, drop_last=True)
    x, y = next(iter(loader))

    with ElasticTrainer(num_workers=2, config=_CONFIG, learning_rate=1e-3) as trainer:
        loss = benchmark(trainer.train_step, x, y)
        assert trainer.stats()["ring_rebuilds"] == 0
    assert loss is not None and np.isfinite(loss)


@pytest.mark.benchmark(group="table3")
def test_table3_and_fig12_dgx_sweep(benchmark, bench_dataset):
    """Regenerate the 1–8 GPU sweep of Table III / Figure 12."""
    # Calibrate the hardware model from a real single-worker epoch measured here,
    # then also report the paper-calibrated model for the side-by-side comparison.
    tiles = bench_dataset.images[:24]
    labels = bench_dataset.labels[:24]
    loader = BatchLoader(tiles, labels, batch_size=8, shuffle=False)
    trainer = ElasticTrainer(num_workers=0, config=_CONFIG, learning_rate=1e-3)
    epoch = trainer.fit(loader, epochs=1).epochs[-1]

    # This run's epoch, images, gradient bytes, batch and length, not the paper's; 1.4 % of the
    # epoch is the input pipeline, the serial share the paper's efficiency curve implies.
    local_model = replace(TABLE3.calibrated(epoch.time_s, 0.014), items=tiles.shape[0],
                          exchange_bytes=num_parameters(trainer.master) * 4, batch=8, repeats=5)
    local_rows = table3_rows(local_model)

    def sweep():
        return table3_rows(TABLE3)

    paper_calibrated_rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_paper_vs_measured(
        "Table III / Fig 12: distributed U-Net training (paper-calibrated model)",
        PAPER_TABLE3_ROWS,
        paper_calibrated_rows,
    )
    print_rows(
        "Table III / Fig 12: sweep re-calibrated from this machine's measured epoch",
        local_rows,
    )

    # Shape assertions: near-linear speedup with a mild efficiency roll-off.
    speedups = [row["speedup"] for row in paper_calibrated_rows]
    gpus = [row["gpus"] for row in paper_calibrated_rows]
    assert speedups == sorted(speedups)
    assert speedups[-1] > 6.5  # paper: 7.21x at 8 GPUs
    efficiency = [s / g for s, g in zip(speedups, gpus)]
    assert efficiency[-1] < efficiency[0]
    assert relative_error(paper_calibrated_rows, PAPER_TABLE3_ROWS, ("total_time_s", "speedup")) < 0.05


@pytest.mark.benchmark(group="table3")
def test_table3_ablation_ring_vs_naive_allreduce(benchmark, bench_dataset):
    """Ablation: the fold's bytes per step do not depend on the worker count (M = 2 micro-shards
    throughout); beside them, the per-worker share 2(p-1)/p that the cost model prices for the DGX ring."""
    x, y = _global_batch(bench_dataset)

    def sweep():
        rows = []
        for workers in (0, 1, 2):
            with ElasticTrainer(num_workers=workers, micro_shards=2, config=_CONFIG) as trainer:
                fold = fold_per_step(lambda: trainer.train_step(x, y))
            rows.append({"workers": workers, "fold_bytes_per_step": int(fold["fold_bytes"]),
                         "fold_ms": round(fold["fold_ms"], 3),
                         "ring_traffic_fraction": round(2 * (max(workers, 1) - 1) / max(workers, 1), 2)})
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_rows("Ablation: gradient bytes folded per step vs the ring's per-worker traffic", rows)
    assert len({row["fold_bytes_per_step"] for row in rows}) == 1
