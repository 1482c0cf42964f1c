"""Table III and Figure 12 — Horovod distributed U-Net training speedup.

Paper result: synchronous data-parallel training with Horovod on a DGX A100
scales from 280.72 s (1 GPU) to 38.91 s (8 GPUs) for 50 epochs — a 7.21×
speedup with throughput rising from 586 to 4249 images/s.  Without GPUs the
sweep is regenerated two ways:

* the *algorithmic* path — the ring all-reduce itself, and a real
  synchronous data-parallel step of the elastic trainer over two forked
  workers, timed to show the per-step cost;
* the *hardware* path — the calibrated DGX A100 performance model, whose
  1-GPU row matches the paper and whose scaling terms (compute / ring
  all-reduce / input pipeline) regenerate the full table.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import BatchLoader
from repro.distributed import (
    DGXTrainingModel,
    ElasticTrainer,
    naive_allreduce,
    paper_table3,
    ring_allreduce,
)
from repro.unet import UNetConfig

from conftest import print_paper_vs_measured, print_rows

_CONFIG = UNetConfig(depth=2, base_channels=8, dropout=0.0, seed=3)


@pytest.mark.benchmark(group="table3")
def test_table3_ring_allreduce_cost(benchmark):
    """Cost of one ring all-reduce over a gradient buffer (the per-step Horovod overhead)."""
    rng = np.random.default_rng(0)
    buffers = [rng.normal(size=(200_000,)) for _ in range(8)]

    reduced, stats = benchmark(ring_allreduce, buffers)
    expected = np.mean(buffers, axis=0)
    np.testing.assert_allclose(reduced[0], expected, rtol=1e-9)
    assert stats.traffic_fraction == pytest.approx(2 * 7 / 8, rel=0.05)


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

    local_model = DGXTrainingModel.calibrated_from_measurement(
        measured_epoch_time=epoch.time_s,
        images_per_epoch=tiles.shape[0],
        model_parameters=trainer.master.num_parameters(),
        epochs=5,
        per_worker_batch_size=8,
    )
    paper_model = DGXTrainingModel()

    def sweep():
        return paper_model.sweep()

    paper_calibrated_rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_paper_vs_measured(
        "Table III / Fig 12: distributed U-Net training (paper-calibrated model)",
        paper_table3(),
        paper_calibrated_rows,
    )
    print_rows(
        "Table III / Fig 12: sweep re-calibrated from this machine's measured epoch",
        local_model.sweep(),
    )

    # Shape assertions: near-linear speedup with a mild efficiency roll-off.
    speedups = [row["speedup"] for row in paper_calibrated_rows]
    gpus = [row["gpus"] for row in paper_calibrated_rows]
    assert speedups == sorted(speedups)
    assert speedups[-1] > 6.5  # paper: 7.21x at 8 GPUs
    efficiency = [s / g for s, g in zip(speedups, gpus)]
    assert efficiency[-1] < efficiency[0]
    assert paper_model.relative_error_vs_paper() < 0.05


@pytest.mark.benchmark(group="table3")
def test_table3_ablation_ring_vs_naive_allreduce(benchmark):
    """Ablation: ring all-reduce vs centralised gather-broadcast traffic."""
    rng = np.random.default_rng(1)
    buffers = [rng.normal(size=(100_000,)) for _ in range(8)]

    _, ring_stats = ring_allreduce(buffers)
    _, naive_stats = benchmark(naive_allreduce, buffers)
    rows = [
        {"algorithm": "ring", "traffic_fraction": round(ring_stats.traffic_fraction, 2)},
        {"algorithm": "gather-broadcast", "traffic_fraction": round(naive_stats.traffic_fraction, 2)},
    ]
    print_rows("Ablation: all-reduce per-worker traffic (fraction of buffer size)", rows)
    assert ring_stats.traffic_fraction < naive_stats.traffic_fraction
