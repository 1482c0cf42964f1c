"""Distributed (Horovod-style) synchronous data-parallel U-Net training.

Mirrors the paper's §III-C.1 workflow: fork a group of workers that share
the initial weights, shard every global batch across them, average the
per-shard gradients and apply the identical update everywhere.  The example
shows the bandwidth-optimal ring all-reduce Horovod averages with, verifies
that 2-worker training with :class:`~repro.distributed.ElasticTrainer`
reproduces single-process training step for step, then prints the DGX A100
performance-model sweep that regenerates the paper's Table III.

Run with:  python examples/distributed_training.py
"""

from __future__ import annotations

import numpy as np

from repro.data import BatchLoader, build_dataset, train_test_split
from repro.distributed import DGXTrainingModel, ElasticTrainer, paper_table3, ring_allreduce
from repro.nn import SGD
from repro.unet import UNet, UNetConfig, UNetTrainer


def main() -> None:
    config = UNetConfig(depth=2, base_channels=8, dropout=0.0, seed=3)
    dataset = build_dataset(num_scenes=3, scene_size=64, tile_size=32, base_seed=21)
    train, _ = train_test_split(dataset, test_fraction=0.2, seed=0)

    # ------------------------------------------------------------------ #
    # 1. The ring all-reduce itself.
    # ------------------------------------------------------------------ #
    rng = np.random.default_rng(0)
    gradients = [rng.normal(size=(50_000,)) for _ in range(8)]
    reduced, stats = ring_allreduce(gradients)
    print("1. ring all-reduce over 8 workers:")
    print(f"   per-worker traffic = {stats.traffic_fraction:.2f}x the buffer "
          f"(theory: 2(p-1)/p = {2 * 7 / 8:.2f}), {stats.communication_steps} communication steps")
    assert np.allclose(reduced[0], np.mean(gradients, axis=0))

    # ------------------------------------------------------------------ #
    # 2. Synchronous data-parallel training equals single-worker training.
    # ------------------------------------------------------------------ #
    print("2. verifying 2-worker synchronous training matches 1-worker training ...")
    serial = UNetTrainer(model=UNet(config), learning_rate=1e-2)
    serial.optimizer = SGD(serial.model.parameters(), lr=1e-2)
    serial.fit(BatchLoader(train.images, train.labels, batch_size=4, shuffle=False, drop_last=True), epochs=1)

    with ElasticTrainer(num_workers=2, config=config) as parallel:
        parallel.optimizer = SGD(parallel.master.parameters(), lr=1e-2)
        parallel.fit(BatchLoader(train.images, train.labels, batch_size=4, shuffle=False, drop_last=True), epochs=1)
        max_diff = max(
            float(np.abs(a.value - b.value).max())
            for a, b in zip(serial.model.parameters(), parallel.master.parameters())
        )
    print(f"   max weight difference after one epoch: {max_diff:.2e} (identical trajectories)")

    # ------------------------------------------------------------------ #
    # 3. The DGX A100 sweep of Table III / Figure 12.
    # ------------------------------------------------------------------ #
    print("3. DGX A100 performance-model sweep (Table III / Figure 12):")
    model = DGXTrainingModel()
    for row in model.sweep():
        print(f"   {row}")
    print("   paper's published rows:")
    for row in paper_table3():
        print(f"   {row}")
    print(f"   mean relative error vs the paper: {model.relative_error_vs_paper():.1%}")


if __name__ == "__main__":
    main()
