"""Distributed (Horovod-style) synchronous data-parallel U-Net training.

Mirrors the paper's §III-C.1 workflow: fork a group of workers that share
the initial weights, shard every global batch across them, average the
per-shard gradients and apply the identical update everywhere.  The example
verifies that :class:`~repro.distributed.ElasticTrainer` reaches bit-identical
weights in-process and on two forked workers — its gradient all-reduce folds
the micro-shard gradients in slot order, whatever the worker count — then
prints the DGX A100 performance-model sweep that regenerates the paper's
Table III.

Run with:  python examples/distributed_training.py
"""

from __future__ import annotations

from repro.data import BatchLoader, build_dataset, train_test_split
from repro.distributed import ElasticTrainer
from repro.metrics.scaling import PAPER_TABLE3_ROWS, TABLE3, relative_error, table3_rows
from repro.unet import UNetConfig


def main() -> None:
    config = UNetConfig(depth=2, base_channels=8, dropout=0.2, seed=3)
    dataset = build_dataset(num_scenes=3, scene_size=64, tile_size=32, base_seed=21)
    train, _ = train_test_split(dataset, test_fraction=0.2, seed=0)

    # ------------------------------------------------------------------ #
    # 1. Synchronous data-parallel training equals in-process training, bit for bit.
    # ------------------------------------------------------------------ #
    print("1. verifying 2-worker synchronous training matches in-process training ...")
    digests = {}
    for workers in (0, 2):
        loader = BatchLoader(train.images, train.labels, batch_size=4, augment=True, seed=0)
        with ElasticTrainer(num_workers=workers, micro_shards=2, config=config, learning_rate=1e-2) as trainer:
            history = trainer.fit(loader, epochs=2)
            digests[workers] = trainer.weights_digest()
        print(f"   {workers} workers: loss {history.losses[-1]:.4f}, weights sha256 {digests[workers][:16]}…")
    assert digests[0] == digests[2]
    print("   identical trajectories: the worker count does not touch the model")

    # ------------------------------------------------------------------ #
    # 2. The DGX A100 sweep of Table III / Figure 12.
    # ------------------------------------------------------------------ #
    print("2. DGX A100 performance-model sweep (Table III / Figure 12):")
    rows = table3_rows(TABLE3)
    for row in rows:
        print(f"   {row}")
    print("   paper's published rows:")
    for row in PAPER_TABLE3_ROWS:
        print(f"   {row}")
    print(f"   mean relative error vs the paper: {relative_error(rows, PAPER_TABLE3_ROWS, ('total_time_s', 'speedup')):.1%}")


if __name__ == "__main__":
    main()
