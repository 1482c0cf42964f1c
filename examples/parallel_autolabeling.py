"""Parallel auto-labeling at scale: multiprocessing and map-reduce backends.

Reproduces the workflow behind the paper's Tables I and II on a synthetic
archive: the same thin-cloud/shadow-filtered colour-segmentation job is run
serially, with Python multiprocessing (Table I) and as the map-reduce job
(Table II), and the measured scaling is printed next to the paper's cluster
numbers (regenerated with the calibrated Dataproc cost model).

Run with:  python examples/parallel_autolabeling.py
"""

from __future__ import annotations

import numpy as np

from repro.data import build_dataset
from repro.backend import available_cpu_count
from repro.mapreduce import mapreduce_scaling_sweep, run_mapreduce_autolabel
from repro.metrics.scaling import PAPER_TABLE2_ROWS, TABLE2, relative_error, table2_rows
from repro.workflow import autolabel_scaling_table


def main() -> None:
    print("building a synthetic archive ...")
    dataset = build_dataset(num_scenes=4, scene_size=256, tile_size=64, base_seed=5, cloudy_fraction=0.5)
    tiles = dataset.images
    print(f"  {tiles.shape[0]} tiles of {tiles.shape[1]}x{tiles.shape[2]} pixels")

    # ------------------------------------------------------------------ #
    # Table I: single-machine multiprocessing scaling.
    # ------------------------------------------------------------------ #
    cpus = available_cpu_count()
    worker_counts = tuple(c for c in (1, 2, 4, 8) if c <= 2 * cpus)
    print(f"\nTable I workload: multiprocessing sweep over {worker_counts} processes ({cpus} CPUs)")
    table = autolabel_scaling_table(tiles, worker_counts=worker_counts)
    for row in table.rows():
        print(f"  {row}")
    print(f"  fitted Amdahl serial fraction: {table.serial_fraction():.3f}")

    # ------------------------------------------------------------------ #
    # Table II: map-reduce job + simulated Dataproc cluster sweep.
    # ------------------------------------------------------------------ #
    print("\nTable II workload: map-reduce auto-label job (process executor)")
    result = run_mapreduce_autolabel(tiles, executor="processes", parallelism=min(4, cpus))
    print(f"  {result.labels.shape[0]} tiles labelled over {result.num_partitions} partitions; "
          f"timings: {result.timings.as_row()}")

    serial = run_mapreduce_autolabel(tiles[:8], executor="serial")
    assert np.array_equal(serial.labels, result.labels[:8]), "distributed labels must match serial labels"

    print("\n  simulated Dataproc sweep (calibrated from this machine's per-tile cost):")
    for row in mapreduce_scaling_sweep(tiles=tiles[: min(48, tiles.shape[0])]):
        print(f"    {row}")

    print("\n  paper's published Table II for comparison:")
    for row in PAPER_TABLE2_ROWS:
        print(f"    {row}")
    error = relative_error(table2_rows(*TABLE2), PAPER_TABLE2_ROWS, ("load_time_s", "reduce_time_s"))
    print(f"\n  paper-calibrated cost-model error vs Table II: {error:.1%}")


if __name__ == "__main__":
    main()
