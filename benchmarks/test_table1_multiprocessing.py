"""Table I and Figure 10 — Python-multiprocessing auto-labeling speedup.

Paper result: auto-labeling 4224 tiles takes 17.40 s serially and 3.89 s with
8 processes on a 4-core (hyperthreaded) machine — a 4.5× speedup.  This
benchmark measures the identical workload (thin-cloud/shadow filtering +
HSV colour segmentation per tile) on a reduced synthetic archive, sweeps the
process count, and reports the speedup column next to the paper's.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import autolabel_tile
from repro.data import build_dataset
from repro.metrics import fit_amdahl_serial_fraction
from repro.metrics.scaling import ScalingTable
from repro.backend import available_cpu_count
from repro.workflow import autolabel_scaling_table

from conftest import print_paper_vs_measured

#: Table I of the paper (processes, parallel time, speedup).
PAPER_TABLE1 = [
    {"processes": 1, "time_s": 17.40, "speedup": 1.0},
    {"processes": 2, "time_s": 8.89, "speedup": 2.0},
    {"processes": 4, "time_s": 4.69, "speedup": 3.7},
    {"processes": 6, "time_s": 4.10, "speedup": 4.2},
    {"processes": 8, "time_s": 3.89, "speedup": 4.5},
]


@pytest.fixture(scope="module")
def table1_tiles():
    """192 tiles of 128x128 for the sweep (a 96-tile archive, twice over).  The shared 64x64 archive is
    ~0.13 s of labeling with the planar kernel, less than forking and feeding a pool costs, so it cannot
    show a speedup at any worker count; this one is ~0.9 s."""
    tiles = build_dataset(num_scenes=6, scene_size=512, tile_size=128, base_seed=42, cloudy_fraction=0.5).images
    return np.concatenate([tiles, tiles])


def _worker_counts() -> tuple[int, ...]:
    cpus = available_cpu_count()
    counts = [c for c in (1, 2, 4, 6, 8) if c <= max(2 * cpus, 2)]
    return tuple(counts) or (1,)


@pytest.mark.benchmark(group="table1")
def test_table1_single_tile_autolabel_cost(benchmark, bench_dataset):
    """Per-tile cost of the auto-labeling UDF (the unit of work Table I parallelises)."""
    tile = bench_dataset.images[0]
    result = benchmark(autolabel_tile, tile, True)
    assert result.shape == tile.shape[:2]


@pytest.mark.benchmark(group="table1")
def test_table1_and_fig10_multiprocessing_speedup(benchmark, table1_tiles):
    """Regenerate the Table I sweep / Figure 10 speedup curve."""
    tiles = table1_tiles
    counts = _worker_counts()

    sweeps = []
    benchmark.pedantic(lambda: sweeps.append(autolabel_scaling_table(tiles, worker_counts=counts)), rounds=3, iterations=1)
    # A shared host's speed moves in plateaus of seconds, longer than one row: each row is its best of three sweeps.
    table = ScalingTable(points=[min(row, key=lambda point: point.time) for row in zip(*(s.points for s in sweeps))],
                         label=sweeps[0].label)
    rows = table.rows()
    print_paper_vs_measured(
        f"Table I / Fig 10: multiprocessing auto-label speedup ({tiles.shape[0]} tiles of "
        f"{tiles.shape[1]}x{tiles.shape[2]}, {available_cpu_count()} CPUs available)",
        PAPER_TABLE1,
        rows,
    )

    # Shape checks: monotone non-increasing time, speedup > 1 once more than
    # one worker is used (when the machine has more than one core).
    speedups = [row["speedup"] for row in rows]
    assert speedups[0] == 1.0
    if len(rows) > 1 and available_cpu_count() > 1:
        assert max(speedups) > 1.2, "parallel auto-labeling should beat the serial baseline"
    workers = np.array([row["workers"] for row in rows], dtype=float)
    if len(rows) > 2:
        serial_fraction = fit_amdahl_serial_fraction(workers, np.array(speedups))
        print(f"  fitted Amdahl serial fraction: {serial_fraction:.3f}")
        assert serial_fraction < 0.9
