"""Table II — PySpark map-reduce auto-labeling scalability.

Paper result: on a 4-node Google Cloud Dataproc cluster the distributed
auto-labeling job reaches a 9× data-loading speedup and a 16.25× map-reduce
speedup at 4 executors × 4 cores.  Here the same load → map → reduce job
(``run_mapreduce_autolabel``) runs locally on the serial and multi-process
executors, and the executor×core sweep is regenerated with the calibrated
cost model's Table II parameters (``repro.metrics.scaling.TABLE2``), printed
next to the paper's rows.
"""

from __future__ import annotations

import pytest

from repro.mapreduce import mapreduce_scaling_sweep, run_mapreduce_autolabel
from repro.metrics.scaling import PAPER_TABLE2_ROWS, TABLE2, relative_error, table2_rows

from conftest import print_paper_vs_measured, print_rows


@pytest.mark.benchmark(group="table2")
def test_table2_local_mapreduce_job(benchmark, bench_dataset):
    """Real local execution of the auto-label job (serial executor baseline)."""
    tiles = bench_dataset.images[: min(32, len(bench_dataset))]

    def run_job():
        return run_mapreduce_autolabel(tiles, executor="serial", parallelism=1)

    result = benchmark.pedantic(run_job, rounds=1, iterations=1)
    assert result.labels.shape == tiles.shape[:3]
    print_rows(
        "Table II baseline: serial execution of the auto-label job",
        [
            {
                "tiles": tiles.shape[0],
                **result.timings.as_row(),
                "partitions": result.num_partitions,
            }
        ],
    )


@pytest.mark.benchmark(group="table2")
def test_table2_local_process_executor_speedup(benchmark, bench_dataset):
    """The same job on the multi-process executor must produce identical labels faster."""
    tiles = bench_dataset.images[: min(32, len(bench_dataset))]
    serial = run_mapreduce_autolabel(tiles, executor="serial", parallelism=1)

    def run_parallel():
        return run_mapreduce_autolabel(tiles, executor="processes", parallelism=4)

    parallel = benchmark.pedantic(run_parallel, rounds=1, iterations=1)
    assert (parallel.labels == serial.labels).all()
    rows = [
        {"executor": "serial", **serial.timings.as_row()},
        {"executor": "processes(4)", **parallel.timings.as_row()},
    ]
    print_rows("Table II: executor comparison (identical labels)", rows)


@pytest.mark.benchmark(group="table2")
def test_table2_cluster_sweep(benchmark, bench_dataset):
    """Regenerate the full executor×core sweep of Table II with the calibrated cost model."""

    def sweep():
        return mapreduce_scaling_sweep(tiles=bench_dataset.images[: min(48, len(bench_dataset))])

    measured_rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_paper_vs_measured("Table II: map-reduce auto-labeling scalability", PAPER_TABLE2_ROWS, measured_rows)

    # Shape assertions: strong scaling in both load and reduce, with the reduce
    # phase close to linear (the paper's 16.25x at 16 slots).
    by_shape = {(r["executors"], r["cores"]): r for r in measured_rows}
    assert by_shape[(4, 4)]["speedup_reduce"] > by_shape[(2, 2)]["speedup_reduce"] > 1.0
    assert by_shape[(4, 4)]["speedup_load"] > 1.0
    assert by_shape[(4, 4)]["speedup_reduce"] > 8.0

    error = relative_error(table2_rows(*TABLE2), PAPER_TABLE2_ROWS, ("load_time_s", "reduce_time_s"))
    print(f"  paper-calibrated cost-model mean relative error vs Table II: {error:.1%}")
    assert error < 0.15
