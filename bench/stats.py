"""Small statistics and host helpers shared by the runner, the repeat check and the tests."""

from __future__ import annotations

import os
import resource
import statistics


def median(values) -> float:
    return float(statistics.median(values))


def percentile(samples, q: float) -> float | None:
    """Nearest-rank ``q``-th percentile, or ``None`` when fewer than ten samples lie beyond it."""
    ordered = sorted(samples)
    rank = -(-len(ordered) * q // 100)  # ceil(n * q / 100), 1-based
    if len(ordered) - rank < 10:
        return None
    return float(ordered[int(rank) - 1])


def tail(samples) -> tuple[int, float]:
    """``(95, p95)`` when the ten-samples-beyond rule allows it, else ``(50, median)``."""
    p95 = percentile(samples, 95)
    return (95, p95) if p95 is not None else (50, median(samples))


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median(values))


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first`` (negative = better)."""
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def cpu_jiffies() -> tuple[int, int]:
    """``(stolen, total)`` CPU time of the whole host so far, from ``/proc/stat``.

    Time the hypervisor gave to someone else shows up as steal; a run with
    more than a few percent of it measured the neighbours, not the program.
    """
    with open("/proc/stat") as fh:
        fields = [int(value) for value in fh.readline().split()[1:9]]
    return fields[7], sum(fields)


def steal_share(before: tuple[int, int]) -> float:
    """Percent of the host's CPU time stolen since ``before = cpu_jiffies()``."""
    stolen, total = (now - then for now, then in zip(cpu_jiffies(), before))
    return 100.0 * stolen / max(total, 1)


def parent_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux


def peak_rss_mb(parent_kb: int) -> float:
    """The parent's peak RSS (read when the timed region ended, before the
    reference checks run) plus the largest peak among the reaped children.

    ``getrusage`` cannot sum children, and forked workers share most pages
    with the parent anyway; parent + largest child moves when either grows.
    Call after teardown, when every worker has been reaped.
    """
    return (parent_kb + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def stop_resource_tracker() -> None:
    """multiprocessing's shared-memory tracker is a child of this process too, and
    nothing waits for it at exit: close its pipe and wait, so no process outlives the run."""
    from multiprocessing import resource_tracker

    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def host_fingerprint(blas_as_found: dict) -> dict:
    """CPU count, BLAS thread settings as found and as run, numpy and BLAS versions."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": len(os.sched_getaffinity(0)),
        "blas_threads_as_found": blas_as_found,
        "blas_threads_as_run": {key: os.environ.get(key) for key in blas_as_found},
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }
