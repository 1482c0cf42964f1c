"""Parallel-performance metrics: speedup, efficiency, throughput, Amdahl fits.

These back the scaling tables of the paper (Tables I–III) and the ablation
benches: every table row is a (worker-count, time) pair turned into a
speedup / efficiency / throughput figure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "speedup",
    "efficiency",
    "throughput",
    "fit_amdahl_serial_fraction",
    "ScalingPoint",
    "ScalingTable",
]


def speedup(serial_time: float, parallel_time: float) -> float:
    """Classic speedup ``S = T_serial / T_parallel``."""
    if serial_time <= 0 or parallel_time <= 0:
        raise ValueError("times must be positive")
    return serial_time / parallel_time


def efficiency(serial_time: float, parallel_time: float, workers: int) -> float:
    """Parallel efficiency ``E = S / p``."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return speedup(serial_time, parallel_time) / workers


def throughput(items: int, elapsed: float) -> float:
    """Items processed per second (the paper's ``Data/s`` column in Table III)."""
    if elapsed <= 0:
        raise ValueError("elapsed time must be positive")
    if items < 0:
        raise ValueError("items must be non-negative")
    return items / elapsed


def fit_amdahl_serial_fraction(workers: np.ndarray, speedups: np.ndarray) -> float:
    """Least-squares fit of Amdahl's serial fraction from measured speedups.

    Solving ``1/S = f + (1-f)/p`` for ``f`` at each point and averaging gives
    a robust closed-form estimate (points at ``p == 1`` carry no information
    and are ignored).
    """
    w = np.asarray(workers, dtype=np.float64)
    s = np.asarray(speedups, dtype=np.float64)
    if w.shape != s.shape or w.size == 0:
        raise ValueError("workers and speedups must be equal-length non-empty arrays")
    mask = w > 1
    if not mask.any():
        raise ValueError("need at least one measurement with more than one worker")
    w, s = w[mask], s[mask]
    f = (1.0 / s - 1.0 / w) / (1.0 - 1.0 / w)
    return float(np.clip(f.mean(), 0.0, 1.0))


@dataclass
class ScalingPoint:
    """One row of a scaling table: a worker count with its measured wall time."""

    workers: int
    time: float
    items: int | None = None

    def speedup_vs(self, serial_time: float) -> float:
        return speedup(serial_time, self.time)

    def efficiency_vs(self, serial_time: float) -> float:
        return efficiency(serial_time, self.time, self.workers)

    def throughput_value(self) -> float | None:
        return None if self.items is None else throughput(self.items, self.time)


@dataclass
class ScalingTable:
    """A full strong-scaling experiment: one serial baseline plus measured points."""

    points: list[ScalingPoint]
    label: str = ""

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("a scaling table needs at least one point")
        self.points = sorted(self.points, key=lambda p: p.workers)

    @property
    def serial_time(self) -> float:
        """Wall time of the smallest worker count (the baseline row)."""
        return self.points[0].time

    def speedups(self) -> list[float]:
        base = self.serial_time
        return [p.speedup_vs(base) for p in self.points]

    def serial_fraction(self) -> float:
        workers = np.array([p.workers for p in self.points], dtype=float)
        return fit_amdahl_serial_fraction(workers, np.array(self.speedups()))

    def rows(self) -> list[dict]:
        """Table rows ready for printing (mirrors the layout of Tables I and III)."""
        base = self.serial_time
        out = []
        for p in self.points:
            row = {
                "workers": p.workers,
                "time_s": round(p.time, 4),
                "speedup": round(p.speedup_vs(base), 3),
                "efficiency": round(p.efficiency_vs(base), 3),
            }
            tput = p.throughput_value()
            if tput is not None:
                row["items_per_s"] = round(tput, 2)
            out.append(row)
        return out

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        header = f"== {self.label or 'scaling table'} =="
        lines = [header]
        for row in self.rows():
            lines.append("  " + "  ".join(f"{k}={v}" for k, v in row.items()))
        return "\n".join(lines)
