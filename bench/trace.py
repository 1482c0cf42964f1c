"""In-memory span recorder for the traced pass.

Spans are recorded from ``bench/``'s own files, around the calls into each
layer's public functions; nothing is written until the run ends.  A span is
named ``<layer>.<function>`` so a layer's budget line is the self time of
the spans carrying its prefix.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Spans (name, start, end, parent id, workload id) plus named counters."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count()
        self._local = threading.local()  # one open-span stack per thread

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        record = {"id": next(self._ids), "name": name, "workload": self.workload,
                  "parent": stack[-1] if stack else None, "start": time.perf_counter()}
        stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for record in sorted(self.spans, key=lambda r: r["id"]):
                fh.write(json.dumps(record) + "\n")
            fh.write(json.dumps({"workload": self.workload, "counts": dict(self.counts)}) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id → its duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for record in spans:
        children[record["parent"]].append(record)
    result = {}
    for record in spans:
        covered, cursor = 0.0, record["start"]
        for child in sorted(children[record["id"]], key=lambda r: r["start"]):
            lo, hi = max(child["start"], cursor), min(child["end"], record["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[record["id"]] = record["end"] - record["start"] - covered
    return result


def layer_budget(spans: list[dict]) -> tuple[dict[str, float], float]:
    """``({layer: self seconds}, wall seconds)`` over every root span's tree.

    Raises when the self times do not sum to the roots' wall time within 2%,
    which is what a mis-parented or overlapping span would cause.
    """
    selfs = self_times(spans)
    wall = sum(r["end"] - r["start"] for r in spans if r["parent"] is None)
    total = sum(selfs.values())
    if wall <= 0 or abs(total - wall) > 0.02 * wall:
        raise AssertionError(f"self times sum to {total:.6f}s but the root spans last {wall:.6f}s")
    budget: dict[str, float] = defaultdict(float)
    for record in spans:
        budget[record["name"].split(".", 1)[0]] += selfs[record["id"]]
    return dict(budget), wall
