"""Deterministic checks of the benchmark harness itself (no timing, nothing written outside tmp)."""

from __future__ import annotations

import json
import os
import re

import numpy as np
import pytest

from bench.check_repeat import compare
from bench.metrics import MOVES, load_contract
from bench.stats import percentile, quartile_spread, tail, worsening
from bench.trace import Tracer, layer_budget, self_times
from bench.workloads import WORKLOADS, Workload, digest, response_failed

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_percentile_needs_ten_samples_beyond():
    assert percentile(range(1, 201), 95) == 190  # exactly ten beyond
    assert percentile(range(1, 200), 95) is None  # nine beyond
    assert percentile(range(1, 1001), 99) == 990
    assert percentile(range(1, 21), 50) == 10
    assert percentile(range(1, 20), 50) is None
    assert tail(range(1, 201)) == (95, 190.0)
    assert tail([3.0, 1.0, 2.0]) == (50, 2.0)  # too few for any percentile: the median again


def test_spread_and_worsening():
    assert quartile_spread([10, 10, 10, 10]) == 0
    assert quartile_spread(range(1, 12)) == pytest.approx(6 / 6)  # quartiles 3 and 9, median 6
    assert worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)
    worse, spreads, ok = compare([10, 10, 10, 10], [12, 12, 12, 12], "lower", 0.15, True)
    assert (round(worse, 2), spreads, ok) == (0.20, [0, 0], False)
    assert compare([10.0], [10.5], "lower", 0.07, True)[2]  # one run a set: medians only
    assert not compare([1, 2, 3, 9], [1, 2, 3, 9], "lower", 0.25, True)[2]  # spread beyond the bound
    assert compare([1, 2, 3, 9], [1, 2, 3, 9], "lower", 0.25, False)[2]  # ... is let through for setup_s


def test_self_time_on_a_hand_built_tree():
    def span(id_, name, start, end, parent):
        return {"id": id_, "name": name, "start": start, "end": end, "parent": parent}

    spans = [
        span(0, "bench.measure", 0.0, 10.0, None),
        span(1, "unet.split_into_tiles", 1.0, 2.0, 0),
        span(2, "nn.predict_batch_probabilities", 2.0, 8.0, 0),
        span(3, "nn.inner", 3.0, 5.0, 2),
        span(4, "data.inner", 4.0, 6.0, 2),  # overlaps its sibling: covered time is the union
    ]
    selfs = self_times(spans)
    assert selfs == {0: 3.0, 1: 1.0, 2: 3.0, 3: 2.0, 4: 2.0}
    with pytest.raises(AssertionError):  # the overlap makes self times exceed the wall
        layer_budget(spans)
    budget, wall = layer_budget(spans[:4])
    assert wall == 10.0
    assert budget == {"bench": 3.0, "unet": 1.0, "nn": 6.0}


def test_tracer_parents_and_jsonl(tmp_path):
    tracer = Tracer("w")
    with tracer.span("bench.measure") as root:
        with tracer.span("nn.call") as child:
            tracer.count("nn.tiles", 4)
    assert child["parent"] == root["id"] and root["parent"] is None
    assert root["start"] <= child["start"] <= child["end"] <= root["end"]
    path = tmp_path / "trace-w.jsonl"
    tracer.write(str(path))
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [line.get("name") for line in lines] == ["bench.measure", "nn.call", None]
    assert lines[-1]["counts"] == {"nn.tiles": 4} and lines[0]["workload"] == "w"


def test_benchmark_json_is_well_formed():
    contract = load_contract()
    assert set(contract) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert all(set(w) == {"name", "why"} for w in contract["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in contract["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in contract["per_layer"])
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in contract[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
               for key in ("end_to_end", "per_layer") for entry in contract[key])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in contract["workloads"])
    assert 2 <= len(contract["workloads"]) <= 8 and len(contract["per_layer"]) <= 128
    bounds = {entry["name"]: entry["bound"] for entry in contract["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert set(WORKLOADS) == {w["name"] for w in contract["workloads"]}


def test_every_layer_metric_moves_a_known_metric_on_a_known_workload():
    contract = load_contract()
    end_to_end = {entry["name"] for entry in contract["end_to_end"]}
    workloads = {entry["name"] for entry in contract["workloads"]}
    assert set(MOVES) == {entry["name"] for entry in contract["per_layer"]}
    for name, moves in MOVES.items():
        assert moves or name.startswith("bench."), f"{name} predicts nothing"
        for metric, where in moves.items():
            assert metric in end_to_end and where and set(where) <= workloads, (name, metric, where)


def test_readme_names_every_metric_and_workload():
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "README.md")) as fh:
        readme = fh.read()
    contract = load_contract()
    for key in ("workloads", "end_to_end", "per_layer"):
        for entry in contract[key]:
            assert f"`{entry['name']}`" in readme, f"bench/README.md does not explain {entry['name']}"


class _Replay(Workload):
    """A workload whose operations return prepared outputs."""

    name = "replay"

    def __init__(self, out_dir, outputs, wrong_per_op=0):
        super().__init__(0, str(out_dir))
        self.items_per_op, self._outputs, self._wrong_per_op = 4, iter(outputs), wrong_per_op

    def op(self):
        return next(self._outputs)

    output_digest = staticmethod(digest)

    def check_reference(self) -> int:
        return self._wrong_per_op


def test_a_flipped_label_is_a_failed_operation(tmp_path):
    labels = np.zeros((4, 8, 8), dtype=np.uint8)
    flipped = labels.copy()
    flipped[2, 3, 3] = 1
    clean = _Replay(tmp_path, [labels, labels.copy()]).measure(0.0)
    assert (clean.attempted, clean.failed, clean.first_output) == (8, 0, digest(labels))
    one_bad = _Replay(tmp_path, [labels, flipped]).measure(0.0)
    assert (one_bad.attempted, one_bad.failed) == (8, 4)  # the whole operation's items
    # every operation reproduces the first, but the reference says one tile of it is wrong
    assert _Replay(tmp_path, [flipped] * 2, wrong_per_op=1).measure(0.0).failed == 2
    assert _Replay(tmp_path, [flipped] * 2, wrong_per_op=1).measure(0.0, reference=False).failed == 0


def test_a_non_200_or_wrong_counts_is_a_failed_operation():
    expected = {"0": 1000, "2": 24}
    good = json.dumps({"class_counts": expected, "elapsed_ms": 1.0}).encode()
    assert not response_failed(200, good, expected)
    assert response_failed(503, good, expected)
    assert response_failed(200, json.dumps({"class_counts": {"0": 999, "2": 25}}).encode(), expected)
    assert response_failed(200, b"not json", expected)
    assert response_failed(200, b"{}", expected)
