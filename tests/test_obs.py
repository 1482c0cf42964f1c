"""Tests for the telemetry layer: metrics registry, tracing, profiling hooks.

The load-bearing properties: concurrent increments (threads in-process,
fork workers over the drain/merge pipe protocol) sum *exactly*; histogram
bucket boundaries follow Prometheus ``le`` semantics stably; the rendered
exposition text parses; trace ids are unique, honour ``X-Request-Id`` and
survive the fork-pipe round trip; and a traced ``/predict`` decomposes into
stage spans that sum to its ``elapsed_ms``.
"""

from __future__ import annotations

import http.client
import json
import math
import re
import threading

import numpy as np
import pytest

from helpers import available_backends
from repro.backend import ProcessBackend
from repro.obs import (
    Counter,
    Histogram,
    LayerTimer,
    MetricsRegistry,
    collector_context,
    latency_percentiles,
    new_trace_id,
    profile_inference,
    should_sample,
)
from repro.obs import trace as trace_mod
from repro.serving import InferenceService, ModelRegistry, ServiceConfig, make_server
from repro.unet import InferenceConfig, UNet, UNetConfig, tiny_unet_config

needs_fork = pytest.mark.skipif(
    "fork" not in available_backends(), reason="fork start method unavailable"
)

# A line of Prometheus text exposition format 0.0.4: comment/help/type lines
# or ``name{labels} value``.
_VALUE = r"(-?[0-9][0-9eE+.\-]*|[+-]Inf|NaN)"
_LABEL_VALUE = r"\"(?:[^\"\\]|\\.)*\""
_LABELS = (rf"\{{[a-zA-Z_][a-zA-Z0-9_]*={_LABEL_VALUE}"
           rf"(,[a-zA-Z_][a-zA-Z0-9_]*={_LABEL_VALUE})*\}}")
_EXPOSITION_LINE = re.compile(
    r"^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*"
    rf"|[a-zA-Z_:][a-zA-Z0-9_:]*({_LABELS})? {_VALUE})$"
)


class TestCounterExactness:
    def test_parallel_thread_increments_sum_exactly(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", "x", ("who",))
        threads_n, per_thread = 8, 500

        def worker(i: int) -> None:
            for _ in range(per_thread):
                counter.inc(who=f"t{i % 2}")

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = counter.value(who="t0") + counter.value(who="t1")
        assert total == threads_n * per_thread

    def test_bound_handle_matches_kwargs_path(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "x", ("k",))
        bound = counter.labels(k="a")
        bound.inc()
        bound.inc(2.0)
        counter.inc(3.0, k="a")
        assert counter.value(k="a") == 6.0

    @needs_fork
    def test_fork_worker_increments_merge_exactly(self):
        """Children inc a private registry; drained deltas merged over real pipes."""
        import multiprocessing as mp

        ctx = mp.get_context("fork")
        workers, per_worker = 4, 250

        def child(conn) -> None:
            registry = MetricsRegistry()
            counter = registry.counter("work_total", "x", ("pid_mod",))
            hist = registry.histogram("work_ms", "x", (), buckets=(1.0, 10.0, 100.0))
            for i in range(per_worker):
                counter.inc(pid_mod=str(i % 3))
                hist.observe(float(i % 20))
            conn.send(registry.drain())
            conn.close()

        parent = MetricsRegistry()
        pipes, procs = [], []
        for _ in range(workers):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=child, args=(send,))
            proc.start()
            send.close()
            pipes.append(recv)
            procs.append(proc)
        for recv in pipes:
            parent.merge(recv.recv())
        for proc in procs:
            proc.join(30.0)
            assert proc.exitcode == 0

        counter = parent.get("work_total")
        merged = sum(counter.value(pid_mod=str(m)) for m in range(3))
        assert merged == workers * per_worker
        snap = parent.get("work_ms").snapshot()
        assert snap["count"] == workers * per_worker
        assert sum(snap["counts"]) == workers * per_worker


class TestHistogramBuckets:
    def test_boundary_values_land_in_their_le_bucket(self):
        hist = Histogram("h_ms", buckets=(1.0, 5.0, 10.0))
        for value in (0.5, 1.0, 1.0001, 5.0, 9.99, 10.0, 10.0001):
            hist.observe(value)
        snap = hist.snapshot()
        # le semantics: a value equal to a bound belongs to that bound's bucket.
        assert snap["counts"] == [2, 2, 2, 1]
        assert snap["count"] == 7
        assert snap["sum"] == pytest.approx(0.5 + 1.0 + 1.0001 + 5.0 + 9.99 + 10.0 + 10.0001)

    def test_bucket_bounds_are_stable_and_strictly_increasing(self):
        from repro.obs import DEFAULT_LATENCY_BUCKETS_MS

        assert all(b2 > b1 for b1, b2 in
                   zip(DEFAULT_LATENCY_BUCKETS_MS, DEFAULT_LATENCY_BUCKETS_MS[1:]))
        hist = Histogram("h_default")
        assert hist.buckets == DEFAULT_LATENCY_BUCKETS_MS

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("bad", buckets=(5.0, 1.0))


class TestExposition:
    def test_render_parses_line_by_line(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "things counted", ("k",)).inc(k='tricky"label\\n')
        registry.gauge("b_gauge", "a level").set(2.5)
        registry.histogram("c_ms", "a latency", ("op",), buckets=(1.0, 10.0)).observe(3.0, op="x")
        text = registry.render_prometheus()
        assert text.endswith("\n")
        for line in text.rstrip("\n").split("\n"):
            assert _EXPOSITION_LINE.match(line), f"unparseable exposition line: {line!r}"
        assert '# TYPE c_ms histogram' in text
        assert 'c_ms_bucket{op="x",le="+Inf"} 1' in text
        assert "c_ms_count" in text and "c_ms_sum" in text

    def test_histogram_bucket_counts_are_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("d_ms", "x", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 100.0):
            hist.observe(value)
        text = registry.render_prometheus()
        assert 'd_ms_bucket{le="1"} 1' in text
        assert 'd_ms_bucket{le="10"} 2' in text
        assert 'd_ms_bucket{le="+Inf"} 3' in text

    def test_disabled_registry_drops_updates(self):
        registry = MetricsRegistry()
        registry.enabled = False
        counter = registry.counter("e_total", "x")
        counter.inc()
        assert counter.value() == 0.0
        registry.enabled = True
        counter.inc()
        assert counter.value() == 1.0

    @pytest.mark.parametrize("value", ["off", "0", "FALSE"])
    def test_metrics_env_var_starts_a_registry_switched_off(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_METRICS", value)
        registry = MetricsRegistry()
        counter, histogram = registry.counter("g_total", "x"), registry.histogram("g_ms", "x")
        counter.inc()
        histogram.observe(3.0)
        assert counter.value() == 0.0 and histogram.snapshot()["count"] == 0
        assert not registry.enabled

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("f_total", "x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("f_total", "x")
        assert isinstance(registry.counter("f_total"), Counter)


class TestTracing:
    def test_trace_ids_unique(self):
        ids = {new_trace_id() for _ in range(200)}
        assert len(ids) == 200

    def test_sampling_modes(self, monkeypatch):
        for mode, rate, sampled in (("", None, False), ("off", None, False), ("all", None, True),
                                    ("sampled", "1.0", True), ("sampled", "0.0", False)):
            monkeypatch.setenv("REPRO_TRACE", mode)
            if rate is not None:
                monkeypatch.setenv("REPRO_TRACE_SAMPLE", rate)
            assert should_sample(new_trace_id()) is sampled, (mode, rate)
        # Deterministic: the same id always decides the same way.
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "0.5")
        tid = new_trace_id()
        assert all(should_sample(tid) == should_sample(tid) for _ in range(5))

    @pytest.mark.parametrize("value", ["on", "sample", "al"])
    def test_an_unknown_trace_mode_raises_naming_the_valid_ones(self, monkeypatch, value):
        """A typo used to mean ``off``: tracing silently did nothing."""
        monkeypatch.setenv("REPRO_TRACE", value)
        with pytest.raises(ValueError, match=rf"REPRO_TRACE='{value}'.*'off', 'sampled', 'all'"):
            should_sample(new_trace_id())

    @pytest.mark.parametrize("value", ["abc", "nan", "0.1.2"])
    def test_a_sample_rate_that_is_not_a_number_raises(self, monkeypatch, value):
        """``abc`` used to fall back to 0.1 and ``nan`` to clamp to 0.0, so ``sampled`` mode sampled nothing."""
        monkeypatch.setenv("REPRO_TRACE", "sampled")
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", value)
        with pytest.raises(ValueError, match=rf"REPRO_TRACE_SAMPLE='{value}' is not a sample rate"):
            should_sample(new_trace_id())

    @pytest.mark.parametrize("value, sampled", [("-0.5", False), ("2", True), ("inf", True)])
    def test_a_sample_rate_outside_the_unit_interval_is_clamped(self, monkeypatch, value, sampled):
        monkeypatch.setenv("REPRO_TRACE", "sampled")
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", value)
        assert {should_sample(new_trace_id()) for _ in range(50)} == {sampled}

    @pytest.mark.parametrize("mode, rate", [("on", None), ("sampled", "abc")])
    def test_the_service_refuses_bad_trace_settings_at_start(self, monkeypatch, mode, rate):
        monkeypatch.setenv("REPRO_TRACE", mode)
        if rate is not None:
            monkeypatch.setenv("REPRO_TRACE_SAMPLE", rate)
        with pytest.raises(ValueError, match="REPRO_TRACE"):
            InferenceService(ModelRegistry(), ServiceConfig(port=0))

    def test_the_log_sink_follows_the_path_the_environment_names(self, monkeypatch, tmp_path):
        for name in ("first.jsonl", "second.jsonl"):
            monkeypatch.setenv("REPRO_TRACE_LOG", str(tmp_path / name))
            trace_mod.emit_trace({"log": name})
        monkeypatch.delenv("REPRO_TRACE_LOG")
        for name in ("first.jsonl", "second.jsonl"):
            assert [json.loads(line) for line in (tmp_path / name).read_text().splitlines()] == [{"log": name}]

    def test_collector_context_records_into_top_collector(self):
        outer: dict = {}
        with collector_context(outer, "tid-1"):
            assert trace_mod.current_trace_id() == "tid-1"
            trace_mod.record("compute_ms", 1.5)
            trace_mod.record("compute_ms", 0.5)
        assert outer == {"compute_ms": 2.0}
        assert trace_mod.current_trace_id() is None
        trace_mod.record("compute_ms", 9.0)  # no active collector: a no-op

    @needs_fork
    def test_trace_id_round_trips_through_fork_pipe(self):
        model = UNet(tiny_unet_config(seed=3))
        stack = np.random.default_rng(5).integers(0, 256, size=(2, 32, 32, 3), dtype=np.uint8)
        with ProcessBackend(num_workers=1) as backend:
            backend.publish_model("m", model)
            collector: dict = {}
            tid = new_trace_id()
            with collector_context(collector, tid):
                backend.predict("m", stack)
            meta = backend._workers[0].last_meta
            assert meta is not None and meta["trace_id"] == tid
            assert collector["compute_ms"] > 0.0
            assert isinstance(meta["pid"], int) and meta["pid"] > 0


class TestProfilingHooks:
    def test_layer_timer_restores_originals(self):
        model = UNet(UNetConfig(depth=2, base_channels=4, dropout=0.0, seed=1))
        x = np.random.default_rng(0).standard_normal((1, 3, 32, 32)).astype(np.float32)
        with LayerTimer([("bottleneck", model.bottleneck.conv1)]) as timer:
            model.forward(x)
        assert timer.stats["bottleneck"]["calls"] == 1
        assert timer.stats["bottleneck"]["forward_ms"] > 0.0
        # No lingering instance-level shadow: forward resolves to the class method.
        assert "forward" not in vars(model.bottleneck.conv1)

    def test_layer_timer_books_nested_time_once(self, monkeypatch):
        class Leaf:
            def forward(self):
                return 1

        class Block:
            def __init__(self):
                self.leaf = Leaf()

            def forward(self):
                return self.leaf.forward() + self.leaf.forward()

        ticks = iter(range(100))  # every clock read is one second later
        monkeypatch.setattr("repro.obs.profile.time.perf_counter", lambda: float(next(ticks)))
        block = Block()
        with LayerTimer([("block", block), ("leaf", block.leaf)]) as timer:
            block.forward()
        monkeypatch.undo()
        # block 0 → 5 s with the leaf inside it 1 → 2 s and 3 → 4 s: self times, summing to the wall.
        assert timer.stats["leaf"] == {"forward_ms": 2000.0, "backward_ms": 0.0, "calls": 2}
        assert timer.stats["block"] == {"forward_ms": 3000.0, "backward_ms": 0.0, "calls": 1}

    def test_compiled_plan_per_step_timings(self):
        model = UNet(UNetConfig(depth=2, base_channels=4, dropout=0.0, seed=1))
        report = profile_inference(model, batch_shape=(1, 32, 32), iterations=3, warmup=1)
        assert report["iterations"] == 3
        assert set(report["latency"]) == {"p50_ms", "p95_ms", "p99_ms"}
        assert report["steps"], "profiled plan reported no steps"
        for step in report["steps"]:
            assert step["calls"] == 3
            assert step["total_ms"] >= 0.0
        kinds = report["by_kind"]
        assert set(kinds) == {"pad", "border", "conv", "pool", "upconv", "softmax"}
        assert sum(cell["calls"] for cell in kinds.values()) == 3 * len(report["steps"])
        assert kinds["pool"]["calls"] == kinds["upconv"]["calls"] == 3 * 2 and kinds["softmax"]["calls"] == 3  # depth 2
        assert kinds["pad"]["calls"] == 3  # the external input, nothing else, is copied into a bordered buffer
        assert sum(cell["share"] for cell in kinds.values()) == pytest.approx(1.0, abs=1e-3)
        assert sum(cell["total_ms"] for cell in kinds.values()) == pytest.approx(
            sum(step["total_ms"] for step in report["steps"]), abs=0.01)

    def test_every_plan_step_class_has_a_budget_line(self):
        from repro.nn import plan
        from repro.obs.profile import _STEP_KINDS

        def subclasses(cls):
            return {sub for direct in cls.__subclasses__() for sub in {direct} | subclasses(direct)}

        steps = {cls.__name__.lstrip("_") for cls in subclasses(plan._Step) if cls.__module__ == plan.__name__}
        assert steps and steps == set(_STEP_KINDS)

    def test_trainer_epoch_profile(self):
        from repro.obs import profile_training

        report = profile_training(epochs=1, batches=2, batch_size=2, tile=16)
        epoch = report["per_epoch"][0]
        phases = epoch["phases_ms"]
        assert set(phases) == {"forward_ms", "loss_ms", "backward_ms", "optimizer_ms"}
        assert all(v >= 0.0 for v in phases.values())
        assert "bottleneck" in epoch["layers"]
        assert epoch["layers"]["bottleneck"]["calls"] == 2 * 4  # a block counts its layers' calls: conv, ReLU twice
        kinds = report["by_kind"]  # default model: depth 2, no dropout
        assert set(kinds) == {"Conv2D", "ReLU", "MaxPool2D", "UpConv2D", "Concat"}
        assert kinds["Conv2D"]["calls"] == 2 * 11 and kinds["MaxPool2D"]["calls"] == 2 * 2
        # Self times: the per-class lines never add up to more than the phases measured around
        # the whole model (0.1 ms covers the 3-decimal rounding of some twenty values).
        booked = sum(cell["forward_ms"] + cell["backward_ms"] for cell in kinds.values())
        assert booked <= phases["forward_ms"] + phases["backward_ms"] + 0.1
        assert report["checkpoint_ms"] > 0.0
        assert 0 < report["scratch_bytes"] <= 256 * 1024  # 2x16² tiles: no more than one conv band

    def test_latency_percentiles_empty_and_ordered(self):
        assert latency_percentiles([]) == {"p50_ms": None, "p95_ms": None, "p99_ms": None}
        out = latency_percentiles(list(range(1, 101)))
        assert out["p50_ms"] <= out["p95_ms"] <= out["p99_ms"]


@pytest.fixture(scope="module")
def traced_service(tmp_path_factory):
    """A live service with tracing forced on, writing a JSONL trace log."""
    root = tmp_path_factory.mktemp("obs-registry")
    log_path = tmp_path_factory.mktemp("obs-trace") / "trace.jsonl"
    model = UNet(UNetConfig(depth=2, base_channels=4, dropout=0.0, seed=17))
    registry = ModelRegistry(str(root))
    registry.publish("seaice", 1, model,
                     inference=InferenceConfig(tile_size=32, apply_cloud_filter=False))
    service = InferenceService(registry, ServiceConfig(port=0))
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    environment = pytest.MonkeyPatch()
    environment.setenv("REPRO_TRACE", "all")
    environment.setenv("REPRO_TRACE_LOG", str(log_path))
    try:
        yield server.server_address[1], service, log_path
    finally:
        environment.undo()
        server.shutdown()
        server.server_close()
        service.close()
        registry.close()
        thread.join(5.0)


def _request(port, method, path, body=None, headers=()):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        all_headers = {"Content-Type": "application/json", **dict(headers)}
        conn.request(method, path, body=None if body is None else json.dumps(body),
                     headers=all_headers)
        response = conn.getresponse()
        return response.status, response.read(), dict(response.getheaders())
    finally:
        conn.close()


class TestServiceTelemetry:
    def test_predict_spans_sum_to_elapsed_and_trace_logged(self, traced_service, rng):
        port, _, log_path = traced_service
        before = log_path.read_text().count("\n") if log_path.exists() else 0
        tile = rng.integers(0, 255, size=(32, 32, 3), dtype=np.uint8)
        status, raw, headers = _request(
            port, "POST", "/predict", {"model": "seaice", "tile": tile.tolist()},
            headers={"X-Request-Id": "req-fixed-id-1"})
        assert status == 200
        payload = json.loads(raw)
        assert headers["X-Request-Id"] == "req-fixed-id-1"
        assert payload["trace_id"] == "req-fixed-id-1"
        spans = payload["stage_timings"]
        assert set(spans) == {"resolve_ms", "queue_wait_ms", "batch_assembly_ms",
                              "dispatch_ms", "compute_ms", "stitch_ms"}
        assert sum(spans.values()) == pytest.approx(payload["elapsed_ms"], abs=0.05)
        records = [json.loads(line) for line in log_path.read_text().splitlines()]
        mine = [r for r in records[before:] if r["trace_id"] == "req-fixed-id-1"]
        assert len(mine) == 1
        assert mine[0]["spans"].keys() == spans.keys()

    def test_generated_trace_id_echoed_everywhere(self, traced_service, rng):
        port, _, _ = traced_service
        tile = rng.integers(0, 255, size=(32, 32, 3), dtype=np.uint8)
        status, raw, headers = _request(port, "POST", "/predict", {"tile": tile.tolist()})
        assert status == 200
        payload = json.loads(raw)
        assert payload["trace_id"] == headers["X-Request-Id"]
        assert len(payload["trace_id"]) == 32

    def test_error_body_carries_trace_id(self, traced_service):
        port, _, _ = traced_service
        status, raw, headers = _request(port, "POST", "/predict", {"nope": 1},
                                        headers={"X-Request-Id": "bad-req-1"})
        assert status == 400
        payload = json.loads(raw)
        assert payload["trace_id"] == "bad-req-1"
        assert headers["X-Request-Id"] == "bad-req-1"

    def test_metrics_endpoint_parses_and_has_core_series(self, traced_service, rng):
        port, _, _ = traced_service
        tile = rng.integers(0, 255, size=(32, 32, 3), dtype=np.uint8)
        _request(port, "POST", "/predict", {"tile": tile.tolist()})
        status, raw, headers = _request(port, "GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        text = raw.decode("utf-8")
        for line in text.rstrip("\n").split("\n"):
            assert _EXPOSITION_LINE.match(line), f"unparseable exposition line: {line!r}"
        for series in ("repro_requests_total", "repro_request_latency_ms_bucket",
                       "repro_request_stage_ms_bucket", "repro_batcher_flush_size_bucket",
                       "repro_backend_compute_ms_bucket", "repro_admission_total"):
            assert series in text, f"missing core series {series}"

    def test_stats_payload_has_plan_caches_and_metrics(self, traced_service, rng):
        port, service, _ = traced_service
        tile = rng.integers(0, 255, size=(32, 32, 3), dtype=np.uint8)
        _request(port, "POST", "/predict", {"tile": tile.tolist()})
        status, raw, _ = _request(port, "GET", "/stats")
        assert status == 200
        payload = json.loads(raw)
        caches = payload["plan_caches"]
        if payload["backends"]["seaice/1"]["backend"] == "fork":  # workers compile their own plans
            assert "seaice/1" not in caches
        else:
            info = caches["seaice/1"]
            assert {"hits", "misses", "evictions", "plans"} <= set(info)
            assert info["misses"] >= 1
        assert "repro_requests_total" in payload["metrics"]
        batcher = payload["batchers"]["seaice/1"]
        assert batcher["flush_size_histogram"]["count"] >= 1

    @pytest.mark.parametrize("backend", ["serial", pytest.param("fork", marks=needs_fork)])
    def test_backend_spans_include_compute(self, tmp_path, rng, backend):
        """Every backend measures compute where the model runs — inline or
        in a worker process — so ``dispatch_ms`` is dispatch only."""
        from repro.obs import get_registry

        def compute_count() -> int:
            found = re.search(rf'repro_backend_compute_ms_count{{backend="{backend}"}} (\d+)',
                              get_registry().render_prometheus())
            return int(found.group(1)) if found else 0

        root = tmp_path / "registry"
        model = UNet(UNetConfig(depth=2, base_channels=4, dropout=0.0, seed=17))
        config = InferenceConfig(tile_size=32, apply_cloud_filter=False,
                                 backend=backend, num_workers=2)
        registry = ModelRegistry(str(root), inference=config)
        registry.publish("seaice", 1, model, inference=config)
        service = InferenceService(registry, ServiceConfig(port=0))
        observed = compute_count()
        try:
            tile = rng.integers(0, 255, size=(32, 32, 3), dtype=np.uint8)
            payload = service.predict_payload({"model": "seaice", "tile": tile.tolist()})
            spans = payload["stage_timings"]
            assert spans["compute_ms"] > 0.0, f"{backend} compute time did not reach the request's spans"
            assert sum(spans.values()) == pytest.approx(payload["elapsed_ms"], abs=0.05)
            assert compute_count() >= observed + 1
            occupancy = service.stats_payload()["backends"]["seaice/1"]
            assert occupancy["backend"] == backend
            assert occupancy["tasks_dispatched"] >= 1
            assert occupancy["models"] == ["scene-model"]
        finally:
            service.close()
            registry.close()


class TestValueFormatting:
    def test_inf_bound_renders_as_plus_inf(self):
        from repro.obs.metrics import _format_value

        assert _format_value(math.inf) == "+Inf"
        assert _format_value(3.0) == "3"
        assert _format_value(2.5) == "2.5"
