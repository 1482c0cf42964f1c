"""Tests for the HTTP serving front-end (in-process ThreadingHTTPServer)."""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import socket
import threading
from http.server import ThreadingHTTPServer

import numpy as np
import pytest

from repro.nn.convgemm import NUMERICS
from repro.reliability import DeadlineExceeded, OverloadedError
from repro.serving import InferenceService, ModelRegistry, ServiceConfig, make_server
from repro.serving.service import _make_handler
from repro.unet import InferenceConfig, SceneClassifier, UNet, UNetConfig


@contextlib.contextmanager
def _listening(server):
    """Run ``server.serve_forever`` in a thread for the duration of the block."""
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5.0)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A live service on an ephemeral port, backed by a one-model registry."""
    root = tmp_path_factory.mktemp("registry")
    model = UNet(UNetConfig(depth=2, base_channels=4, dropout=0.0, seed=17))
    registry = ModelRegistry(str(root))
    registry.publish("seaice", 1, model,
                     inference=InferenceConfig(tile_size=32, apply_cloud_filter=False))
    service = InferenceService(registry, ServiceConfig(port=0))
    try:
        with _listening(make_server(service)) as port:
            yield port, service, model
    finally:
        service.close()
        registry.close()


def _request(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(method, path, body=None if body is None else json.dumps(body),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestEndpoints:
    def test_healthz(self, served):
        port, _, _ = served
        status, payload = _request(port, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["models"] == ["seaice"]
        assert payload["uptime_s"] >= 0

    def test_models_listing(self, served):
        port, _, _ = served
        status, payload = _request(port, "GET", "/models")
        assert status == 200
        assert payload["models"][0]["name"] == "seaice"
        assert payload["models"][0]["latest"] == 1
        assert payload["models"][0]["numerics"] == [NUMERICS]

    def test_predict_single_tile_matches_engine(self, served, rng):
        port, _, model = served
        tile = rng.integers(0, 255, size=(32, 32, 3), dtype=np.uint8)
        status, payload = _request(port, "POST", "/predict",
                                   {"model": "seaice", "tile": tile.tolist()})
        assert status == 200
        assert payload["model"] == "seaice" and payload["version"] == 1
        with SceneClassifier(model=model, config=InferenceConfig(tile_size=32, apply_cloud_filter=False)) as classifier:
            # Reduced inside the block: under fork the stack result is a view of the backend's output arena.
            expected = classifier._predict_stack(tile[None]).argmax(axis=1)[0]
        np.testing.assert_array_equal(np.asarray(payload["class_map"], dtype=np.uint8), expected)
        assert sum(payload["class_counts"].values()) == 32 * 32

    def test_predict_batch_and_default_model(self, served, rng):
        port, _, _ = served
        tiles = rng.integers(0, 255, size=(3, 16, 16, 3), dtype=np.uint8)
        # Single registered model → "model" key may be omitted.
        status, payload = _request(port, "POST", "/predict", {"tiles": tiles.tolist()})
        assert status == 200
        assert payload["num_tiles"] == 3
        maps = np.asarray(payload["class_map"], dtype=np.uint8)
        assert maps.shape == (3, 16, 16)

    def test_predict_proba_payload(self, served, rng):
        port, _, _ = served
        tile = rng.integers(0, 255, size=(16, 16, 3), dtype=np.uint8)
        status, payload = _request(port, "POST", "/predict",
                                   {"tile": tile.tolist(), "proba": True})
        assert status == 200
        proba = np.asarray(payload["proba"], dtype=np.float32)
        assert proba.shape == (3, 16, 16)
        np.testing.assert_allclose(proba.sum(axis=0), 1.0, atol=1e-4)

    def test_concurrent_clients_coalesce_into_batches(self, served, rng):
        port, service, _ = served
        tiles = rng.integers(0, 255, size=(12, 16, 16, 3), dtype=np.uint8)
        results: list[int] = []

        def client(i: int) -> None:
            status, _ = _request(port, "POST", "/predict", {"tile": tiles[i].tolist()})
            results.append(status)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(len(tiles))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == [200] * len(tiles)
        stats = service.batcher_stats()["seaice/1"]
        assert stats["requests"] >= len(tiles)

    def test_stats_endpoint(self, served):
        port, _, _ = served
        status, payload = _request(port, "GET", "/stats")
        assert status == 200
        assert "batchers" in payload


class TestErrorHandling:
    def test_unknown_path_404(self, served):
        port, _, _ = served
        assert _request(port, "GET", "/nope")[0] == 404
        assert _request(port, "POST", "/nope")[0] == 404

    def test_unknown_model_400(self, served, rng):
        port, _, _ = served
        tile = rng.integers(0, 255, size=(16, 16, 3), dtype=np.uint8).tolist()
        status, payload = _request(port, "POST", "/predict", {"model": "ghost", "tile": tile})
        assert status == 400
        assert "unknown model" in payload["error"]

    def test_missing_tile_400(self, served):
        port, _, _ = served
        status, payload = _request(port, "POST", "/predict", {"model": "seaice"})
        assert status == 400
        assert "tile" in payload["error"]

    def test_both_tile_and_tiles_400(self, served, rng):
        port, _, _ = served
        tile = rng.integers(0, 255, size=(16, 16, 3), dtype=np.uint8).tolist()
        status, _ = _request(port, "POST", "/predict", {"tile": tile, "tiles": [tile]})
        assert status == 400

    def test_malformed_json_400(self, served):
        port, _, _ = served
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            conn.request("POST", "/predict", body="{not json",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 400
            assert "JSON" in json.loads(response.read())["error"]
        finally:
            conn.close()

    def test_bad_tile_shape_400(self, served):
        port, _, _ = served
        status, payload = _request(port, "POST", "/predict", {"tile": [[1, 2], [3, 4]]})
        assert status == 400

    def test_out_of_range_pixels_400(self, served):
        if np.lib.NumpyVersion(np.__version__) < "2.0.0":
            pytest.skip("NumPy < 2 silently wraps out-of-range uint8 values")
        port, _, _ = served
        status, payload = _request(port, "POST", "/predict",
                                   {"tile": [[[256, 0, 0], [0, -1, 0]]]})
        assert status == 400
        assert "uint8" in payload["error"]


class _RecordingWriter:
    """Stands in for the handler's ``wfile``: forwards, and keeps every write."""

    def __init__(self, raw, writes: list) -> None:
        self._raw, self._writes = raw, writes

    def write(self, data) -> int:
        self._writes.append(bytes(data))
        return self._raw.write(data)

    def __getattr__(self, name):  # flush / close / closed
        return getattr(self._raw, name)


@pytest.fixture()
def recorded(served):
    """A second listener on the shared service whose handler records each
    ``wfile.write`` and the accepted socket's ``TCP_NODELAY`` flag."""
    _, service, _ = served
    writes: list[bytes] = []
    nodelay: list[int] = []

    class Recording(_make_handler(service, quiet=True)):
        def setup(self) -> None:
            super().setup()
            nodelay.append(self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))
            self.wfile = _RecordingWriter(self.wfile, writes)

    with _listening(ThreadingHTTPServer(("127.0.0.1", 0), Recording)) as port:
        yield port, service, writes, nodelay


class TestOneWritePerResponse:
    """Head and body leave in one ``write``: two would be two segments, and
    Nagle holds the second until the client's delayed ACK of the first."""

    @staticmethod
    def _exchange(port, writes, method, path, body=None, request_id=None):
        """One request on a fresh connection → (status, headers, body) parsed
        from the single recorded write, cross-checked against the client's view."""
        del writes[:]
        headers = {"Content-Type": "application/json"}
        if request_id is not None:
            headers["X-Request-Id"] = request_id
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            client_body = response.read()
        finally:
            conn.close()
        assert len(writes) == 1, f"{len(writes)} writes for one response"
        head, _, wire_body = writes[0].partition(b"\r\n\r\n")
        status_line, *header_lines = head.decode("latin-1").split("\r\n")
        wire_headers = dict(line.split(": ", 1) for line in header_lines)
        assert status_line.startswith("HTTP/1.1 ")
        assert int(status_line.split()[1]) == response.status
        assert wire_body == client_body
        assert int(wire_headers["Content-Length"]) == len(wire_body)
        assert {"Server", "Date", "Content-Type"} <= set(wire_headers)
        return response.status, wire_headers, wire_body

    def test_predict_200_and_request_id_echo(self, recorded, rng):
        port, _, writes, nodelay = recorded
        tile = rng.integers(0, 255, size=(32, 32, 3), dtype=np.uint8)
        status, headers, body = self._exchange(
            port, writes, "POST", "/predict", json.dumps({"tile": tile.tolist()}), "trace-abc")
        assert status == 200
        assert headers["X-Request-Id"] == "trace-abc" == json.loads(body)["trace_id"]
        assert headers["Content-Type"] == "application/json"
        assert nodelay == [1]

    def test_large_body_is_still_one_write(self, recorded, rng):
        port, _, writes, _ = recorded
        tiles = rng.integers(0, 255, size=(4, 32, 32, 3), dtype=np.uint8)
        status, _, body = self._exchange(
            port, writes, "POST", "/predict", json.dumps({"tiles": tiles.tolist(), "proba": True}))
        assert status == 200 and len(body) > 65536

    def test_client_error_400(self, recorded):
        port, _, writes, _ = recorded
        status, headers, body = self._exchange(port, writes, "POST", "/predict", "{not json", "bad-1")
        assert status == 400
        assert headers["X-Request-Id"] == "bad-1"
        assert "JSON" in json.loads(body)["error"]

    def test_shed_503_carries_retry_after(self, recorded, monkeypatch):
        port, service, writes, _ = recorded

        def shed(body, trace_id=None):
            raise OverloadedError("queue full", retry_after_s=0.25)

        monkeypatch.setattr(service, "predict_payload", shed)
        status, headers, body = self._exchange(port, writes, "POST", "/predict", "{}", "shed-1")
        assert status == 503
        assert headers["Retry-After"] == "0.250" and headers["X-Request-Id"] == "shed-1"
        assert json.loads(body)["retry_after_s"] == 0.25

    def test_expired_504(self, recorded, monkeypatch):
        port, service, writes, _ = recorded

        def expire(body, trace_id=None):
            raise DeadlineExceeded("deadline exceeded at batch queue", stage="batch queue")

        monkeypatch.setattr(service, "predict_payload", expire)
        status, headers, body = self._exchange(port, writes, "POST", "/predict", "{}", "late-1")
        assert status == 504
        assert headers["X-Request-Id"] == "late-1"
        assert json.loads(body)["stage"] == "batch queue"

    def test_metrics_stats_and_404(self, recorded):
        port, _, writes, _ = recorded
        status, headers, body = self._exchange(port, writes, "GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"] == "text/plain; version=0.0.4; charset=utf-8"
        assert b"repro_requests_total" in body
        status, headers, body = self._exchange(port, writes, "GET", "/stats")
        assert status == 200 and "batchers" in json.loads(body)
        assert self._exchange(port, writes, "GET", "/nope")[0] == 404

    def test_keep_alive_connection_serves_many_responses(self, recorded):
        port, _, writes, nodelay = recorded
        del writes[:]
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            for _ in range(3):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200 and json.loads(response.read())["status"]
        finally:
            conn.close()
        assert len(writes) == 3 and len(nodelay) == 1


class TestMultiTileRequests:
    @pytest.mark.parametrize("max_batch, flushes", [(16, 1), (8, 1), (4, 2)])
    def test_one_flush_per_max_batch_tiles(self, tmp_path, rng, max_batch, flushes):
        """A request's tiles enter the batcher atomically: 8 tiles are one
        flush (two at max_batch=4), not whatever the worker happened to see."""
        model = UNet(UNetConfig(depth=1, base_channels=2, dropout=0.0, seed=5))
        registry = ModelRegistry(str(tmp_path / "reg"))
        registry.publish("m", 1, model,
                         inference=InferenceConfig(tile_size=16, apply_cloud_filter=False))
        service = InferenceService(registry, ServiceConfig(port=0, max_batch=max_batch))
        try:
            tiles = rng.integers(0, 255, size=(8, 16, 16, 3), dtype=np.uint8)
            for _ in range(3):
                assert service.predict_payload({"tiles": tiles.tolist()})["num_tiles"] == 8
            stats = service.batcher_stats()["m/1"]
            assert (stats["requests"], stats["batches"]) == (24, 3 * flushes)
            assert stats["max_batch_size"] == 8 // flushes
        finally:
            service.close()


class TestHotSwapEviction:
    def test_superseded_batcher_and_warm_model_retired(self, tmp_path, rng):
        """An unversioned request after a version bump stops serving the old
        version: its micro-batcher is closed and its warm model dropped."""
        model = UNet(UNetConfig(depth=2, base_channels=4, dropout=0.0, seed=23))
        registry = ModelRegistry(str(tmp_path / "reg"))
        inference = InferenceConfig(tile_size=16, apply_cloud_filter=False)
        registry.publish("m", 1, model, inference=inference)
        service = InferenceService(registry, ServiceConfig(port=0))
        try:
            tile = rng.integers(0, 255, size=(16, 16, 3), dtype=np.uint8)
            assert service.predict_payload({"tile": tile.tolist()})["version"] == 1
            assert list(service.batcher_stats()) == ["m/1"]

            registry.publish("m", 2, model, inference=inference)
            assert service.predict_payload({"tile": tile.tolist()})["version"] == 2
            stats = service.batcher_stats()
            assert "m/2" in stats and "m/1" not in stats
            assert [key for key in registry.loaded_versions() if key[0] == "m"] == [("m", 2)]

            # Pinning the old version still works (reloaded on demand).
            pinned = service.predict_payload({"tile": tile.tolist(), "version": 1})
            assert pinned["version"] == 1
        finally:
            service.close()


class TestServiceConfig:
    @pytest.mark.parametrize("kwargs", [
        {"max_batch": 0}, {"request_timeout_s": 0}, {"max_queue": 0},
    ])
    def test_rejects_bad_options(self, kwargs):
        with pytest.raises(ValueError):
            ServiceConfig(**kwargs)

    def test_the_batch_window_is_gone(self):
        with pytest.raises(TypeError, match="batch_window_s"):
            ServiceConfig(batch_window_s=0.005)


class TestWarmModelStats:
    def test_stats_reports_warm_occupancy_and_eviction(self, tmp_path, rng):
        registry = ModelRegistry(str(tmp_path / "reg"), max_warm=1)
        inference = InferenceConfig(tile_size=16, apply_cloud_filter=False)
        for name in ("a", "b"):
            model = UNet(UNetConfig(depth=1, base_channels=2, dropout=0.0, seed=ord(name)))
            registry.publish(name, 1, model, inference=inference)
        service = InferenceService(registry, ServiceConfig(port=0))
        try:
            tile = rng.integers(0, 255, size=(16, 16, 3), dtype=np.uint8).tolist()
            assert service.predict_payload({"tile": tile, "model": "a"})["model"] == "a"
            payload = service.stats_payload()
            assert payload["warm_models"] == {"count": 1, "max_warm": 1, "loaded": ["a/1"]}

            # Serving model b evicts a (max_warm=1) and closes a's batcher.
            assert service.predict_payload({"tile": tile, "model": "b"})["model"] == "b"
            payload = service.stats_payload()
            assert payload["warm_models"]["loaded"] == ["b/1"]
            assert list(payload["batchers"]) == ["b/1"]
        finally:
            service.close()

    @pytest.mark.parametrize("backend", ["serial", pytest.param("fork", marks=pytest.mark.skipif(
        not hasattr(os, "fork"), reason="needs os.fork"))])
    def test_plan_cache_stats_only_for_an_in_process_engine(self, tmp_path, rng, backend):
        """A registry model's warm-up compiles the single-tile plan of an in-process engine;
        under fork the workers compile their own, so the parent reports no plan cache."""
        registry = ModelRegistry(str(tmp_path / "reg"))
        model = UNet(UNetConfig(depth=2, base_channels=8, dropout=0.0, seed=3))
        registry.publish("m", 1, model, inference=InferenceConfig(
            tile_size=32, apply_cloud_filter=False, backend=backend, num_workers=2))
        service = InferenceService(registry, ServiceConfig(port=0))
        try:
            tile = rng.integers(0, 255, size=(32, 32, 3), dtype=np.uint8).tolist()
            assert service.predict_payload({"tile": tile, "model": "m"})["model"] == "m"
            stats = service.plan_cache_stats()
            if backend == "fork":
                assert stats == {}
                assert registry.warm_classifier("m", 1).engine is None
            else:
                assert stats["m/1"]["plans"] == 1 and stats["m/1"]["hits"] >= 1
        finally:
            service.close()

    def test_closed_service_stops_listening_for_evictions(self, tmp_path, rng):
        registry = ModelRegistry(str(tmp_path / "reg"), max_warm=1)
        inference = InferenceConfig(tile_size=16, apply_cloud_filter=False)
        for name in ("a", "b"):
            model = UNet(UNetConfig(depth=1, base_channels=2, dropout=0.0, seed=ord(name)))
            registry.publish(name, 1, model, inference=inference)
        service = InferenceService(registry, ServiceConfig(port=0))
        service.close()
        assert registry._evict_listeners == []
        # Evictions after close never touch the dead service.
        registry.classifier("a")
        registry.classifier("b")
        assert registry.loaded_versions() == [("b", 1)]
