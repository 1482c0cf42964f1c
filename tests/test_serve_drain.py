"""Graceful-shutdown test: SIGTERM to a live ``repro.cli serve`` subprocess
must drain in-flight requests, release every shared-memory segment and worker
process, and exit 0 — no orphans, no leaks, no truncated responses."""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from helpers import available_backends
from repro.serving import ModelRegistry
from repro.unet import InferenceConfig, UNet, UNetConfig

from leaks import shm_segments as _segments

fork_only = pytest.mark.skipif(
    "fork" not in available_backends(), reason="fork start method unavailable"
)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, PermissionError):
        return False
    return True


def _request(port, method, path, body=None, timeout=30):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(method, path, body=None if body is None else json.dumps(body),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _spawn_server(registry_dir: str, extra_env: dict[str, str]):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra_env)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--registry", registry_dir, "--port", "0", "--quiet"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    # The first stdout line is the machine-readable ready announcement.
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            if proc.poll() is not None:
                raise AssertionError(
                    f"server exited early ({proc.returncode}): {proc.stderr.read()}")
            continue
        try:
            ready = json.loads(line)
        except json.JSONDecodeError:
            continue
        if ready.get("serving"):
            return proc, ready["port"]
    proc.kill()
    raise AssertionError("server never announced readiness")


@pytest.fixture()
def registry_dir(tmp_path):
    registry = ModelRegistry(str(tmp_path))
    registry.publish(
        "seaice", 1, UNet(UNetConfig(depth=1, base_channels=2, dropout=0.0, seed=5)),
        inference=InferenceConfig(tile_size=16, apply_cloud_filter=False),
    )
    registry.close()
    return str(tmp_path)


_TILE = np.zeros((16, 16, 3), dtype=np.uint8).tolist()


def _drain_and_wait(proc) -> int:
    proc.send_signal(signal.SIGTERM)
    try:
        return proc.wait(timeout=30)
    except subprocess.TimeoutExpired:  # pragma: no cover - the failure mode under test
        proc.kill()
        raise AssertionError("server did not exit within 30s of SIGTERM")


class TestSigtermDrain:
    def test_serial_backend_drains_and_exits_zero(self, registry_dir):
        proc, port = _spawn_server(registry_dir, {"REPRO_BACKEND": "serial"})
        try:
            status, _ = _request(port, "POST", "/predict", {"tile": _TILE})
            assert status == 200
            assert _drain_and_wait(proc) == 0
            # The listener is really gone.
            with pytest.raises(OSError):
                _request(port, "GET", "/healthz", timeout=2)
        finally:
            if proc.poll() is None:
                proc.kill()

    @fork_only
    def test_fork_backend_releases_workers_and_shm(self, registry_dir):
        before = _segments()
        proc, port = _spawn_server(registry_dir, {
            "REPRO_BACKEND": "fork",
            # Every predict sleeps 300 ms so a request is reliably in flight
            # when SIGTERM lands — the drain must still answer it with 200.
            "REPRO_FAULTS": "slow_predict:-1:0.3",
        })
        worker_pids: list[int] = []
        try:
            status, _ = _request(port, "POST", "/predict", {"tile": _TILE})
            assert status == 200
            status, stats = _request(port, "GET", "/stats")
            assert status == 200
            for occupancy in stats["backends"].values():
                worker_pids.extend(occupancy.get("worker_pids", []))
            assert worker_pids, "fork backend reported no workers"
            assert _segments() > before  # model store + arenas live in shm

            inflight: dict[str, object] = {}

            def client() -> None:
                try:
                    inflight["status"], _ = _request(port, "POST", "/predict",
                                                     {"tile": _TILE})
                except Exception as exc:  # pragma: no cover - drain failure mode
                    inflight["error"] = exc

            thread = threading.Thread(target=client)
            thread.start()
            time.sleep(0.1)  # request is now inside the slow predict
            assert _drain_and_wait(proc) == 0
            thread.join(10.0)
            assert inflight.get("status") == 200, f"in-flight request lost: {inflight}"
        finally:
            if proc.poll() is None:
                proc.kill()
        # No orphaned workers, no leaked shared memory.
        assert not any(_alive(pid) for pid in worker_pids)
        assert _segments() == before
